(** The one JSON reader and writer: daemon requests and replies, run
    reports, trace exports, bench records and the snapshot comparator
    all go through this module.

    The repository takes no JSON dependency, so this is a small strict
    RFC 8259 reader: the number grammar exactly, the standard escapes
    only, no raw control bytes in strings. Every producer and consumer
    here is ASCII, so a [\u] escape above 0x7F is kept verbatim rather
    than transcoded and bytes above 0x7F pass through unchecked. The
    printer has one number policy, stated on {!t}. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** prints with [string_of_int] *)
  | Float of float
      (** prints [null] when not finite, [%.1f] when integral and below
          1e15 in magnitude, [%.17g] (bit-exact round trip) otherwise *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error. A number
    literal with no fraction and no exponent that fits an OCaml int is
    an [Int]; every other number is a [Float]. [Error msg] carries a
    byte offset. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines — NDJSON-safe), valid input
    to {!parse}. Object fields print in the order given. *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_string} appended to a buffer. *)

(** Accessors; [None] on a type or key mismatch. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing key or non-object. *)

val to_int : t -> int option
(** An [Int], or a [Float] with an integral value within ±2^53 (so a
    client may send ["k": 4.0]). *)

val to_float : t -> float option
(** Any number. *)

val to_str : t -> string option
val to_arr : t -> t list option

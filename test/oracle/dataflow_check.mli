(** Operational validation of the dependence analysis.

    Re-executes a program while routing every read through the statically
    identified producer: a read of element [e] of array [a] takes its value
    from the store of [a]'s last writer of [e] (a token on the channel
    [producer -> reader]) instead of from a shared memory. If the analysis
    that derives the process network is right, this execution

    - produces exactly the final stores of the reference {!Interp},
    - consumes, on every (producer, consumer, array) channel, exactly the
      token count {!Dependence.flow_edges} reported, and
    - never needs a token from a producer later in program order (the
      single-assignment / producer-before-consumer discipline the PPN
      derivation assumes — violations are detected and reported, not
      silently mis-attributed). *)

open Ppnpart_poly

type channel_count = { src : int; dst : int; array : string; tokens : int }

type report = {
  env : Interp.env;  (** final stores of the dataflow execution *)
  consumed : channel_count list;
      (** per-channel consumed token counts, sorted *)
  order_violations : (int * int * string) list;
      (** (producer, consumer, array) pairs where the consumer read an
          element before its attributed producer had written it — empty on
          programs the PPN derivation is valid for *)
}

val run :
  ?input:(string -> int array -> int) ->
  (Stmt.t * Interp.semantics) list ->
  report

val verify :
  ?input:(string -> int array -> int) ->
  (Stmt.t * Interp.semantics) list ->
  bool
(** [true] iff the dataflow execution matches the reference interpreter,
    the consumed counts equal {!Dependence.flow_edges}, and there are no
    order violations. *)

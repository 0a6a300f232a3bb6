(** Flow-dependence analysis by exact enumeration.

    Channel volumes in a polyhedral process network are the number of tokens
    flowing between two processes, i.e. the number of read operations of the
    consumer statement that receive a value produced by the producer
    statement. We compute them exactly by enumerating iteration domains
    (which are small for the kernels in this repository — see DESIGN.md §5
    on why Barvinok counting is not needed) under imperative last-writer-wins
    semantics over the statement list order. *)

type element = string * int array
(** An array element: array name and index vector. *)

val written_elements : Stmt.t -> string -> (int array, unit) Hashtbl.t
(** The set of index vectors of [array] written by the statement. *)

val volume : writer:Stmt.t -> reader:Stmt.t -> array:string -> int
(** Tokens flowing from [writer] to [reader] through [array], assuming
    [writer] is the sole producer: the number of (reader iteration, read
    access) pairs whose accessed element is written by [writer]. *)

val last_writer_maps :
  Stmt.t list -> (string, (int array, int) Hashtbl.t) Hashtbl.t
(** For each array, the map from written index vectors to the index (in
    the input list) of the statement that writes them last — the producer
    attribution all channel volumes rest on. Exposed for the operational
    validation the test suite runs ([Dataflow_check]). *)

type flow = {
  src : int;  (** index of the producing statement in the input list *)
  dst : int;  (** index of the consuming statement *)
  array : string;
  tokens : int;  (** communicated token count *)
}

val flow_edges : Stmt.t list -> flow list
(** All flow dependences between distinct statements of a program, using
    last-writer-wins when several statements write the same element
    (statements later in the list shadow earlier ones). Self dependences
    (src = dst) are omitted — they stay inside one process. Result is sorted
    by [(src, dst, array)]. *)

val external_reads : Stmt.t list -> (int * string * int) list
(** [(reader_index, array, tokens)] for reads of elements no statement
    writes — the network's input streams. Sorted. *)

val external_writes : Stmt.t list -> (int * string * int) list
(** [(writer_index, array, tokens)] counting, per statement, final values it
    produces that no other statement consumes — the network's output
    streams. A value is "final" if the statement is the last writer of the
    element. Sorted. *)

val log_src : Logs.Src.t
(** The [ppnpart.poly] log source. *)

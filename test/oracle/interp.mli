(** Reference interpreter for affine programs.

    Executes a program — statements in list order, each sweeping its domain
    lexicographically — over concrete integer arrays, with a caller-supplied
    semantic function per statement. This is the ground truth the dataflow
    execution ({!Dataflow_check}) is compared against: if routing every read
    through the statically computed producer reproduces the interpreter's
    final stores, the dependence analysis used to derive channel volumes is
    operationally correct on that program. *)

open Ppnpart_poly

type env = (string, (int array, int) Hashtbl.t) Hashtbl.t
(** Array name -> (index vector -> value). *)

type semantics = int array -> int list -> int
(** [f point read_values] is the value the statement writes at [point];
    [read_values] are the values of its read accesses, in declaration
    order. *)

val default_input : string -> int array -> int
(** Value of an element never written when first read: a deterministic hash
    of the array name and the index vector (so distinct inputs get distinct
    values and tests catch mix-ups). *)

val run :
  ?input:(string -> int array -> int) ->
  (Stmt.t * semantics) list ->
  env
(** [run program] executes and returns the final stores. Every write access
    of a statement receives the same computed value at a given point. *)

val lookup : env -> string -> int array -> int option
(** Final value of one element. *)

val array_of : env -> string -> (int array * int) list
(** All elements of one array, sorted by index vector; empty if the array
    was never written. *)

val equal_env : env -> env -> bool
(** Same arrays with the same contents. *)

(** Edge_list contraction and hierarchy construction, the differential
    oracle of {!Ppnpart_partition.Coarsen}: same rng draws, bit-identical
    coarse graphs and maps. *)

open Ppnpart_graph

val contract : Wgraph.t -> int array -> Wgraph.t * int array

type hierarchy = { graphs : Wgraph.t array; maps : int array array }
(** [graphs.(0)] is the input; [maps.(l)] sends level [l] to [l + 1]. *)

val build : target:int -> Random.State.t -> Wgraph.t -> hierarchy
(** Coarsen with {!Matching.best_of} and {!contract} until at most
    [target] nodes remain, no edge remains, or a level removes fewer than
    5% of its nodes — [Coarsen.build]'s defaults. *)

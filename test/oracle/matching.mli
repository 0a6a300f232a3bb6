(** Boxed-tuple reference matchings, the differential oracle of
    {!Ppnpart_partition.Matching}: same rng draws, same partner arrays. *)

open Ppnpart_graph

val heavy_edge : Random.State.t -> Wgraph.t -> int array

val k_means : ?cluster_size:int -> Random.State.t -> Wgraph.t -> int array

val compute :
  Ppnpart_partition.Matching.strategy -> Random.State.t -> Wgraph.t -> int array

val best_of : Random.State.t -> Wgraph.t -> int array
(** Every strategy on its own stream split off [rng] in strategy order;
    the first matching of maximal matched weight wins. *)

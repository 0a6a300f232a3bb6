(** Full-scan constrained refinement, the differential oracle of
    {!Ppnpart_partition.Refine_constrained.refine}: a plain state without
    boundary caches, neighbour-sweep connectivity, the general O(k²)
    target scan and greedy sweeps over every node, allocating its scratch
    per call. It consumes the same rng draws and returns a bit-identical
    partition and goodness. With checks installed
    ({!Ppnpart_check.Check.with_checks}) it diffs its incremental totals
    against {!Ppnpart_check.Check.totals} after every FM rollback and at
    the end. *)

open Ppnpart_graph
open Ppnpart_partition

val refine :
  ?max_passes:int ->
  Random.State.t ->
  Wgraph.t ->
  Types.constraints ->
  int array ->
  int array * Metrics.goodness

(** Mini-METIS: multilevel K-way cut minimization with a balance constraint.

    This is the comparator of the paper's evaluation — "METIS always
    partitions, regardless of said constraints": it minimizes the global
    edge cut while keeping part weights within a load-imbalance factor
    (METIS 5 default 1.03), and is entirely unaware of the pairwise
    bandwidth bound [Bmax] and the absolute resource bound [Rmax].

    Pipeline (the standard scheme of Karypis & Kumar, Section III):
    heavy-edge coarsening to a small graph, greedy graph-growing initial
    K-way partitioning, then greedy K-way boundary refinement at every
    un-coarsening level. *)

open Ppnpart_graph

type refinement = Greedy | Fm
(** Un-coarsening refinement: [Greedy] (randomized positive-gain sweeps,
    METIS's default style, used in the paper comparison) or [Fm]
    (bucket-based K-way boundary FM with tentative negative-gain moves and
    rollback — higher quality, higher constant). *)

type stats = {
  part : int array;
  cut : int;
  levels : int;  (** hierarchy depth used *)
  runtime_s : float;
}

val partition :
  ?seed:int ->
  ?refinement:refinement ->
  Wgraph.t ->
  k:int ->
  stats
(** [partition g ~k]: coarsen to [max 30 (4 * k)] nodes, seed by
    greedy graph growing, refine within load imbalance 1.03 (METIS 5's
    default). [refinement] defaults to [Greedy]; [seed] to 0 (runs are
    deterministic for a fixed seed). *)

val log_src : Logs.Src.t
(** The [ppnpart.baselines] log source. *)

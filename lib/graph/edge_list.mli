(** Mutable edge-list accumulator used to assemble weighted undirected graphs.

    Edges are recorded as unordered pairs; duplicates (including the reversed
    orientation) are merged by {b summing} their weights when the list is
    normalized — the merge rule the paper applies during coarsening. Self
    loops are dropped at normalization time (a FIFO from a process to itself
    never crosses a partition boundary, so it carries no mapping cost). *)

type t

val create : ?expected_edges:int -> int -> t
(** [create n] is an empty accumulator over nodes [0 .. n-1]. Edges live
    in three growable int arrays (no tuple per edge); [expected_edges]
    sizes them up front. *)

val n_nodes : t -> int

val add : t -> int -> int -> int -> unit
(** [add t u v w] records an undirected edge [{u, v}] of weight [w].
    @raise Invalid_argument if [u] or [v] is out of range or [w < 0]. *)

val add_all : t -> (int * int * int) list -> unit

val to_csr : t -> int array * int array * int array
(** [to_csr t] is the normalized graph as CSR arrays [(xadj, adjncy,
    adjwgt)]: both orientations of every edge, each adjacency slice
    strictly ascending, parallel edges merged by weight addition, self
    loops dropped. The one normalizer behind {!normalized},
    [Wgraph.build] and [Wgraph.of_soa_edges]: a counting sort into rows
    and an int-key sort per row, O(n + m log deg). *)

val normalized : t -> (int * int * int) array
(** [normalized t] is the deduplicated edge array: each unordered pair appears
    once as [(min u v, max u v, total_weight)], sorted lexicographically; self
    loops removed. *)

val unsafe_of_soa :
  int -> src:int array -> dst:int array -> wgt:int array -> t
(** [unsafe_of_soa n ~src ~dst ~wgt] adopts three equal-length arrays,
    one edge per index, as an accumulator over [n] nodes, without
    copying or checking them. For callers that have validated the
    arrays ({!add}'s conditions) themselves. *)

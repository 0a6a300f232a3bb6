(* The boxed-tuple matchings: heavy-edge and k-means materializing
   [Wgraph.edges] and sorting an index array through a polymorphic
   comparator over the tuples, instead of SoA buffers and packed keys.
   They consume the same rng draws as {!Ppnpart_partition.Matching} and
   must return the same partner arrays. Random maximal matching and the
   k-means cluster construction and maximalization have one
   implementation, shared with the production module. *)

open Ppnpart_graph
module M = Ppnpart_partition.Matching

(* Weight descending, ties by explicit rank: [Array.sort] is not stable,
   so the rank makes the comparator a total order. *)
let sort_edges_by_weight_rank edges =
  let order = Array.init (Array.length edges) (fun i -> i) in
  Array.sort
    (fun i j ->
      let _, _, wi = edges.(i) and _, _, wj = edges.(j) in
      if wi <> wj then compare wj wi else compare i j)
    order;
  order

let match_in_order partner edges =
  Array.iter
    (fun idx ->
      let u, v, _ = edges.(idx) in
      if partner.(u) = u && partner.(v) = v then begin
        partner.(u) <- v;
        partner.(v) <- u
      end)
    (sort_edges_by_weight_rank edges)

let heavy_edge rng g =
  let partner = Array.init (Wgraph.n_nodes g) (fun i -> i) in
  let edges = Array.of_list (Wgraph.edges g) in
  (* Shuffle first so that the tie-breaking rank is uniformly random. *)
  for i = Array.length edges - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = edges.(i) in
    edges.(i) <- edges.(j);
    edges.(j) <- t
  done;
  match_in_order partner edges;
  partner

let k_means ?(cluster_size = 8) rng g =
  let n = Wgraph.n_nodes g in
  if n = 0 then [||]
  else begin
    let cluster = M.k_means_clusters ~cluster_size rng g in
    let partner = Array.init n (fun i -> i) in
    let intra =
      List.filter (fun (u, v, _) -> cluster.(u) = cluster.(v)) (Wgraph.edges g)
    in
    match_in_order partner (Array.of_list intra);
    M.k_means_maximalize rng g partner;
    partner
  end

let compute strategy rng g =
  match strategy with
  | M.Random_maximal -> M.random_maximal rng g
  | M.Heavy_edge -> heavy_edge rng g
  | M.K_means -> k_means rng g

let best_of rng g =
  (* One stream per strategy, split off in strategy order. *)
  let states =
    List.map (fun s -> (s, Random.State.split rng)) M.all_strategies
  in
  let candidates = List.map (fun (s, r) -> compute s r g) states in
  List.fold_left
    (fun best m ->
      if M.matched_weight g m > M.matched_weight g best then m else best)
    (List.hd candidates) (List.tl candidates)

(* The Edge_list contraction and a plain hierarchy loop over the
   boxed-tuple matchings: [Coarsen.build] without the direct CSR kernel,
   the SoA matchings, the workspace or the tracing. *)

open Ppnpart_graph
module C = Ppnpart_partition.Coarsen

let contract g partner =
  let n', cmap, vwgt = C.coarse_map g partner in
  let el = Edge_list.create ~expected_edges:(Wgraph.n_edges g) n' in
  (* Intra-pair edges become self loops, which Edge_list drops; parallel
     edges are merged by weight addition. *)
  Wgraph.iter_edges g (fun u v w -> Edge_list.add el cmap.(u) cmap.(v) w);
  (Wgraph.build ~vwgt el, cmap)

type hierarchy = { graphs : Wgraph.t array; maps : int array array }

let build ~target rng g =
  let rec go g graphs maps =
    let n = Wgraph.n_nodes g in
    if n <= target || Wgraph.n_edges g = 0 then (graphs, maps)
    else begin
      let partner = Matching.best_of rng g in
      let coarse, cmap = contract g partner in
      (* Stop once a level removes fewer than 5% of the nodes. *)
      if float_of_int (n - Wgraph.n_nodes coarse) < 0.05 *. float_of_int n
      then (graphs, maps)
      else go coarse (coarse :: graphs) (cmap :: maps)
    end
  in
  let graphs, maps = go g [ g ] [] in
  {
    graphs = Array.of_list (List.rev graphs);
    maps = Array.of_list (List.rev maps);
  }

type t = {
  n : int;
  xadj : int array;
  adjncy : int array;
  adjwgt : int array;
  vwgt : int array;
}

let checked_vwgt ~who n vwgt =
  match vwgt with
  | None -> Array.make n 1
  | Some w ->
    if Array.length w <> n then
      invalid_arg (who ^ ": vwgt length mismatch");
    Array.iter
      (fun x -> if x < 0 then invalid_arg (who ^ ": negative vwgt"))
      w;
    Array.copy w

(* Symmetry of strictly ascending, in-range, loop-free CSR slices in one
   O(n + m) sweep. Nodes are walked in ascending order, so the rows that
   list [v] as a lower neighbour arrive in ascending order too, and each
   must be exactly the next unmatched upper entry of [v]'s slice
   ([cursor.(v)], set when the sweep passes [v]'s diagonal). A sweep
   that matches every lower entry and leaves every cursor at the end of
   its slice has paired each entry with its mirror. A binary search into
   the mirror slice per entry costs the same comparisons but a random
   probe each, which made large graphs superlinear in practice. The
   defect is named where the sweep stops: [`Missing (u, v)] is an entry
   [u -> v] without a mirror, [`Weight (u, v)] a pair whose two weights
   differ. *)
let csr_asymmetry ~xadj ~adjncy ~adjwgt =
  let exception Defect of [ `Missing of int * int | `Weight of int * int ] in
  let n = Array.length xadj - 1 in
  let cursor = Array.make (max n 0) 0 in
  try
    for u = 0 to n - 1 do
      let i = ref xadj.(u) in
      while !i < xadj.(u + 1) && adjncy.(!i) < u do
        let v = adjncy.(!i) in
        let j = cursor.(v) in
        if j < xadj.(v + 1) && adjncy.(j) = u then begin
          if adjwgt.(j) <> adjwgt.(!i) then raise (Defect (`Weight (v, u)));
          cursor.(v) <- j + 1
        end
        else if j < xadj.(v + 1) && adjncy.(j) < u then
          raise (Defect (`Missing (v, adjncy.(j))))
        else raise (Defect (`Missing (u, v)));
        incr i
      done;
      cursor.(u) <- !i
    done;
    for v = 0 to n - 1 do
      if cursor.(v) < xadj.(v + 1) then
        raise (Defect (`Missing (v, adjncy.(cursor.(v)))))
    done;
    None
  with Defect d -> Some d

let of_csr ?vwgt ~n ~xadj ~adjncy ~adjwgt () =
  let fail fmt = Format.kasprintf invalid_arg ("Wgraph.of_csr: " ^^ fmt) in
  if n < 0 then fail "negative node count";
  if Array.length xadj <> n + 1 then fail "xadj length <> n + 1";
  if xadj.(0) <> 0 then fail "xadj.(0) <> 0";
  for u = 0 to n - 1 do
    if xadj.(u) > xadj.(u + 1) then fail "xadj not monotone at node %d" u
  done;
  let m2 = Array.length adjncy in
  if xadj.(n) <> m2 then fail "xadj.(n) <> |adjncy|";
  if Array.length adjwgt <> m2 then fail "adjwgt length <> |adjncy|";
  let vwgt = checked_vwgt ~who:"Wgraph.of_csr" n vwgt in
  for u = 0 to n - 1 do
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let v = adjncy.(i) in
      if v < 0 || v >= n then fail "neighbour out of range at node %d" u;
      if v = u then fail "self loop at node %d" u;
      if i > xadj.(u) && adjncy.(i - 1) >= v then
        fail "adjacency slice of node %d not strictly ascending" u;
      if adjwgt.(i) < 0 then fail "negative edge weight at node %d" u
    done
  done;
  (match csr_asymmetry ~xadj ~adjncy ~adjwgt with
  | None -> ()
  | Some (`Missing (u, v)) -> fail "edge (%d, %d) missing its mirror" u v
  | Some (`Weight (u, v)) -> fail "asymmetric weight on edge (%d, %d)" u v);
  { n; xadj; adjncy; adjwgt; vwgt }

let unsafe_of_csr ?vwgt ~n ~xadj ~adjncy ~adjwgt () =
  let vwgt = match vwgt with None -> Array.make n 1 | Some w -> w in
  { n; xadj; adjncy; adjwgt; vwgt }

let of_edge_list ~vwgt el =
  let xadj, adjncy, adjwgt = Edge_list.to_csr el in
  { n = Edge_list.n_nodes el; xadj; adjncy; adjwgt; vwgt }

let build ?vwgt el =
  let vwgt = checked_vwgt ~who:"Wgraph.build" (Edge_list.n_nodes el) vwgt in
  of_edge_list ~vwgt el

let of_soa_edges ?vwgt n ~src ~dst ~wgt =
  let fail fmt =
    Format.kasprintf invalid_arg ("Wgraph.of_soa_edges: " ^^ fmt)
  in
  if n < 0 then fail "negative node count";
  let m = Array.length src in
  if Array.length dst <> m || Array.length wgt <> m then
    fail "src/dst/wgt length mismatch";
  let vwgt = checked_vwgt ~who:"Wgraph.of_soa_edges" n vwgt in
  for e = 0 to m - 1 do
    let u = src.(e) and v = dst.(e) in
    if u < 0 || u >= n then fail "src node out of range at edge %d" e;
    if v < 0 || v >= n then fail "dst node out of range at edge %d" e;
    if wgt.(e) < 0 then fail "negative weight at edge %d" e
  done;
  of_edge_list ~vwgt (Edge_list.unsafe_of_soa n ~src ~dst ~wgt)

let of_edges ?vwgt n edges =
  let el = Edge_list.create ~expected_edges:(List.length edges) n in
  Edge_list.add_all el edges;
  build ?vwgt el

let n_nodes g = g.n
let n_edges g = Array.length g.adjncy / 2
let degree g u = g.xadj.(u + 1) - g.xadj.(u)
let node_weight g u = g.vwgt.(u)
let total_node_weight g = Array.fold_left ( + ) 0 g.vwgt
let total_edge_weight g = Array.fold_left ( + ) 0 g.adjwgt / 2

let iter_neighbors g u f =
  for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
    f g.adjncy.(i) g.adjwgt.(i)
  done

let fold_neighbors g u f init =
  let acc = ref init in
  iter_neighbors g u (fun v w -> acc := f !acc v w);
  !acc

let weighted_degree g u = fold_neighbors g u (fun acc _ w -> acc + w) 0

(* Adjacency slices are sorted by neighbour id at build time, so edge
   lookups binary-search in O(log deg) rather than scanning the slice. *)
let neighbor_index g u v =
  let lo = ref g.xadj.(u) and hi = ref (g.xadj.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = g.adjncy.(mid) in
    if x = v then found := mid
    else if x < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let edge_weight g u v =
  let i = neighbor_index g u v in
  if i < 0 then 0 else g.adjwgt.(i)

let mem_edge g u v = neighbor_index g u v >= 0

let iter_edges g f =
  for u = 0 to g.n - 1 do
    for i = g.xadj.(u) to g.xadj.(u + 1) - 1 do
      let v = g.adjncy.(i) in
      if u < v then f u v g.adjwgt.(i)
    done
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v w -> acc := f !acc u v w);
  !acc

let edges g =
  let l = fold_edges g (fun acc u v w -> (u, v, w) :: acc) [] in
  List.sort compare l

let components g =
  let comp = Array.make g.n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for src = 0 to g.n - 1 do
    if comp.(src) < 0 then begin
      let id = !count in
      incr count;
      comp.(src) <- id;
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        iter_neighbors g u (fun v _ ->
            if comp.(v) < 0 then begin
              comp.(v) <- id;
              Queue.add v queue
            end)
      done
    end
  done;
  (comp, !count)

let is_connected g = g.n = 0 || snd (components g) = 1

let bfs_order g src =
  let seen = Array.make g.n false in
  let order = ref [] in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    iter_neighbors g u (fun v _ ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
  done;
  Array.of_list (List.rev !order)

let induced g nodes =
  let n' = Array.length nodes in
  let old_to_new = Hashtbl.create n' in
  Array.iteri
    (fun i u ->
      if Hashtbl.mem old_to_new u then
        invalid_arg "Wgraph.induced: duplicate node";
      Hashtbl.add old_to_new u i)
    nodes;
  let el = Edge_list.create n' in
  Array.iteri
    (fun i u ->
      iter_neighbors g u (fun v w ->
          match Hashtbl.find_opt old_to_new v with
          | Some j when i < j -> Edge_list.add el i j w
          | Some _ | None -> ()))
    nodes;
  let vwgt = Array.map (fun u -> g.vwgt.(u)) nodes in
  (build ~vwgt el, Array.copy nodes)

let relabel g perm =
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= g.n || seen.(p) then
        invalid_arg "Wgraph.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  let el = Edge_list.create ~expected_edges:(n_edges g) g.n in
  iter_edges g (fun u v w -> Edge_list.add el perm.(u) perm.(v) w);
  let vwgt = Array.make g.n 0 in
  Array.iteri (fun u p -> vwgt.(p) <- g.vwgt.(u)) perm;
  build ~vwgt el

let validate g =
  let fail fmt = Format.kasprintf failwith fmt in
  if Array.length g.xadj <> g.n + 1 then fail "xadj length";
  if g.xadj.(0) <> 0 then fail "xadj.(0) <> 0";
  for u = 0 to g.n - 1 do
    if g.xadj.(u) > g.xadj.(u + 1) then fail "xadj not monotone at %d" u
  done;
  let m2 = Array.length g.adjncy in
  if g.xadj.(g.n) <> m2 then fail "xadj.(n) <> |adjncy|";
  if Array.length g.adjwgt <> m2 then fail "adjwgt length";
  if Array.length g.vwgt <> g.n then fail "vwgt length";
  Array.iter (fun w -> if w < 0 then fail "negative vwgt") g.vwgt;
  Array.iter (fun w -> if w < 0 then fail "negative adjwgt") g.adjwgt;
  for u = 0 to g.n - 1 do
    iter_neighbors g u (fun v w ->
        if v < 0 || v >= g.n then fail "neighbor out of range at %d" u;
        if v = u then fail "self loop at %d" u;
        if edge_weight g v u <> w then
          fail "asymmetric edge (%d, %d)" u v)
  done

let equal a b =
  a.n = b.n && a.vwgt = b.vwgt && edges a = edges b

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (n_edges g);
  for u = 0 to g.n - 1 do
    Format.fprintf ppf "  %d (w=%d):" u g.vwgt.(u);
    iter_neighbors g u (fun v w -> Format.fprintf ppf " %d/%d" v w);
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let summary g =
  Printf.sprintf "n=%d m=%d vwgt=%d ewgt=%d" g.n (n_edges g)
    (total_node_weight g) (total_edge_weight g)

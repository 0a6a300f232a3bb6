(* The full-scan refiner: the constrained greedy + FM refinement without
   boundary caches. Every quantity is recomputed where the production
   refiner reads a cache:

   - the state holds only labels, the k x k bandwidth matrix, loads,
     member counts and the scalar totals, all built through [Metrics];
   - connectivity is a neighbour sweep per query;
   - [best_target] always runs the general O(k^2) scan;
   - greedy sweeps visit every node;
   - FM seeding on large graphs recomputes the active predicate per node.

   Every call allocates its own scratch (state, bucket, lock and move
   arrays), which is the cost model the boundary refiner's bench rows
   are timed against. It consumes the same rng draws in the same order
   as {!Ppnpart_partition.Refine_constrained.refine}, so the two must
   return bit-identical partitions. *)

open Ppnpart_graph
open Ppnpart_partition
module Check = Ppnpart_check.Check

type state = {
  g : Wgraph.t;
  c : Types.constraints;
  part : int array;
  bw : int array array;
  load : int array;
  members : int array;
  mutable bw_excess : int;
  mutable res_excess : int;
  mutable cut : int;
}

let excess_over bound v = if v > bound then v - bound else 0

let init g (c : Types.constraints) part =
  let k = c.Types.k in
  let members = Array.make k 0 in
  Array.iter (fun p -> members.(p) <- members.(p) + 1) part;
  {
    g;
    c;
    part = Array.copy part;
    bw = Metrics.bandwidth_matrix g ~k part;
    load = Metrics.part_resources g ~k part;
    members;
    bw_excess = Metrics.bandwidth_excess g c part;
    res_excess = Metrics.resource_excess g c part;
    cut = Metrics.cut g part;
  }

(* With checks installed, diff the incremental totals against a
   from-scratch recount at the sites where the production refiner
   validates its [Part_state]. *)
let validate ~site st =
  if Check.enabled () then
    Check.totals ~site st.g st.c ~part:st.part ~bw:st.bw ~load:st.load
      ~members:st.members ~cut:st.cut ~bw_excess:st.bw_excess
      ~res_excess:st.res_excess

let connectivity st conn u =
  Array.fill conn 0 st.c.Types.k 0;
  Wgraph.iter_neighbors st.g u (fun v w ->
      conn.(st.part.(v)) <- conn.(st.part.(v)) + w)

let move_deltas st u t conn =
  let c = st.c in
  let p = st.part.(u) in
  let bmax = c.Types.bmax and rmax = c.Types.rmax in
  let d_bw = ref 0 in
  for q = 0 to c.Types.k - 1 do
    if q <> p && q <> t && conn.(q) <> 0 then
      d_bw :=
        !d_bw
        + excess_over bmax (st.bw.(p).(q) - conn.(q))
        - excess_over bmax st.bw.(p).(q)
        + excess_over bmax (st.bw.(t).(q) + conn.(q))
        - excess_over bmax st.bw.(t).(q)
  done;
  let pt = st.bw.(p).(t) in
  let pt' = pt - conn.(t) + conn.(p) in
  d_bw := !d_bw + excess_over bmax pt' - excess_over bmax pt;
  let w_u = Wgraph.node_weight st.g u in
  let d_res =
    excess_over rmax (st.load.(p) - w_u)
    - excess_over rmax st.load.(p)
    + excess_over rmax (st.load.(t) + w_u)
    - excess_over rmax st.load.(t)
  in
  (!d_bw, d_res, conn.(p) - conn.(t))

let apply_move st u t conn =
  let p = st.part.(u) in
  let d_bw, d_res, d_cut = move_deltas st u t conn in
  for q = 0 to st.c.Types.k - 1 do
    if q <> p && q <> t && conn.(q) <> 0 then begin
      st.bw.(p).(q) <- st.bw.(p).(q) - conn.(q);
      st.bw.(q).(p) <- st.bw.(p).(q);
      st.bw.(t).(q) <- st.bw.(t).(q) + conn.(q);
      st.bw.(q).(t) <- st.bw.(t).(q)
    end
  done;
  let pt' = st.bw.(p).(t) - conn.(t) + conn.(p) in
  st.bw.(p).(t) <- pt';
  st.bw.(t).(p) <- pt';
  let w_u = Wgraph.node_weight st.g u in
  st.load.(p) <- st.load.(p) - w_u;
  st.load.(t) <- st.load.(t) + w_u;
  st.members.(p) <- st.members.(p) - 1;
  st.members.(t) <- st.members.(t) + 1;
  st.part.(u) <- t;
  st.bw_excess <- st.bw_excess + d_bw;
  st.res_excess <- st.res_excess + d_res;
  st.cut <- st.cut + d_cut

let violation st =
  Metrics.normalized_violation st.c ~bw_excess:st.bw_excess
    ~res_excess:st.res_excess

let goodness st = { Metrics.violation = violation st; cut_value = st.cut }

(* Best (violation, cut) target of [u]; a singleton may only move when
   that strictly reduces the violation. *)
let best_target st conn u =
  let p = st.part.(u) in
  let best_t = ref (-1) in
  let best_v = ref max_int and best_cut = ref max_int in
  let singleton = st.members.(p) = 1 in
  let cur_v = if singleton then violation st else max_int in
  for t = 0 to st.c.Types.k - 1 do
    if t <> p then begin
      let d_bw, d_res, d_cut = move_deltas st u t conn in
      let v =
        Metrics.normalized_violation st.c
          ~bw_excess:(st.bw_excess + d_bw)
          ~res_excess:(st.res_excess + d_res)
      in
      let cut' = st.cut + d_cut in
      if
        ((not singleton) || v < cur_v)
        && (v < !best_v || (v = !best_v && cut' < !best_cut))
      then begin
        best_v := v;
        best_cut := cut';
        best_t := t
      end
    end
  done;
  (!best_v, !best_cut, !best_t)

let greedy_sweeps max_passes rng st =
  let n = Wgraph.n_nodes st.g in
  let conn = Array.make st.c.Types.k 0 in
  let order = Array.init n (fun i -> i) in
  let moved = ref true and passes = ref 0 in
  while !moved && !passes < max_passes do
    moved := false;
    incr passes;
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    for i = 0 to n - 1 do
      let u = order.(i) in
      connectivity st conn u;
      let cur_violation = violation st in
      let v, cut', t = best_target st conn u in
      if t >= 0 && (v < cur_violation || (v = cur_violation && cut' < st.cut))
      then begin
        apply_move st u t conn;
        moved := true
      end
    done
  done

let exact_fallback_limit = 512
let violation_cap = 32

let rollback st conn moves_u moves_from ~from_move ~to_move =
  for i = to_move - 1 downto from_move do
    connectivity st conn moves_u.(i);
    apply_move st moves_u.(i) moves_from.(i) conn
  done

let fm_pass st =
  let g = st.g in
  let n = Wgraph.n_nodes g in
  let cut_cap = ref 1 in
  for u = 0 to n - 1 do
    cut_cap := max !cut_cap (Wgraph.weighted_degree g u)
  done;
  let cut_cap = !cut_cap in
  let scale = (2 * cut_cap) + 3 in
  let clamp lo hi v = if v < lo then lo else if v > hi then hi else v in
  let conn = Array.make st.c.Types.k 0 in
  let best_move u =
    connectivity st conn u;
    let v, cut', t = best_target st conn u in
    if t < 0 then None
    else begin
      let vq = clamp (-violation_cap) violation_cap (violation st - v) in
      let cq = clamp (-cut_cap) cut_cap (st.cut - cut') in
      Some ((vq * scale) + cq, t)
    end
  in
  let max_gain = (violation_cap + 1) * scale in
  let bucket = Bucket.create ~n ~max_gain in
  let locked = Array.make n false in
  let moves_u = Array.make (max n 1) (-1) in
  let moves_from = Array.make (max n 1) (-1) in
  let n_moves = ref 0 in
  let start = goodness st in
  let best = ref start and best_prefix = ref 0 in
  let rmax = st.c.Types.rmax in
  for u = 0 to n - 1 do
    let p = st.part.(u) in
    let active =
      n <= exact_fallback_limit || st.load.(p) > rmax
      ||
      let ed = ref 0 in
      Wgraph.iter_neighbors g u (fun v w ->
          if st.part.(v) <> p then ed := !ed + w);
      !ed > 0
    in
    if active then
      match best_move u with
      | Some (gain, _) -> Bucket.insert bucket u gain
      | None -> ()
  done;
  let pops = ref 0 in
  let pop_budget = (20 * (n + 1)) + (2 * max_gain) in
  let stall_limit =
    if n <= exact_fallback_limit then n else min 512 (max 32 (n / 64))
  in
  let continue = ref true in
  while
    !continue && !n_moves < n && !pops < pop_budget
    && !n_moves - !best_prefix < stall_limit
  do
    incr pops;
    match Bucket.pop_max bucket with
    | None -> continue := false
    | Some (u, stored) -> (
      match best_move u with
      | None -> ()
      | Some (fresh, _) when fresh < stored -> Bucket.insert bucket u fresh
      | Some (_, t) ->
        moves_u.(!n_moves) <- u;
        moves_from.(!n_moves) <- st.part.(u);
        apply_move st u t conn;
        locked.(u) <- true;
        incr n_moves;
        let now = goodness st in
        if Metrics.compare_goodness now !best < 0 then begin
          best := now;
          best_prefix := !n_moves
        end;
        Wgraph.iter_neighbors g u (fun v _ ->
            if not locked.(v) then begin
              if Bucket.mem bucket v then Bucket.remove bucket v;
              match best_move v with
              | Some (gain, _) -> Bucket.insert bucket v gain
              | None -> ()
            end))
  done;
  rollback st conn moves_u moves_from ~from_move:!best_prefix ~to_move:!n_moves;
  validate ~site:"fm_pass.rollback" st;
  Metrics.compare_goodness !best start < 0

let exact_fm_pass st =
  let n = Wgraph.n_nodes st.g in
  let conn = Array.make st.c.Types.k 0 in
  let locked = Array.make n false in
  let moves_u = Array.make (max n 1) (-1) in
  let moves_from = Array.make (max n 1) (-1) in
  let n_moves = ref 0 in
  let start = goodness st in
  let best = ref start and best_prefix = ref 0 in
  let continue = ref true in
  while !continue && !n_moves < n do
    let chosen = ref None in
    for u = 0 to n - 1 do
      if not locked.(u) then begin
        connectivity st conn u;
        let v, cut', t = best_target st conn u in
        if t >= 0 then
          match !chosen with
          | Some (_, _, v', cut'') when v' < v || (v' = v && cut'' <= cut') ->
            ()
          | _ -> chosen := Some (u, t, v, cut')
      end
    done;
    match !chosen with
    | None -> continue := false
    | Some (u, t, _, _) ->
      moves_u.(!n_moves) <- u;
      moves_from.(!n_moves) <- st.part.(u);
      connectivity st conn u;
      apply_move st u t conn;
      locked.(u) <- true;
      incr n_moves;
      let now = goodness st in
      if Metrics.compare_goodness now !best < 0 then begin
        best := now;
        best_prefix := !n_moves
      end
  done;
  rollback st conn moves_u moves_from ~from_move:!best_prefix ~to_move:!n_moves;
  validate ~site:"exact_pass.rollback" st;
  Metrics.compare_goodness !best start < 0

let refine ?(max_passes = 16) rng g (c : Types.constraints) part0 =
  let n = Wgraph.n_nodes g in
  Types.check_partition ~n ~k:c.Types.k part0;
  let st = init g c part0 in
  let rounds = ref 0 and improving = ref true in
  while !improving && !rounds < max_passes do
    incr rounds;
    greedy_sweeps max_passes rng st;
    improving := fm_pass st;
    if (not !improving) && n <= exact_fallback_limit then
      improving := exact_fm_pass st
  done;
  validate ~site:"refine.constrained" st;
  (Array.copy st.part, goodness st)

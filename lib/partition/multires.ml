open Ppnpart_graph

type constraints = { k : int; bmax : int; rmax : int array }

let constraints ~k ~bmax ~rmax =
  if k < 1 then invalid_arg "Multires.constraints: k < 1";
  if bmax < 0 then invalid_arg "Multires.constraints: bmax < 0";
  if Array.length rmax = 0 then
    invalid_arg "Multires.constraints: empty budget vector";
  Array.iter
    (fun r ->
      if r <= 0 then invalid_arg "Multires.constraints: non-positive budget")
    rmax;
  { k; bmax; rmax = Array.copy rmax }

let dims c = Array.length c.rmax

let validate_requirements c rvec =
  let d = dims c in
  Array.iter
    (fun row ->
      if Array.length row <> d then
        invalid_arg "Multires: requirement vector of wrong length";
      Array.iter
        (fun x ->
          if x < 0 then invalid_arg "Multires: negative requirement")
        row)
    rvec

let part_loads c rvec part =
  let d = dims c in
  let loads = Array.make_matrix c.k d 0 in
  Array.iteri
    (fun u p ->
      for j = 0 to d - 1 do
        loads.(p).(j) <- loads.(p).(j) + rvec.(u).(j)
      done)
    part;
  loads

(* Normalized (parts-per-thousand of the budget) overshoot of one part's
   load vector. *)
let load_excess c load =
  let acc = ref 0 in
  for j = 0 to dims c - 1 do
    let over = load.(j) - c.rmax.(j) in
    if over > 0 then acc := !acc + 1 + (over * 1000 / c.rmax.(j))
  done;
  !acc

let resource_excess c rvec part =
  Array.fold_left
    (fun acc load -> acc + load_excess c load)
    0 (part_loads c rvec part)

let scalar_constraints c = Types.constraints ~k:c.k ~bmax:c.bmax ~rmax:0
(* rmax unused for bandwidth-only checks below *)

let bandwidth_excess_norm g c part =
  let sc = { (scalar_constraints c) with Types.bmax = c.bmax } in
  let raw = Metrics.bandwidth_excess g sc part in
  if raw = 0 then 0 else 1 + (raw * 1000 / max 1 c.bmax)

let feasible g c rvec part =
  bandwidth_excess_norm g c part = 0 && resource_excess c rvec part = 0

let violation g c rvec part =
  bandwidth_excess_norm g c part + resource_excess c rvec part

let scalarize ?(scale = 1000) c rvec =
  validate_requirements c rvec;
  let d = dims c in
  let weight_of row =
    let m = ref 0 in
    for j = 0 to d - 1 do
      let w = ((row.(j) * scale) + c.rmax.(j) - 1) / c.rmax.(j) in
      if w > !m then m := w
    done;
    !m
  in
  (Array.map weight_of rvec, scale)

let repair ?(max_passes = 16) rng g c rvec part0 =
  validate_requirements c rvec;
  let n = Wgraph.n_nodes g in
  Types.check_partition ~n ~k:c.k part0;
  let part = Array.copy part0 in
  let d = dims c in
  let loads = part_loads c rvec part in
  let bw = Metrics.bandwidth_matrix g ~k:c.k part in
  let members = Array.make c.k 0 in
  Array.iter (fun p -> members.(p) <- members.(p) + 1) part;
  let cut = ref (Metrics.cut g part) in
  let excess_over v = if v > c.bmax then v - c.bmax else 0 in
  let bw_excess_raw = ref 0 in
  for p = 0 to c.k - 1 do
    for q = p + 1 to c.k - 1 do
      bw_excess_raw := !bw_excess_raw + excess_over bw.(p).(q)
    done
  done;
  let res_excess = ref (resource_excess c rvec part) in
  let conn = Array.make c.k 0 in
  let norm_bw raw = if raw = 0 then 0 else 1 + (raw * 1000 / max 1 c.bmax) in
  (* Deltas of moving u from p to t. *)
  let move_deltas u t =
    let p = part.(u) in
    let d_bw = ref 0 in
    for q = 0 to c.k - 1 do
      if q <> p && q <> t && conn.(q) <> 0 then
        d_bw :=
          !d_bw
          + excess_over (bw.(p).(q) - conn.(q))
          - excess_over bw.(p).(q)
          + excess_over (bw.(t).(q) + conn.(q))
          - excess_over bw.(t).(q)
    done;
    let pt' = bw.(p).(t) - conn.(t) + conn.(p) in
    d_bw := !d_bw + excess_over pt' - excess_over bw.(p).(t);
    let old_res = load_excess c loads.(p) + load_excess c loads.(t) in
    let lp = Array.copy loads.(p) and lt = Array.copy loads.(t) in
    for j = 0 to d - 1 do
      lp.(j) <- lp.(j) - rvec.(u).(j);
      lt.(j) <- lt.(j) + rvec.(u).(j)
    done;
    let d_res = load_excess c lp + load_excess c lt - old_res in
    let d_cut = conn.(p) - conn.(t) in
    (!d_bw, d_res, d_cut)
  in
  let apply u t =
    let p = part.(u) in
    let d_bw, d_res, d_cut = move_deltas u t in
    for q = 0 to c.k - 1 do
      if q <> p && q <> t && conn.(q) <> 0 then begin
        bw.(p).(q) <- bw.(p).(q) - conn.(q);
        bw.(q).(p) <- bw.(p).(q);
        bw.(t).(q) <- bw.(t).(q) + conn.(q);
        bw.(q).(t) <- bw.(t).(q)
      end
    done;
    let pt' = bw.(p).(t) - conn.(t) + conn.(p) in
    bw.(p).(t) <- pt';
    bw.(t).(p) <- pt';
    for j = 0 to d - 1 do
      loads.(p).(j) <- loads.(p).(j) - rvec.(u).(j);
      loads.(t).(j) <- loads.(t).(j) + rvec.(u).(j)
    done;
    members.(p) <- members.(p) - 1;
    members.(t) <- members.(t) + 1;
    part.(u) <- t;
    bw_excess_raw := !bw_excess_raw + d_bw;
    res_excess := !res_excess + d_res;
    cut := !cut + d_cut
  in
  let order = Array.init n (fun i -> i) in
  let shuffle () =
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done
  in
  let moved = ref true in
  let passes = ref 0 in
  while !moved && !passes < max_passes do
    moved := false;
    incr passes;
    shuffle ();
    Array.iter
      (fun u ->
        let p = part.(u) in
        if members.(p) > 1 && c.k > 1 then begin
          Array.fill conn 0 c.k 0;
          Wgraph.iter_neighbors g u (fun v w ->
              conn.(part.(v)) <- conn.(part.(v)) + w);
          let cur = (norm_bw !bw_excess_raw + !res_excess, !cut) in
          let best = ref None in
          for t = 0 to c.k - 1 do
            if t <> p then begin
              let d_bw, d_res, d_cut = move_deltas u t in
              let cand =
                ( norm_bw (!bw_excess_raw + d_bw) + (!res_excess + d_res),
                  !cut + d_cut )
              in
              if cand < cur then
                match !best with
                | Some (_, c') when c' <= cand -> ()
                | _ -> best := Some (t, cand)
            end
          done;
          match !best with
          | Some (t, _) ->
            apply u t;
            moved := true
          | None -> ()
        end)
      order
  done;
  let ok = norm_bw !bw_excess_raw = 0 && !res_excess = 0 in
  (part, ok)

let partition ~solver ?(seed = 0) g c rvec =
  validate_requirements c rvec;
  let n = Wgraph.n_nodes g in
  if Array.length rvec <> n then
    invalid_arg "Multires.partition: requirement matrix length mismatch";
  let vwgt, rmax_scalar = scalarize c rvec in
  (* Rebuild the graph with the scalarized node weights. *)
  let el = Edge_list.create ~expected_edges:(Wgraph.n_edges g) n in
  Wgraph.iter_edges g (fun u v w -> Edge_list.add el u v w);
  let scalar_g = Wgraph.build ~vwgt el in
  let scalar_c = Types.constraints ~k:c.k ~bmax:c.bmax ~rmax:rmax_scalar in
  let part = solver scalar_g scalar_c in
  Types.check_partition ~n ~k:c.k part;
  let rng = Random.State.make [| seed; 0x6d72 |] in
  repair rng g c rvec part

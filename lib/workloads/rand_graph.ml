let log_src = Logs.Src.create "ppnpart.workloads" ~doc:"Workload generators"

open Ppnpart_graph

let uniform rng (lo, hi) =
  if lo > hi || lo < 0 then invalid_arg "Rand_graph: bad weight range";
  lo + Random.State.int rng (hi - lo + 1)

let gnm ?(connected = true) ?(vw_range = (1, 1)) ?(ew_range = (1, 1)) rng ~n
    ~m =
  if n < 1 then invalid_arg "Rand_graph.gnm: n < 1";
  let max_m = n * (n - 1) / 2 in
  if m > max_m then invalid_arg "Rand_graph.gnm: too many edges";
  if connected && m < n - 1 then
    invalid_arg "Rand_graph.gnm: too few edges for a connected graph";
  let el = Edge_list.create ~expected_edges:m n in
  let present = Hashtbl.create (2 * m) in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem present key) then begin
      Hashtbl.add present key ();
      Edge_list.add el u v (uniform rng ew_range);
      true
    end
    else false
  in
  if connected then begin
    (* Random spanning tree: attach each node (in shuffled order) to a
       random earlier node. *)
    let order = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    for i = 1 to n - 1 do
      let parent = order.(Random.State.int rng i) in
      ignore (add order.(i) parent)
    done
  end;
  while Hashtbl.length present < m do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    ignore (add u v)
  done;
  let vwgt = Array.init n (fun _ -> uniform rng vw_range) in
  Wgraph.build ~vwgt el

let layered ?(vw_range = (1, 1)) ?(ew_range = (1, 1)) ?(skip_prob = 0.1) rng
    ~layers ~width =
  if layers < 1 || width < 1 then invalid_arg "Rand_graph.layered: bad sizes";
  let n = layers * width in
  let node l i = (l * width) + i in
  let el = Edge_list.create n in
  let present = Hashtbl.create (4 * n) in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem present key) then begin
      Hashtbl.add present key ();
      Edge_list.add el u v (uniform rng ew_range)
    end
  in
  let has_in = Array.make n false in
  for l = 0 to layers - 2 do
    for i = 0 to width - 1 do
      let fanout = 1 + Random.State.int rng 3 in
      for _ = 1 to fanout do
        let j = Random.State.int rng width in
        add (node l i) (node (l + 1) j);
        has_in.(node (l + 1) j) <- true
      done;
      if l + 2 < layers && Random.State.float rng 1.0 < skip_prob then begin
        let j = Random.State.int rng width in
        add (node l i) (node (l + 2) j);
        has_in.(node (l + 2) j) <- true
      end
    done
  done;
  (* Every non-first-layer node needs at least one producer. *)
  for l = 1 to layers - 1 do
    for i = 0 to width - 1 do
      if not has_in.(node l i) then
        add (node (l - 1) (Random.State.int rng width)) (node l i)
    done
  done;
  let vwgt = Array.init n (fun _ -> uniform rng vw_range) in
  Wgraph.build ~vwgt el

let rmat ?(vw_range = (1, 1)) ?(ew_range = (1, 1))
    ?(probabilities = (0.57, 0.19, 0.19, 0.05)) rng ~scale ~m =
  if scale < 1 then invalid_arg "Rand_graph.rmat: scale < 1";
  if scale > 31 then invalid_arg "Rand_graph.rmat: scale > 31";
  let a, b, c, d = probabilities in
  if abs_float (a +. b +. c +. d -. 1.0) > 1e-6 then
    invalid_arg "Rand_graph.rmat: probabilities must sum to 1";
  let n = 1 lsl scale in
  if m > n * (n - 1) / 2 then invalid_arg "Rand_graph.rmat: too many edges";
  (* Million-node instances are this generator's whole point, so the
     working set is kept below the final CSR (~4m + 2n words): exact-size
     SoA edge arrays (3m) fed straight to {!Wgraph.of_soa_edges}, and an
     open-addressing set of packed [(min lsl scale) lor max] keys
     (2m..4m words at <= 0.5 load) for the distinctness test — where the
     boxed-pair Hashtbl plus growing edge list used to cost several
     times the graph. Key 0 would be the (0,0) self loop, which is never
     stored, so it doubles as the empty slot marker. *)
  let cap =
    let c = ref 16 in
    while !c < 2 * m do
      c := !c * 2
    done;
    !c
  in
  let table = Array.make cap 0 in
  let mask = cap - 1 in
  let add_new key =
    let i = ref (key * 0x2545F4914F6CDD1D land max_int land mask) in
    while table.(!i) <> 0 && table.(!i) <> key do
      i := (!i + 1) land mask
    done;
    if table.(!i) = key then false
    else begin
      table.(!i) <- key;
      true
    end
  in
  let src = Array.make m 0
  and dst = Array.make m 0
  and wgt = Array.make m 0 in
  let count = ref 0 in
  let accept u v =
    if u <> v then begin
      let key = (min u v lsl scale) lor max u v in
      if add_new key then begin
        src.(!count) <- u;
        dst.(!count) <- v;
        wgt.(!count) <- uniform rng ew_range;
        incr count
      end
    end
  in
  let draw_edge () =
    let u = ref 0 and v = ref 0 in
    for _ = 1 to scale do
      u := !u lsl 1;
      v := !v lsl 1;
      let r = Random.State.float rng 1.0 in
      if r < a then ()
      else if r < a +. b then v := !v lor 1
      else if r < a +. b +. c then u := !u lor 1
      else begin
        u := !u lor 1;
        v := !v lor 1
      end
    done;
    (!u, !v)
  in
  (* Rejection sampling; bounded by a generous attempt budget so dense
     requests cannot loop forever on an unlucky distribution. *)
  let attempts = ref 0 in
  let max_attempts = 100 * m in
  while !count < m && !attempts < max_attempts do
    incr attempts;
    let u, v = draw_edge () in
    accept u v
  done;
  (* Top up with uniform pairs if the skewed sampler stalls (rare, dense
     corner); keeps the edge count exact. *)
  while !count < m do
    accept (Random.State.int rng n) (Random.State.int rng n)
  done;
  let vwgt = Array.init n (fun _ -> uniform rng vw_range) in
  Wgraph.of_soa_edges ~vwgt n ~src ~dst ~wgt

let random_partitionable rng ~n ~k =
  if k < 1 || n < 2 * k then
    invalid_arg "Rand_graph.random_partitionable: need n >= 2k";
  let cluster = Array.init n (fun u -> u * k / n) in
  let el = Edge_list.create n in
  let members c =
    Array.of_seq
      (Seq.filter (fun u -> cluster.(u) = c) (Seq.init n (fun i -> i)))
  in
  (* Dense, heavy clusters: a path plus random chords. *)
  for c = 0 to k - 1 do
    let nodes = members c in
    let sz = Array.length nodes in
    for i = 1 to sz - 1 do
      Edge_list.add el nodes.(i - 1) nodes.(i) (4 + Random.State.int rng 5)
    done;
    for _ = 1 to sz do
      let a = nodes.(Random.State.int rng sz)
      and b = nodes.(Random.State.int rng sz) in
      if a <> b then Edge_list.add el a b (3 + Random.State.int rng 4)
    done
  done;
  (* Sparse, light bridges between consecutive clusters. *)
  for c = 0 to k - 2 do
    let a = members c and b = members (c + 1) in
    let bridges = 1 + Random.State.int rng 2 in
    for _ = 1 to bridges do
      Edge_list.add el
        a.(Random.State.int rng (Array.length a))
        b.(Random.State.int rng (Array.length b))
        (1 + Random.State.int rng 2)
    done
  done;
  let vwgt = Array.init n (fun _ -> 5 + Random.State.int rng 16) in
  let g = Wgraph.build ~vwgt el in
  (* Constraints: the planted clustering with 25% slack. *)
  let module M = Ppnpart_partition.Metrics in
  let module T = Ppnpart_partition.Types in
  let rmax = (M.max_resource g ~k cluster * 5 / 4) + 1 in
  let bmax = (M.max_local_bandwidth g ~k cluster * 5 / 4) + 1 in
  (g, T.constraints ~k ~bmax ~rmax)

type t = {
  n : int;
  mutable src : int array;
  mutable dst : int array;
  mutable wgt : int array;
  mutable count : int;
}

let create ?(expected_edges = 16) n =
  if n < 0 then invalid_arg "Edge_list.create: negative node count";
  let cap = max 1 expected_edges in
  {
    n;
    src = Array.make cap 0;
    dst = Array.make cap 0;
    wgt = Array.make cap 0;
    count = 0;
  }

let n_nodes t = t.n

let grow t =
  let cap = 2 * Array.length t.src in
  let extend a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 t.count;
    a'
  in
  t.src <- extend t.src;
  t.dst <- extend t.dst;
  t.wgt <- extend t.wgt

let add t u v w =
  if u < 0 || u >= t.n then invalid_arg "Edge_list.add: node u out of range";
  if v < 0 || v >= t.n then invalid_arg "Edge_list.add: node v out of range";
  if w < 0 then invalid_arg "Edge_list.add: negative weight";
  if t.count = Array.length t.src then grow t;
  t.src.(t.count) <- u;
  t.dst.(t.count) <- v;
  t.wgt.(t.count) <- w;
  t.count <- t.count + 1

let add_all t l = List.iter (fun (u, v, w) -> add t u v w) l

let unsafe_of_soa n ~src ~dst ~wgt =
  { n; src; dst; wgt; count = Array.length src }

(* The one normalizer: counting sort of both orientations into CSR rows,
   then an in-place int-key sort and merge per row that sums parallel
   edges and compacts left (the write pointer never overtakes the read
   pointer). Self loops never enter a row. *)
let to_csr t =
  let n = t.n and m = t.count in
  let src = t.src and dst = t.dst and wgt = t.wgt in
  let xadj = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let u = src.(e) and v = dst.(e) in
    if u <> v then begin
      xadj.(u + 1) <- xadj.(u + 1) + 1;
      xadj.(v + 1) <- xadj.(v + 1) + 1
    end
  done;
  for i = 0 to n - 1 do
    xadj.(i + 1) <- xadj.(i) + xadj.(i + 1)
  done;
  let m2 = xadj.(n) in
  let adjncy = Array.make m2 0 in
  let adjwgt = Array.make m2 0 in
  let cursor = Array.sub xadj 0 n in
  for e = 0 to m - 1 do
    let u = src.(e) and v = dst.(e) in
    if u <> v then begin
      adjncy.(cursor.(u)) <- v;
      adjwgt.(cursor.(u)) <- wgt.(e);
      cursor.(u) <- cursor.(u) + 1;
      adjncy.(cursor.(v)) <- u;
      adjwgt.(cursor.(v)) <- wgt.(e);
      cursor.(v) <- cursor.(v) + 1
    end
  done;
  let wp = ref 0 in
  let lo = ref 0 in
  for u = 0 to n - 1 do
    let hi = xadj.(u + 1) in
    Int_sort.sort_pairs adjncy adjwgt ~lo:!lo ~len:(hi - !lo);
    let i = ref !lo in
    while !i < hi do
      let v = adjncy.(!i) in
      let acc = ref adjwgt.(!i) in
      incr i;
      while !i < hi && adjncy.(!i) = v do
        acc := !acc + adjwgt.(!i);
        incr i
      done;
      adjncy.(!wp) <- v;
      adjwgt.(!wp) <- !acc;
      incr wp
    done;
    lo := hi;
    xadj.(u + 1) <- !wp
  done;
  if !wp = m2 then (xadj, adjncy, adjwgt)
  else (xadj, Array.sub adjncy 0 !wp, Array.sub adjwgt 0 !wp)

let normalized t =
  let xadj, adjncy, adjwgt = to_csr t in
  let out = Array.make (Array.length adjncy / 2) (0, 0, 0) in
  let k = ref 0 in
  for u = 0 to t.n - 1 do
    for i = xadj.(u) to xadj.(u + 1) - 1 do
      let v = adjncy.(i) in
      if u < v then begin
        out.(!k) <- (u, v, adjwgt.(i));
        incr k
      end
    done
  done;
  out

let log_src = Logs.Src.create "ppnpart.graph" ~doc:"Graph serialization and I/O"

let buf_add = Buffer.add_string

(* Readers promise "@raise Failure" and nothing else, but the
   constructors they finish with ([Edge_list.add], [Wgraph.build])
   signal their own checks — negative weights, mostly — with
   [Invalid_argument]. Daemon request handling catches the one
   documented type and replies with an error frame; an undocumented
   [Invalid_argument] leaking through would kill the connection
   instead. Funnel them here. *)
let failure_only ~reader f =
  try f () with Invalid_argument msg -> failwith (reader ^ ": " ^ msg)

(* Tokenize a line into ints, skipping extra whitespace. *)
let ints_of_line line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter_map (fun s ->
         let s = String.trim s in
         if s = "" then None
         else
           match int_of_string_opt s with
           | Some i -> Some i
           | None -> failwith ("Graph_io: not an integer: " ^ s))

(* ------------------------------------------------------------------ *)
(* The METIS reader (DESIGN.md §6.9).                                  *)
(* ------------------------------------------------------------------ *)

(* [Builder]: the CSR accumulator behind the METIS reader. Rows arrive
   in node order and each mention is range/self-loop checked on
   arrival. The whole-graph checks — duplicates, adjacency and weight
   symmetry, negative weights — are {!Wgraph.of_csr}'s single O(n + m)
   validation over the sorted slices; only when it rejects does
   [diagnose] walk the graph again, to name the first defect in the
   order and words this reader has always used. *)
module Builder = struct
  type t = {
    n : int;
    m_decl : int option;
    vwgt : int array;
    xadj : int array;
    mutable adjncy : int array;
    mutable adjwgt : int array;
    mutable m2 : int;  (* directed mentions recorded so far *)
    mutable next_u : int;  (* rows completed *)
  }

  let fail_f fmt = Printf.ksprintf failwith fmt

  let create ?m_decl n =
    if n < 0 then failwith "Graph_io.of_metis: bad header";
    let cap =
      (* Start from the declared size when it is sane, but never trust a
         hostile header with a huge allocation: growth is amortized. *)
      match m_decl with
      | Some m when m > 0 -> max 64 (min (2 * m) (1 lsl 22))
      | _ -> 64
    in
    {
      n;
      m_decl;
      vwgt = Array.make n 1;
      xadj = Array.make (n + 1) 0;
      adjncy = Array.make cap 0;
      adjwgt = Array.make cap 0;
      m2 = 0;
      next_u = 0;
    }

  let rows_done t = t.next_u

  let push t v w =
    if t.m2 >= Array.length t.adjncy then begin
      let cap = max 64 (2 * Array.length t.adjncy) in
      let a = Array.make cap 0 and b = Array.make cap 0 in
      Array.blit t.adjncy 0 a 0 t.m2;
      Array.blit t.adjwgt 0 b 0 t.m2;
      t.adjncy <- a;
      t.adjwgt <- b
    end;
    t.adjncy.(t.m2) <- v;
    t.adjwgt.(t.m2) <- w;
    t.m2 <- t.m2 + 1

  (* One mention [v] (0-based) of weight [w] in the current row. *)
  let mention t v w =
    let u = t.next_u in
    if v < 0 || v >= t.n then
      fail_f "Graph_io.of_metis: neighbour %d of node %d out of range"
        (v + 1) (u + 1);
    if v = u then fail_f "Graph_io.of_metis: self loop on node %d" (u + 1);
    push t v w

  let set_vwgt t w = t.vwgt.(t.next_u) <- w

  let end_row t =
    if t.next_u >= t.n then
      invalid_arg "Graph_io.Builder.end_row: all rows already added";
    t.next_u <- t.next_u + 1;
    t.xadj.(t.next_u) <- t.m2

  let pair_name u v =
    let a = min u v and b = max u v in
    Printf.sprintf "%d-%d" (a + 1) (b + 1)

  (* Error path only, over sorted slices: duplicates in any row, then
     symmetry in row order (a binary search into the mirror slice per
     entry), then negative edge and node weights. Raises on the first
     defect found. *)
  let diagnose t ~adjncy ~adjwgt =
    let xadj = t.xadj in
    for u = 0 to t.n - 1 do
      for i = xadj.(u) + 1 to xadj.(u + 1) - 1 do
        if adjncy.(i) = adjncy.(i - 1) then
          fail_f "Graph_io.of_metis: duplicate adjacency entry for edge %s"
            (pair_name u adjncy.(i))
      done
    done;
    let mirror_index u v =
      (* Position of [u] in [v]'s slice, or -1. *)
      let lo = ref xadj.(v) and hi = ref (xadj.(v + 1) - 1) in
      let found = ref (-1) in
      while !found < 0 && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let x = adjncy.(mid) in
        if x = u then found := mid
        else if x < u then lo := mid + 1
        else hi := mid - 1
      done;
      !found
    in
    for u = 0 to t.n - 1 do
      for i = xadj.(u) to xadj.(u + 1) - 1 do
        let v = adjncy.(i) in
        let j = mirror_index u v in
        if j < 0 then
          fail_f
            "Graph_io.of_metis: asymmetric adjacency: edge %s is listed on \
             one endpoint only"
            (pair_name u v);
        if u < v && adjwgt.(i) <> adjwgt.(j) then
          fail_f "Graph_io.of_metis: asymmetric weight on edge %s (%d vs %d)"
            (pair_name u v)
            adjwgt.(i) adjwgt.(j)
      done
    done;
    if Array.exists (fun w -> w < 0) adjwgt then
      failwith "Graph_io.of_metis: Edge_list.add: negative weight";
    if Array.exists (fun w -> w < 0) t.vwgt then
      failwith "Graph_io.of_metis: Wgraph.build: negative vwgt"

  let finish t =
    if t.next_u < t.n then
      fail_f "Graph_io.of_metis: expected %d node lines, got %d" t.n
        t.next_u;
    let n = t.n and xadj = t.xadj in
    let adjncy =
      if Array.length t.adjncy = t.m2 then t.adjncy
      else Array.sub t.adjncy 0 t.m2
    in
    let adjwgt =
      if Array.length t.adjwgt = t.m2 then t.adjwgt
      else Array.sub t.adjwgt 0 t.m2
    in
    (* Sort each slice by neighbour id. Rows emitted by [to_metis] (and
       by every generator in this repo) are already ascending, so the
       common case is a pure scan. *)
    for u = 0 to n - 1 do
      let lo = xadj.(u) and hi = xadj.(u + 1) in
      let sorted = ref true in
      for i = lo + 1 to hi - 1 do
        if adjncy.(i) <= adjncy.(i - 1) then sorted := false
      done;
      if not !sorted then Int_sort.sort_pairs adjncy adjwgt ~lo ~len:(hi - lo)
    done;
    let g =
      try Wgraph.of_csr ~vwgt:t.vwgt ~n ~xadj ~adjncy ~adjwgt ()
      with Invalid_argument msg ->
        diagnose t ~adjncy ~adjwgt;
        failwith ("Graph_io.of_metis: " ^ msg)
    in
    (match t.m_decl with
    | Some m_decl when Wgraph.n_edges g <> m_decl ->
      fail_f "Graph_io.of_metis: declared %d edges, found %d" m_decl
        (Wgraph.n_edges g)
    | _ -> ());
    g
end

(* [Rows]: a resumable cursor over METIS text fed in arbitrary pieces.
   Complete lines are tokenized in place (incomplete trailing lines
   wait in a carry buffer for the next [feed]), each finished adjacency
   row is pushed into a {!Builder}, and [finish] runs the deferred
   whole-graph validation. Tokenizing allocates only on error paths. *)
module Rows = struct
  type phase =
    | Header
    | Fields  (* header seen, waiting for node rows *)
    | Done of int  (* all rows seen; counts surplus non-blank lines *)

  type t = {
    mutable phase : phase;
    mutable n : int;
    mutable m_decl : int;
    mutable has_vsize : bool;
    mutable has_vwgt : bool;
    mutable has_ewgt : bool;
    mutable builder : Builder.t option;
    pending : Buffer.t;
    mutable finished : bool;
  }

  let create () =
    {
      phase = Header;
      n = 0;
      m_decl = 0;
      has_vsize = false;
      has_vwgt = false;
      has_ewgt = false;
      builder = None;
      pending = Buffer.create 256;
      finished = false;
    }

  let header t =
    match t.phase with Header -> None | _ -> Some (t.n, t.m_decl)

  let rows_done t =
    match t.builder with None -> 0 | Some b -> Builder.rows_done b

  (* Tokenize every complete line in [text.[lo .. hi - 1]], advancing
     the parse state: blank and [%] comment lines are skipped, and the
     all-decimal token fast path accumulates in place. *)
  let process t text lo hi =
    let pos = ref lo in
    let is_hspace c = c = ' ' || c = '\t' || c = '\r' in
    let skip_hspace () =
      while !pos < hi && is_hspace text.[!pos] do
        incr pos
      done
    in
    (* Advance to the first token of the next non-blank, non-comment
       line; false at the end of the piece. *)
    let rec next_line () =
      skip_hspace ();
      if !pos >= hi then false
      else
        match text.[!pos] with
        | '\n' ->
          incr pos;
          next_line ()
        | '%' ->
          while !pos < hi && text.[!pos] <> '\n' do
            incr pos
          done;
          next_line ()
        | _ -> true
    in
    let at_eol () =
      skip_hspace ();
      !pos >= hi || text.[!pos] = '\n'
    in
    (* The token at the cursor as an int. Anything but a plain decimal
       of at most 18 digits (signs, hex/underscore forms, garbage) falls
       back to [int_of_string], which decides acceptance. Callers
       guarantee [not (at_eol ())]. *)
    let token_int () =
      let start = !pos in
      let v = ref 0 and digits = ref 0 and plain = ref true in
      while
        !pos < hi && (not (is_hspace text.[!pos])) && text.[!pos] <> '\n'
      do
        let c = text.[!pos] in
        if c >= '0' && c <= '9' then begin
          v := (!v * 10) + (Char.code c - Char.code '0');
          incr digits
        end
        else plain := false;
        incr pos
      done;
      if !plain && !digits > 0 && !digits <= 18 then !v
      else begin
        let s = String.sub text start (!pos - start) in
        match int_of_string_opt s with
        | Some i -> i
        | None -> failwith ("Graph_io: not an integer: " ^ s)
      end
    in
    while next_line () do
      match t.phase with
      | Header ->
        let h1 = token_int () in
        if at_eol () then failwith "Graph_io.of_metis: bad header";
        let h2 = token_int () in
        if not (at_eol ()) then begin
          let fmt = token_int () in
          if not (at_eol ()) then failwith "Graph_io.of_metis: bad header";
          t.has_vsize <- fmt / 100 mod 10 = 1;
          t.has_vwgt <- fmt / 10 mod 10 = 1;
          t.has_ewgt <- fmt mod 10 = 1
        end;
        if h1 < 0 then failwith "Graph_io.of_metis: bad header";
        t.n <- h1;
        t.m_decl <- h2;
        t.builder <- Some (Builder.create ~m_decl:h2 h1);
        t.phase <- (if h1 = 0 then Done 0 else Fields)
      | Fields ->
        let b = Option.get t.builder in
        let u = Builder.rows_done b in
        if t.has_vsize then begin
          if at_eol () then
            failwith "Graph_io.of_metis: missing vertex size";
          ignore (token_int ())
        end;
        if t.has_vwgt then begin
          if at_eol () then
            failwith "Graph_io.of_metis: missing vertex weight";
          Builder.set_vwgt b (token_int ())
        end;
        while not (at_eol ()) do
          let v = token_int () in
          if t.has_ewgt then begin
            if at_eol () then
              failwith
                (Printf.sprintf
                   "Graph_io.of_metis: neighbour of node %d without a weight"
                   (u + 1));
            Builder.mention b (v - 1) (token_int ())
          end
          else Builder.mention b (v - 1) 1
        done;
        Builder.end_row b;
        if Builder.rows_done b = t.n then t.phase <- Done 0
      | Done extra ->
        (* Surplus line: count it for the message and skip to its
           end. *)
        t.phase <- Done (extra + 1);
        while !pos < hi && text.[!pos] <> '\n' do
          incr pos
        done
    done

  let feed t s =
    if t.finished then invalid_arg "Graph_io.Rows.feed: already finished";
    let slen = String.length s in
    if slen > 0 then begin
      let lo =
        if Buffer.length t.pending = 0 then 0
        else
          match String.index_opt s '\n' with
          | None ->
            Buffer.add_string t.pending s;
            slen
          | Some i ->
            Buffer.add_substring t.pending s 0 (i + 1);
            let line = Buffer.contents t.pending in
            Buffer.clear t.pending;
            process t line 0 (String.length line);
            i + 1
      in
      if lo < slen then
        match String.rindex_from_opt s (slen - 1) '\n' with
        | Some j when j >= lo ->
          process t s lo (j + 1);
          if j + 1 < slen then
            Buffer.add_substring t.pending s (j + 1) (slen - j - 1)
        | _ -> Buffer.add_substring t.pending s lo (slen - lo)
    end

  let finish t =
    if t.finished then
      invalid_arg "Graph_io.Rows.finish: already finished";
    if Buffer.length t.pending > 0 then begin
      let line = Buffer.contents t.pending in
      Buffer.clear t.pending;
      process t line 0 (String.length line)
    end;
    t.finished <- true;
    match t.phase with
    | Header -> failwith "Graph_io.of_metis: empty input"
    | Fields ->
      failwith
        (Printf.sprintf "Graph_io.of_metis: expected %d node lines, got %d"
           t.n
           (Builder.rows_done (Option.get t.builder)))
    | Done extra ->
      if extra > 0 then
        failwith
          (Printf.sprintf
             "Graph_io.of_metis: expected %d node lines, got %d" t.n
             (t.n + extra))
      else Builder.finish (Option.get t.builder)
end

let of_metis text =
  let r = Rows.create () in
  Rows.feed r text;
  Rows.finish r

(* Row-aligned chunked serialization: the feeding side of the
   incremental reader. Emits the same bytes as {!to_metis}, cut at node
   row boundaries, without ever holding the whole text. *)
(* The decimal digits of [i] appended to [b] through the 20-byte
   [scratch] (enough for max_int), the bytes [string_of_int] gives
   without its string per number (the unchecked writes stay inside
   [scratch]: at most 19 digits). Graph ids and weights are never
   negative; a negative [i] takes the allocating path. *)
let add_int b scratch i =
  if i < 0 then Buffer.add_string b (string_of_int i)
  else begin
    let p = ref 20 and x = ref i in
    while !p = 20 || !x > 0 do
      decr p;
      Bytes.unsafe_set scratch !p (Char.unsafe_chr (48 + (!x mod 10)));
      x := !x / 10
    done;
    Buffer.add_subbytes b scratch !p (20 - !p)
  end

let to_metis_chunks ?(rows_per_chunk = 4096) g emit =
  if rows_per_chunk < 1 then
    invalid_arg "Graph_io.to_metis_chunks: rows_per_chunk < 1";
  let n = Wgraph.n_nodes g in
  let b = Buffer.create 65536 and scratch = Bytes.create 20 in
  add_int b scratch n;
  Buffer.add_char b ' ';
  add_int b scratch (Wgraph.n_edges g);
  Buffer.add_string b " 011\n";
  for u = 0 to n - 1 do
    add_int b scratch (Wgraph.node_weight g u);
    Wgraph.iter_neighbors g u (fun v w ->
        Buffer.add_char b ' ';
        add_int b scratch (v + 1);
        Buffer.add_char b ' ';
        add_int b scratch w);
    Buffer.add_char b '\n';
    if (u + 1) mod rows_per_chunk = 0 && u + 1 < n then begin
      emit (Buffer.contents b);
      Buffer.clear b
    end
  done;
  emit (Buffer.contents b)

let to_metis g =
  let text = ref "" in
  to_metis_chunks ~rows_per_chunk:max_int g (fun s -> text := s);
  !text

let to_adjacency_matrix g =
  let n = Wgraph.n_nodes g in
  let b = Buffer.create 1024 in
  buf_add b (string_of_int n);
  Buffer.add_char b '\n';
  for u = 0 to n - 1 do
    if u > 0 then Buffer.add_char b ' ';
    buf_add b (string_of_int (Wgraph.node_weight g u))
  done;
  Buffer.add_char b '\n';
  let mat = Array.make_matrix n n 0 in
  Wgraph.iter_edges g (fun u v w ->
      mat.(u).(v) <- w;
      mat.(v).(u) <- w);
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if v > 0 then Buffer.add_char b ' ';
      buf_add b (string_of_int mat.(u).(v))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let of_adjacency_matrix text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | n_line :: vw_line :: rows -> (
    match ints_of_line n_line with
    | [ n ] ->
      let vwgt = Array.of_list (ints_of_line vw_line) in
      if Array.length vwgt <> n then
        failwith "Graph_io.of_adjacency_matrix: bad weight row";
      if List.length rows <> n then
        failwith "Graph_io.of_adjacency_matrix: bad row count";
      let mat =
        Array.of_list
          (List.map (fun row -> Array.of_list (ints_of_line row)) rows)
      in
      Array.iter
        (fun row ->
          if Array.length row <> n then
            failwith "Graph_io.of_adjacency_matrix: ragged row")
        mat;
      for u = 0 to n - 1 do
        if mat.(u).(u) <> 0 then
          failwith "Graph_io.of_adjacency_matrix: nonzero diagonal";
        for v = u + 1 to n - 1 do
          if mat.(u).(v) <> mat.(v).(u) then
            failwith "Graph_io.of_adjacency_matrix: asymmetric matrix"
        done
      done;
      failure_only ~reader:"Graph_io.of_adjacency_matrix" (fun () ->
          let el = Edge_list.create n in
          for u = 0 to n - 1 do
            for v = u + 1 to n - 1 do
              if mat.(u).(v) <> 0 then Edge_list.add el u v mat.(u).(v)
            done
          done;
          Wgraph.build ~vwgt el)
    | _ -> failwith "Graph_io.of_adjacency_matrix: bad size line")
  | _ -> failwith "Graph_io.of_adjacency_matrix: truncated input"

(* A small qualitative palette; parts beyond its length cycle. *)
let palette =
  [| "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#b07aa1"; "#76b7b2";
     "#edc948"; "#ff9da7"; "#9c755f"; "#bab0ac" |]

let to_dot ?partition ?(label = "") ?(weighted = true) g =
  let b = Buffer.create 2048 in
  buf_add b "graph g {\n";
  if label <> "" then buf_add b (Printf.sprintf "  label=%S;\n" label);
  buf_add b "  node [style=filled, fillcolor=white, shape=circle];\n";
  let max_w =
    let m = ref 1 in
    for u = 0 to Wgraph.n_nodes g - 1 do
      if Wgraph.node_weight g u > !m then m := Wgraph.node_weight g u
    done;
    !m
  in
  let emit_node u =
    let w = Wgraph.node_weight g u in
    (* Node radius proportional to weight, as in the paper's figures. *)
    let width = 0.4 +. (0.8 *. float_of_int w /. float_of_int max_w) in
    let lbl = if weighted then Printf.sprintf "%d\\nw=%d" u w
      else string_of_int u
    in
    let color =
      match partition with
      | None -> "white"
      | Some p -> palette.(p.(u) mod Array.length palette)
    in
    buf_add b
      (Printf.sprintf "    n%d [label=\"%s\", width=%.2f, fillcolor=\"%s\"];\n"
         u lbl width color)
  in
  (match partition with
  | None ->
    for u = 0 to Wgraph.n_nodes g - 1 do
      emit_node u
    done
  | Some p ->
    let k = Array.fold_left max 0 p + 1 in
    for part = 0 to k - 1 do
      buf_add b
        (Printf.sprintf "  subgraph cluster_%d {\n    label=\"FPGA %d\";\n"
           part part);
      for u = 0 to Wgraph.n_nodes g - 1 do
        if p.(u) = part then emit_node u
      done;
      buf_add b "  }\n"
    done);
  Wgraph.iter_edges g (fun u v w ->
      if weighted then
        buf_add b (Printf.sprintf "  n%d -- n%d [label=\"%d\"];\n" u v w)
      else buf_add b (Printf.sprintf "  n%d -- n%d;\n" u v));
  buf_add b "}\n";
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

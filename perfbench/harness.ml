(* The OCaml half of the repository benchmark; run.py launches it.

     harness.exe gen   -w WORKLOAD -s SEED -d DIR
         generate the workload's inputs into DIR: METIS files, spec.json
         (constraints, the daemon edit cycles) and, for stream_rmat, the
         sequential-streamer feasibility witness.
     harness.exe check -w WORKLOAD -s SEED -d DIR
         output checker: answers one JSON line per request line on stdin
         (see [check_main]).
     harness.exe trace -w WORKLOAD -s SEED -d DIR
                       (--ppnpart EXE | --latency-ms M)
         the traced in-process run: repeats the workload's operations
         with harness spans around the public calls of each layer and
         prints the per-layer metrics as one JSON object.

   Every generator takes the workload seed; the programs under test see
   only the files and requests written from it. *)

open Ppnpart_graph
open Ppnpart_partition
module Gp = Ppnpart_core.Gp
module Config = Ppnpart_core.Config
module Run_report = Ppnpart_core.Run_report
module Rand_graph = Ppnpart_workloads.Rand_graph
module Json = Ppnpart_server.Json
module Protocol = Ppnpart_server.Protocol
module Service = Ppnpart_server.Service
module Obs = Ppnpart_obs.Obs
module Registry = Ppnpart_obs.Metrics_registry

(* --- workloads --- *)

type instance = { name : string; graph : Wgraph.t; c : Types.constraints }

(* The bench's [constraints_for]: rmax = 4/3 of the balanced load,
   bmax = W_e / 2k. *)
let stream_constraints g k =
  Types.constraints ~k
    ~rmax:((Wgraph.total_node_weight g / k * 4 / 3) + 1)
    ~bmax:((Wgraph.total_edge_weight g / (2 * k)) + 1)

let rmat_instances seed =
  let rng = Random.State.make [| 0x5354; 18; seed |] in
  let g =
    Rand_graph.rmat ~vw_range:(1, 8) ~ew_range:(1, 9) rng ~scale:18
      ~m:(4 lsl 18)
  in
  [ { name = "rmat18"; graph = g; c = stream_constraints g 16 } ]

let daemon_instances seed =
  List.init 2 (fun i ->
      let rng = Random.State.make [| 0xDA; i; seed |] in
      let g, c = Rand_graph.random_partitionable rng ~n:2000 ~k:4 in
      { name = Printf.sprintf "g%d" i; graph = g; c })

let instances workload seed =
  match workload with
  | "stream_rmat" -> rmat_instances seed
  | "daemon_edits" -> daemon_instances seed
  | w -> failwith ("unknown workload " ^ w)

(* The configuration of [ppnpart partition --mode stream -j JOBS] (its
   other flags at their defaults) and of the daemon's partition
   request. *)
let cli_config ~jobs = { Config.default with Config.mode = Config.Stream; jobs }

let daemon_config seed = { Config.default with Config.seed; jobs = 1 }

(* One daemon request cycle: nine single-op edit batches that leave the
   graph as they found it (a node weight up and back down, a non-edge
   added and removed, twice), then a report read as step [report_step].
   Cycles are templates indexed by [j]; a connection walks them modulo
   [n_templates]. *)
let n_templates = 64
let report_step = 9

(* Bytes of METIS text per submit-rows frame (run.py uses the same). *)
let upload_piece = 8192

let cycle_ops seed gi (g : Wgraph.t) j =
  let rng = Random.State.make [| 0xED; gi; j; seed |] in
  let n = Wgraph.n_nodes g in
  let node () = Random.State.int rng n in
  let rec non_edge () =
    let u = node () and v = node () in
    if u <> v && not (Wgraph.mem_edge g u v) then (min u v, max u v)
    else non_edge ()
  in
  let a = node () and b = node () in
  let wa = Wgraph.node_weight g a and wb = Wgraph.node_weight g b in
  let u1, v1 = non_edge () and u2, v2 = non_edge () in
  Graph_edit.
    [ Set_node_weight (a, wa + 2); Set_node_weight (a, wa + 1);
      Set_node_weight (a, wa); Add_edge (u1, v1, 1); Remove_edge (u1, v1);
      Set_node_weight (b, wb + 1); Set_node_weight (b, wb);
      Add_edge (u2, v2, 1); Remove_edge (u2, v2) ]

let op_json = function
  | Graph_edit.Set_node_weight (u, w) ->
    Printf.sprintf {|{"op":"set_node_weight","node":%d,"w":%d}|} u w
  | Graph_edit.Add_edge (u, v, w) ->
    Printf.sprintf {|{"op":"add_edge","u":%d,"v":%d,"w":%d}|} u v w
  | Graph_edit.Remove_edge (u, v) ->
    Printf.sprintf {|{"op":"remove_edge","u":%d,"v":%d}|} u v
  | op -> invalid_arg ("op_json: " ^ Graph_edit.op_name op)

(* --- small helpers --- *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let json_of_fields fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
  ^ "}"

let jnum x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let jint = string_of_int
let jbool = string_of_bool
let jstr s = Printf.sprintf "%S" s

let violation_ratio (c : Types.constraints) (q : Metrics.quality) =
  let ratio x bound =
    if bound = max_int then 0. else float_of_int x /. float_of_int bound
  in
  Float.max
    (ratio q.Metrics.max_resources c.Types.rmax)
    (ratio q.Metrics.max_bandwidth c.Types.bmax)

let feasible_q (q : Metrics.quality) =
  q.Metrics.res_excess = 0 && q.Metrics.bw_excess = 0

(* The answer's cut over the cut of the block labelling u -> u*k/n: the
   planted clustering of the daemon graphs, an id-range split of the
   R-MAT graph. A per-instance reference keeps the figure comparable
   across seeds. *)
let cut_ratio (g : Wgraph.t) k part =
  let n = Wgraph.n_nodes g in
  let block = Metrics.cut g (Array.init n (fun u -> u * k / n)) in
  float_of_int (Metrics.cut g part) /. float_of_int (max block 1)

let labels_digest part =
  Digest.to_hex
    (Digest.string (String.concat " " (Array.to_list (Array.map string_of_int part))))

(* --- gen --- *)

let gen_main workload seed dir =
  let insts = instances workload seed in
  let inst_json i =
    let file = i.name ^ ".graph" in
    let oc = open_out_bin (Filename.concat dir file) in
    Graph_io.to_metis_chunks i.graph (output_string oc);
    close_out oc;
    json_of_fields
      [ ("name", jstr i.name); ("file", jstr file);
        ("n", jint (Wgraph.n_nodes i.graph));
        ("m", jint (Wgraph.n_edges i.graph));
        ("ew_total", jint (Wgraph.total_edge_weight i.graph));
        ("k", jint i.c.Types.k); ("bmax", jint i.c.Types.bmax);
        ("rmax", jint i.c.Types.rmax) ]
  in
  let fields =
    [ ("workload", jstr workload); ("seed", jint seed);
      ("instances", "[" ^ String.concat "," (List.map inst_json insts) ^ "]")
    ]
  in
  let extra =
    match workload with
    | "stream_rmat" ->
      (* The sequential streamer on the same graph: when it is feasible,
         an infeasible CLI answer is a defect of the path the CLI takes,
         not an unsatisfiable instance. *)
      let i = List.hd insts in
      let part, _ = Stream.partition i.graph i.c in
      let q = Metrics.quality i.graph i.c part in
      [ ( "witness",
          json_of_fields
            [ ("feasible", jbool (feasible_q q)); ("cut", jint q.Metrics.cut) ]
        ) ]
    | "daemon_edits" ->
      let cycles gi i =
        "["
        ^ String.concat ","
            (List.init n_templates (fun j ->
                 "["
                 ^ String.concat ","
                     (List.map
                        (fun op -> jstr (op_json op))
                        (cycle_ops seed gi i.graph j))
                 ^ "]"))
        ^ "]"
      in
      [ ("partition_seed", jint seed);
        ("cycles", "[" ^ String.concat "," (List.mapi cycles insts) ^ "]") ]
    | _ -> []
  in
  let oc = open_out_bin (Filename.concat dir "spec.json") in
  output_string oc (json_of_fields (fields @ extra));
  output_char oc '\n';
  close_out oc

(* --- check --- *)

(* The CLI's result row: [name cut time max_res[*] max_bw[*]]. *)
let parse_table_row stdout_text =
  let lines = String.split_on_char '\n' stdout_text in
  (* The row right under the dashed separator. *)
  let rec after_rule = function
    | l :: next :: _ when String.length l > 3 && String.sub l 0 3 = "---" ->
      Some next
    | _ :: rest -> after_rule rest
    | [] -> None
  in
  let row = after_rule lines in
  match row with
  | None -> Error "no GP row in the CLI table"
  | Some l -> (
    let cells = List.filter (( <> ) "") (String.split_on_char ' ' l) in
    let num s =
      let star = String.length s > 0 && s.[String.length s - 1] = '*' in
      let s = if star then String.sub s 0 (String.length s - 1) else s in
      (int_of_string s, star)
    in
    match cells with
    | [ _; cut; _; res; bw ] -> (
      try
        let cut, _ = num cut in
        let res, res_star = num res in
        let bw, bw_star = num bw in
        Ok (cut, res, res_star, bw, bw_star)
      with Failure _ -> Error ("unparsable CLI table row: " ^ l))
    | _ -> Error ("unexpected CLI table row: " ^ l))

(* [cli I LABELS STDOUT EXIT]: re-read the --save labels, recompute
   cut, max part resource and max pair bandwidth, and compare them with
   the CLI's printed table and exit code. *)
let check_cli insts idx labels_path stdout_path exit_code =
  let i = List.nth insts idx in
  let n = Wgraph.n_nodes i.graph and k = i.c.Types.k in
  match Partition_io.load ~expect_n:n ~expect_k:k labels_path with
  | exception Partition_io.Parse_error msg -> Error msg
  | exception Sys_error msg -> Error msg
  | part, _ -> (
    let q = Metrics.quality i.graph i.c part in
    let feasible = feasible_q q in
    let expected_exit = if feasible then 0 else 4 in
    match parse_table_row (Graph_io.read_file stdout_path) with
    | Error e -> Error e
    | Ok (cut, res, res_star, bw, bw_star) ->
      if exit_code <> expected_exit then
        Error
          (Printf.sprintf "exit code %d, labels say %d" exit_code expected_exit)
      else if cut <> q.Metrics.cut then
        Error (Printf.sprintf "table cut %d, labels give %d" cut q.Metrics.cut)
      else if res <> q.Metrics.max_resources then
        Error
          (Printf.sprintf "table max resource %d, labels give %d" res
             q.Metrics.max_resources)
      else if bw <> q.Metrics.max_bandwidth then
        Error
          (Printf.sprintf "table max bandwidth %d, labels give %d" bw
             q.Metrics.max_bandwidth)
      else if res_star <> (q.Metrics.res_excess > 0)
              || bw_star <> (q.Metrics.bw_excess > 0)
      then Error "table violation markers disagree with the labels"
      else
        Ok
          [ ("feasible", jbool feasible);
            ("cut_ratio", jnum (cut_ratio i.graph k part));
            ("violation_ratio", jnum (violation_ratio i.c q));
            ("digest", jstr (labels_digest part)) ])

let member_exn key j =
  match Json.member key j with
  | Some v -> v
  | None -> failwith ("reply has no " ^ key)

let int_exn key j =
  match Json.to_int (member_exn key j) with
  | Some v -> v
  | None -> failwith ("reply field " ^ key ^ " is not an int")

let labels_of_reply j =
  match Json.to_arr (member_exn "labels" j) with
  | None -> failwith "reply labels is not an array"
  | Some l ->
    Array.of_list
      (List.map
         (fun v ->
           match Json.to_int v with
           | Some x -> x
           | None -> failwith "non-integer label")
         l)

let take k l = List.filteri (fun i _ -> i < k) l

(* [daemon I FILE EVERY]: FILE holds one connection's replies in order,
   one per line as [CYCLE STEP REPLY]; the first is the setup partition
   ([-1 -1]). Every reply must be an ok frame; every labelling is
   re-scored on the graph state it answers; every EVERY-th repartition
   (and the first partition) is replayed offline and must give the same
   labels, cut and feasibility. *)
let check_daemon seed insts idx path every =
  let i = List.nth insts idx in
  let n = Wgraph.n_nodes i.graph in
  let config = daemon_config seed in
  let templates = Array.init n_templates (cycle_ops seed idx i.graph) in
  (* The graph after the first [k] ops of template [t], memoized: every
     cycle starts from the same graph, so the states repeat. *)
  let states = Hashtbl.create 256 in
  let state t k =
    if k = 0 then i.graph
    else
      match Hashtbl.find_opt states (t, k) with
      | Some g -> g
      | None ->
        let g, _, _ = Graph_edit.apply i.graph (take k templates.(t)) in
        Hashtbl.add states (t, k) g;
        g
  in
  let prev = ref [||] in
  let replies = ref 0 and answers = ref 0 and infeasible = ref 0 in
  let replayed = ref 0 and cut_ratio_sum = ref 0. and violation_sum = ref 0. in
  let check_line line =
    let cycle, step, reply =
      try Scanf.sscanf line "%d %d %s@\n" (fun c s r -> (c, s, r))
      with Scanf.Scan_failure _ | End_of_file ->
        failwith "malformed reply record"
    in
    incr replies;
    let j =
      match Json.parse reply with
      | Ok j -> j
      | Error e -> failwith ("unparsable reply: " ^ e)
    in
    if Json.member "ok" j <> Some (Json.Bool true) then
      failwith ("error frame: " ^ reply);
    if step = report_step then begin
      match Json.member "report" j with
      | Some (Json.Obj _ as r)
        when Json.member "schema" r = Some (Json.Str Run_report.schema) ->
        ()
      | _ -> failwith "report reply without a run report"
    end
    else begin
      let t = cycle mod n_templates in
      let labels = labels_of_reply j in
      if Array.length labels <> n then failwith "wrong number of labels";
      Array.iter
        (fun p ->
          if p < 0 || p >= i.c.Types.k then failwith "label out of range")
        labels;
      let g = state t (step + 1) in
      let q = Metrics.quality g i.c labels in
      let feasible = feasible_q q in
      if int_exn "cut" j <> q.Metrics.cut then
        failwith "reply cut disagrees with its labels";
      if Json.member "feasible" j <> Some (Json.Bool feasible) then
        failwith "reply feasibility disagrees with its labels";
      let sample = step < 0 || !answers mod every = 0 in
      if sample then begin
        let expect =
          if step < 0 then (Gp.partition ~config i.graph i.c).Gp.part
          else
            (Gp.repartition ~config ~prev:!prev (state t step) i.c
               [ List.nth templates.(t) step ])
              .Gp.rp_result.Gp.part
        in
        if expect <> labels then failwith "offline replay gives other labels";
        incr replayed
      end;
      incr answers;
      if not feasible then incr infeasible;
      cut_ratio_sum := !cut_ratio_sum +. cut_ratio g i.c.Types.k labels;
      violation_sum := !violation_sum +. violation_ratio i.c q;
      prev := labels
    end
  in
  match
    In_channel.with_open_bin path (fun ic ->
        let rec loop () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
            check_line line;
            loop ()
        in
        loop ())
  with
  | exception Failure msg ->
    Error (Printf.sprintf "reply %d: %s" !replies msg)
  | () ->
    Ok
      [ ("replies", jint !replies); ("answers", jint !answers);
        ("infeasible", jint !infeasible); ("replayed", jint !replayed);
        ("cut_ratio_sum", jnum !cut_ratio_sum);
        ("violation_ratio_sum", jnum !violation_sum) ]

(* Request lines on stdin, one JSON answer line each:
     cli I LABELS STDOUT EXIT
     daemon I FILE EVERY
   An answer is {"ok":true,...} or {"ok":false,"error":MSG}. *)
let check_main workload seed =
  let insts = instances workload seed in
  let answer = function
    | Ok fields -> json_of_fields (("ok", "true") :: fields)
    | Error msg -> json_of_fields [ ("ok", "false"); ("error", jstr msg) ]
  in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let result =
        match String.split_on_char ' ' (String.trim line) with
        | [ "cli"; idx; labels; out; code ] ->
          check_cli insts (int_of_string idx) labels out (int_of_string code)
        | [ "daemon"; idx; file; every ] ->
          check_daemon seed insts (int_of_string idx) file
            (int_of_string every)
        | _ -> Error ("bad request: " ^ line)
      in
      print_endline (answer result);
      loop ()
  in
  loop ()

(* --- trace --- *)

(* Harness spans go into the same capture as the program's own, around
   each public call the workload makes. *)
let span = Ppnpart_obs.Span.with_

(* How a pass wraps each public call: under a harness span (traced) or
   on the harness clock (untraced). *)
type wrap = { run : 'a. string -> (unit -> 'a) -> 'a }

let traced_wrap = { run = (fun name f -> span name f) }

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* Adds each span's total and self time (seconds) of one capture into
   [total] and [self], per span name, and returns the summed duration of
   the top-level spans. A span's self time is its duration minus what
   its child spans cover; the top-level spans of a task buffer count as
   children of the span that spawned the task (clamped at zero, since
   tasks overlap). *)
let span_times ~self ~total (cap : Obs.capture) =
  let rec walk buf =
    let stack = ref [] and top = ref 0. in
    let cover d =
      match !stack with
      | (n, s, c) :: rest -> stack := (n, s, c +. d) :: rest
      | [] -> top := !top +. d
    in
    List.iter
      (function
        | Obs.Begin { name; ts; _ } -> stack := (name, ts, 0.) :: !stack
        | Obs.End { ts; _ } -> (
          match !stack with
          | (name, start, covered) :: rest ->
            stack := rest;
            let d = float_of_int (ts - start) /. 1e6 in
            add total name d;
            add self name (Float.max 0. (d -. covered));
            cover d
          | [] -> ())
        | Obs.Child b -> cover (walk b)
        | _ -> ())
      (Obs.events buf);
    !top
  in
  walk cap.Obs.root

(* Layers whose time is read off the program's own spans, by span-name
   prefix. The other layers are timed by the harness around the call. *)
let layers =
  [ ("stream", [ "stream." ]);
    ("coarsen", [ "coarsen."; "matching." ]);
    ("initial", [ "initial."; "gp.seed." ]);
    ("refine", [ "refine." ]) ]

let layer_of name =
  match
    List.find_opt
      (fun (_, ps) -> List.exists (fun prefix -> String.starts_with ~prefix name) ps)
      layers
  with
  | Some (l, _) -> l
  | None -> "other"

let layer_self self layer =
  Hashtbl.fold
    (fun name v acc -> if layer_of name = layer then acc +. v else acc)
    self 0.

let find tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

let add_counters tbl (snap : Registry.snapshot) =
  List.iter (fun (name, v) -> add tbl name (float_of_int v)) snap.Registry.counters

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fratio a b = if b = 0. then 0. else a /. b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Per-layer metrics the counters of a capture give, shared by every
   workload. *)
let counter_metrics counters =
  let c = find counters in
  let fm_applied = c "fm.moves.applied" in
  [ ("stream.passes", c "stream.iterations" +. c "stream.chunk.passes");
    ("stream.moves", c "stream.moves" +. c "stream.chunk.moves");
    ("stream.chunks", c "stream.chunk.chunks");
    ("refine.fm_pops", c "fm.pops");
    ("refine.fm_apply_ratio", fratio fm_applied (fm_applied +. c "fm.moves.rolled_back"));
    ("refine.wave_proposals", c "refine.wave.proposals");
    ("refine.wave_commit_ratio",
     fratio (c "refine.wave.commits") (c "refine.wave.proposals"));
    ("refine.wave_rescored", c "refine.wave.rescored");
    ("gp.cycles", c "gp.cycles") ]

let layer_metrics self total =
  [ ("stream.s", layer_self self "stream");
    ("coarsen.s", layer_self self "coarsen");
    ("initial.s", layer_self self "initial");
    ("refine.s", layer_self self "refine");
    ("refine.state_init_s", find total "refine.state_init");
    ("gp.cycle_s", find total "gp.cycle") ]

(* Layers the CLI workloads do not reach. *)
let no_daemon_layers =
  List.map
    (fun n -> (n, 0.))
    [ "edit.apply_ms"; "repartition.ms"; "repartition.incremental_ratio";
      "report.encode_ms"; "server.parse_us"; "server.handle_ms";
      "server.outside_ms"; "server.response_bytes"; "server.errors" ]

let ok_frame = String.starts_with ~prefix:{|{"ok":true|}

let traced f =
  let (r, snap), cap =
    Obs.with_capture (fun () -> Registry.with_registry f)
  in
  (r, snap, cap)

(* [ppnpart partition] under bounds [c], as the end-to-end runs launch
   it; returns its exit code (-1 when killed). *)
let run_cli ~ppnpart (c : Types.constraints) ~file ~labels ~out =
  let config = cli_config ~jobs:2 in
  let args =
    [| ppnpart; "partition"; "-i"; file; "--mode";
       Config.mode_name config.Config.mode; "-j";
       string_of_int config.Config.jobs; "-k"; string_of_int c.Types.k;
       "--bmax"; string_of_int c.Types.bmax; "--rmax"; string_of_int c.Types.rmax;
       "--save"; labels |]
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process ppnpart args Unix.stdin fd Unix.stderr in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _ -> -1

(* The CLI workload. Per instance, back to back so that drift hits all
   alike: the CLI itself (untraced end to end, output checked), then in
   process what it does between start and exit (read the METIS file,
   parse, partition, save) untraced at -j 2, the partition again at
   -j 1 (the team speed-up), and the same ops traced at -j 2. *)
let trace_cli ~ppnpart specs dir =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let file name = Filename.concat dir (name ^ ".graph") in
  let out name = Filename.concat dir ("trace-" ^ name ^ ".part") in
  let op ~wrap ~jobs (name, c) =
    let text = wrap.run "bench.read" (fun () -> Graph_io.read_file (file name)) in
    let g = wrap.run "bench.parse" (fun () -> Graph_io.of_metis text) in
    let r =
      wrap.run "bench.partition" (fun () ->
          Gp.partition ~config:(cli_config ~jobs) g c)
    in
    wrap.run "bench.save" (fun () -> Partition_io.save (out name) ~k:c.Types.k r.Gp.part);
    (String.length text, g, r)
  in
  let cli_wall = ref 0. in
  let cli (name, c) =
    let labels = Filename.concat dir ("cli-" ^ name ^ ".part") in
    let stdout_path = Filename.concat dir ("cli-" ^ name ^ ".out") in
    let code, dt =
      time (fun () ->
          run_cli ~ppnpart c ~file:(file name) ~labels ~out:stdout_path)
    in
    cli_wall := !cli_wall +. dt;
    (labels, stdout_path, code)
  in
  (* Untraced base, one layer at a time on the harness clock. *)
  let clock = Hashtbl.create 8 in
  let timed name f =
    let r, dt = time f in
    Hashtbl.replace clock name (dt +. find clock name);
    r
  in
  let parse_alloc = ref 0. and bytes = ref 0 and heap_top = ref 0 in
  let wrap_f : 'a. string -> (unit -> 'a) -> 'a = fun name f ->
    if name = "bench.parse" then begin
      let a0 = alloc_words () in
      let r = timed name f in
      parse_alloc := !parse_alloc +. (alloc_words () -. a0);
      heap_top := max !heap_top (Gc.quick_stat ()).Gc.top_heap_words;
      r
    end
    else timed name f
  in
  let wrap = { run = wrap_f } in
  let self = Hashtbl.create 32 and total = Hashtbl.create 32 in
  let counters = Hashtbl.create 32 in
  let top = ref 0. and j1_s = ref 0. in
  let minor_words = ref 0 and major_collections = ref 0 in
  let base =
    List.map
      (fun ((name, c) as spec) ->
        let labels, stdout_path, code = cli spec in
        (* Each CLI invocation starts with an empty heap; so does each
           instance here, or the previous ones' garbage slows it. *)
        Gc.compact ();
        let (b, g, r), gc = Ppnpart_obs.Gc_stats.measure (fun () -> op ~wrap ~jobs:2 spec) in
        (match check_cli [ { name; graph = g; c } ] 0 labels stdout_path code with
        | Error e -> err "%s: %s" name e
        | Ok _ ->
          if fst (Partition_io.load labels) <> r.Gp.part then
            err "%s: the CLI's labels differ from the in-process run" name);
        bytes := !bytes + b;
        minor_words := !minor_words + gc.Ppnpart_obs.Gc_stats.minor_words;
        major_collections :=
          !major_collections + gc.Ppnpart_obs.Gc_stats.major_collections;
        let r1, dt =
          time (fun () -> Gp.partition ~config:(cli_config ~jobs:1) g c)
        in
        j1_s := !j1_s +. dt;
        if r1.Gp.part <> r.Gp.part then
          err "%s: labels differ between -j 1 and -j 2" name;
        let (_, _, rt), snap, cap =
          traced (fun () -> op ~wrap:traced_wrap ~jobs:2 spec)
        in
        top := !top +. span_times ~self ~total cap;
        add_counters counters snap;
        if rt.Gp.part <> r.Gp.part then err "%s: labels differ under tracing" name;
        (c, g, r))
      specs
  in
  let untraced_s = Hashtbl.fold (fun _ v acc -> acc +. v) clock 0. in
  (* Scoring the answer, as Gp does before it returns. *)
  let answers, report_s =
    time (fun () ->
        List.map (fun (c, g, (r : Gp.result)) -> (c, Metrics.quality g c r.Gp.part)) base)
  in
  let worst f = List.fold_left (fun acc (c, q) -> Float.max acc (f c q)) 0. answers in
  let cli_wall = !cli_wall in
  let n_ops = float_of_int (List.length specs) in
  let save_bytes =
    List.fold_left (fun acc (name, _) -> acc + (Unix.stat (out name)).Unix.st_size) 0 specs
  in
  let metrics =
    [ ("graph.read_s", find clock "bench.read");
      ("graph.parse_s", find clock "bench.parse");
      ("graph.parse_mb_per_s", float_of_int !bytes /. find clock "bench.parse" /. 1e6);
      ("graph.parse_alloc_mwords", !parse_alloc /. 1e6);
      ("graph.heap_top_mb",
       float_of_int (!heap_top * (Sys.word_size / 8)) /. 1e6);
      ("stream.max_load_over_rmax",
       worst (fun c q -> ratio q.Metrics.max_resources c.Types.rmax));
      ("stream.max_bw_over_bmax",
       worst (fun c q -> ratio q.Metrics.max_bandwidth c.Types.bmax));
      ("coarsen.levels",
       float_of_int (List.fold_left (fun acc (_, _, r) -> acc + r.Gp.levels) 0 base));
      ("gp.partition_s", find clock "bench.partition");
      ("exec.j2_speedup", !j1_s /. find clock "bench.partition");
      ("metrics.report_s", report_s);
      ("io.save_s", find clock "bench.save");
      ("io.save_bytes", float_of_int save_bytes);
      ("cli.outside_s", cli_wall -. untraced_s);
      ("gc.minor_mwords", float_of_int !minor_words /. n_ops /. 1e6);
      ("gc.major_collections", float_of_int !major_collections /. n_ops);
      ("trace.overhead_ratio", !top /. untraced_s);
      ("trace.coverage", !top /. cli_wall);
      ( "check.infeasible_frac",
        float_of_int (List.length (List.filter (fun (_, q) -> not (feasible_q q)) answers))
        /. n_ops ) ]
    @ no_daemon_layers @ layer_metrics self total @ counter_metrics counters
  in
  (metrics, 2 * List.length specs, List.rev !errors)

(* The daemon workload in process. The upload, first partition and
   request cycles go through [Protocol.parse] and [Service.handle] with
   one resident [Workspace], frame by frame as a daemon worker serves
   them: untraced (the base) and traced. The same edit sequence then
   runs through [Graph_edit.apply], [Gp.repartition] and
   [Run_report.of_result] called directly. *)
let trace_daemon seed insts dir ~latency_ms =
  let cycles = 20 in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let config = daemon_config seed in
  let templates =
    List.mapi (fun gi i -> Array.init n_templates (cycle_ops seed gi i.graph)) insts
  in
  (* Graph layer: the files read, then the chunked upload's reader fed
     the same pieces. *)
  let texts, read_s =
    time (fun () ->
        List.map
          (fun i -> Graph_io.read_file (Filename.concat dir (i.name ^ ".graph")))
          insts)
  in
  let pieces text =
    List.init
      ((String.length text + upload_piece - 1) / upload_piece)
      (fun p ->
        String.sub text (p * upload_piece)
          (min upload_piece (String.length text - (p * upload_piece))))
  in
  let setup_frames i text =
    let g = Json.to_string (Json.Str i.name) in
    (Printf.sprintf {|{"op":"submit-begin","graph":%s}|} g
    :: List.map
         (fun p ->
           Printf.sprintf {|{"op":"submit-rows","graph":%s,"metis":%s}|} g
             (Json.to_string (Json.Str p)))
         (pieces text))
    @ [ Printf.sprintf {|{"op":"submit-end","graph":%s}|} g;
        Printf.sprintf {|{"op":"partition","graph":%s,"k":%d,"bmax":%d,"rmax":%d,"seed":%d}|}
          g i.c.Types.k i.c.Types.bmax i.c.Types.rmax seed ]
  in
  let cycle_frames i ops =
    let g = Json.to_string (Json.Str i.name) in
    List.map
      (fun op -> Printf.sprintf {|{"op":"repartition","graph":%s,"edits":[%s]}|} g (op_json op))
      ops
    @ [ Printf.sprintf {|{"op":"report","graph":%s}|} g ]
  in
  let a0 = alloc_words () in
  let parsed, parse_s =
    time (fun () ->
        List.map
          (fun text ->
            let rows = Graph_io.Rows.create () in
            List.iter (Graph_io.Rows.feed rows) (pieces text);
            Graph_io.Rows.finish rows)
          texts)
  in
  let parse_alloc = alloc_words () -. a0 in
  let heap_top = (Gc.quick_stat ()).Gc.top_heap_words in
  List.iter2
    (fun i g -> if not (Wgraph.equal g i.graph) then err "%s: upload parses to another graph" i.name)
    insts parsed;
  let bytes = List.fold_left (fun acc t -> acc + String.length t) 0 texts in
  (* Service passes: upload and first partition, then the cycles. *)
  let start_service () =
    let svc = Service.create () and ws = Workspace.create () in
    let request ~wrap line =
      let p = wrap.run "bench.request" (fun () -> Protocol.parse line) in
      fst (wrap.run "bench.handle" (fun () -> Service.handle svc ~workspace:ws p))
    in
    List.iter2
      (fun i text ->
        List.iter
          (fun f ->
            let r = request ~wrap:{ run = (fun _ f -> f ()) } f in
            if not (ok_frame r) then err "%s: setup frame failed: %s" i.name r)
          (setup_frames i text))
      insts texts;
    request
  in
  let run_cycles request ~wrap =
    let replies = ref [] in
    let t0 = now () in
    for j = 0 to cycles - 1 do
      List.iteri
        (fun gi i ->
          let ops = (List.nth templates gi).(j mod n_templates) in
          List.iter
            (fun f -> replies := (gi, request ~wrap f) :: !replies)
            (cycle_frames i ops))
        insts
    done;
    (List.rev !replies, now () -. t0)
  in
  let parse_t = ref [] and handle_t = ref [] in
  let wrap_f : 'a. string -> (unit -> 'a) -> 'a = fun name f ->
    let r, dt = time f in
    if name = "bench.request" then parse_t := dt :: !parse_t
    else handle_t := dt :: !handle_t;
    r
  in
  let wrap = { run = wrap_f } in
  (* A warm-up pass first: the resident workspace grows to its steady
     size, as in a daemon that has served a while. *)
  ignore (run_cycles (start_service ()) ~wrap:{ run = (fun _ f -> f ()) });
  parse_t := [];
  handle_t := [];
  let request = start_service () in
  let (replies, untraced_s), gc =
    Ppnpart_obs.Gc_stats.measure (fun () -> run_cycles request ~wrap)
  in
  let request = start_service () in
  let (traced_replies, traced_s), snap, cap =
    traced (fun () -> run_cycles request ~wrap:traced_wrap)
  in
  let self = Hashtbl.create 32 and total = Hashtbl.create 32 in
  let counters = Hashtbl.create 32 in
  ignore (span_times ~self ~total cap);
  add_counters counters snap;
  let labels_of replies =
    List.filter_map
      (fun (gi, r) ->
        match Json.parse r with
        | Ok j when Json.member "labels" j <> None -> Some (gi, labels_of_reply j)
        | _ -> None)
      replies
  in
  let service_labels = labels_of replies in
  if labels_of traced_replies <> service_labels then
    err "service labels differ under tracing";
  let n_requests = List.length replies in
  let server_errors = List.length (List.filter (fun (_, r) -> not (ok_frame r)) replies) in
  (* Direct calls on the same edit sequence, from the same first
     partition; the labels must match the service's replies. *)
  let ws = Workspace.create () in
  let apply_t = ref [] and rp_t = ref [] and enc_t = ref [] and report_s = ref 0. in
  let incremental = ref 0 and answers = ref [] in
  (* The set-up partition, traced too: the multilevel pipeline
     (coarsen, initial, refine) runs here and nowhere else. *)
  let first, snap, cap =
    traced (fun () ->
        List.map
          (fun i ->
            (span "bench.partition" (fun () -> Gp.partition ~config i.graph i.c))
              .Gp.part)
          insts)
  in
  ignore (span_times ~self ~total cap);
  add_counters counters snap;
  let state = Array.of_list (List.map2 (fun i p -> (i.graph, p)) insts first) in
  let direct_labels = ref [] in
  for j = 0 to cycles - 1 do
    List.iteri
      (fun gi i ->
        List.iter
          (fun op ->
            let g, prev = state.(gi) in
            let _, dt = time (fun () -> Graph_edit.apply g [ op ]) in
            apply_t := dt :: !apply_t;
            let rp, dt =
              time (fun () -> Gp.repartition ~config ~workspace:ws ~prev g i.c [ op ])
            in
            rp_t := dt :: !rp_t;
            let r = rp.Gp.rp_result in
            let _, dt = time (fun () -> Run_report.of_result rp.Gp.rp_graph i.c r) in
            enc_t := dt :: !enc_t;
            let q, dt = time (fun () -> Metrics.quality rp.Gp.rp_graph i.c r.Gp.part) in
            report_s := !report_s +. dt;
            if rp.Gp.rp_incremental then incr incremental;
            answers := (i, q) :: !answers;
            direct_labels := (gi, r.Gp.part) :: !direct_labels;
            state.(gi) <- (rp.Gp.rp_graph, r.Gp.part))
          (List.nth templates gi).(j mod n_templates))
      insts
  done;
  if service_labels <> List.rev !direct_labels then
    err "direct repartition labels differ from the service's replies";
  (* The setup partition at -j 1 (as the daemon runs it) and -j 2. *)
  let part_at jobs =
    time (fun () ->
        List.map (fun i -> (Gp.partition ~config:{ config with Config.jobs } i.graph i.c)) insts)
  in
  let r1, j1_s = part_at 1 and r2, j2_s = part_at 2 in
  if List.map (fun r -> r.Gp.part) r1 <> List.map (fun r -> r.Gp.part) r2 then
    err "setup partition labels differ between -j 1 and -j 2";
  let answers = !answers in
  let n_answers = float_of_int (List.length answers) in
  let worst f = List.fold_left (fun acc (i, q) -> Float.max acc (f i q)) 0. answers in
  let ms xs = 1000. *. median xs in
  let parse_ms = ms !parse_t and handle_ms = ms !handle_t in
  let response_bytes =
    float_of_int (List.fold_left (fun acc (_, r) -> acc + String.length r) 0 replies)
    /. float_of_int n_requests
  in
  let metrics =
    [ ("graph.read_s", read_s); ("graph.parse_s", parse_s);
      ("graph.parse_mb_per_s", float_of_int bytes /. parse_s /. 1e6);
      ("graph.parse_alloc_mwords", parse_alloc /. 1e6);
      ("graph.heap_top_mb", float_of_int (heap_top * (Sys.word_size / 8)) /. 1e6);
      ("stream.max_load_over_rmax",
       worst (fun i q -> ratio q.Metrics.max_resources i.c.Types.rmax));
      ("stream.max_bw_over_bmax",
       worst (fun i q -> ratio q.Metrics.max_bandwidth i.c.Types.bmax));
      ("coarsen.levels",
       float_of_int (List.fold_left (fun acc r -> acc + r.Gp.levels) 0 r1));
      ("gp.partition_s", j1_s); ("exec.j2_speedup", j1_s /. j2_s);
      ("metrics.report_s", !report_s); ("io.save_s", 0.); ("io.save_bytes", 0.);
      ("cli.outside_s", 0.);
      ("edit.apply_ms", ms !apply_t); ("repartition.ms", ms !rp_t);
      ("repartition.incremental_ratio", float_of_int !incremental /. n_answers);
      ("report.encode_ms", ms !enc_t);
      ("server.parse_us", 1000. *. parse_ms); ("server.handle_ms", handle_ms);
      ("server.outside_ms", latency_ms -. parse_ms -. handle_ms);
      ("server.response_bytes", response_bytes);
      ("server.errors", float_of_int server_errors);
      ("gc.minor_mwords",
       float_of_int gc.Ppnpart_obs.Gc_stats.minor_words /. float_of_int n_requests /. 1e6);
      ("gc.major_collections",
       float_of_int gc.Ppnpart_obs.Gc_stats.major_collections /. float_of_int n_requests);
      ("trace.overhead_ratio", traced_s /. untraced_s);
      ("trace.coverage", (parse_ms +. handle_ms) /. latency_ms);
      ( "check.infeasible_frac",
        float_of_int (List.length (List.filter (fun (_, q) -> not (feasible_q q)) answers))
        /. n_answers ) ]
    @ layer_metrics self total @ counter_metrics counters
  in
  (metrics, n_requests, List.rev !errors)

(* Unit of a per-layer metric, from its name's suffix. *)
let unit_of name =
  let ends s = Filename.check_suffix name s in
  if ends "mb_per_s" then "MB/s"
  else if ends "_s" || ends ".s" then "s"
  else if ends "_ms" || ends ".ms" then "ms"
  else if ends "_us" then "us"
  else if ends "_mb" then "MB"
  else if ends "_mwords" then "Mwords"
  else if ends "_bytes" then "bytes"
  else if ends "_ratio" || ends "_frac" || ends "_speedup" || ends "coverage"
          || ends "_over_rmax" || ends "_over_bmax"
  then "1"
  else "count"

let trace_main workload seed dir ~ppnpart ~latency_ms =
  let metrics, attempted, errors =
    if workload = "daemon_edits" then
      trace_daemon seed (instances workload seed) dir ~latency_ms
    else
      (* Only names and bounds: the generated graphs would stay live
         and slow the in-process passes' GC. *)
      trace_cli ~ppnpart
        (List.map (fun i -> (i.name, i.c)) (instances workload seed))
        dir
  in
  let metrics = List.sort (fun (a, _) (b, _) -> compare a b) metrics in
  print_endline
    (json_of_fields
       [ ("attempted", jint attempted);
         ("errors", "[" ^ String.concat "," (List.map jstr errors) ^ "]");
         ( "metrics",
           json_of_fields
             (List.map
                (fun (name, v) ->
                  (name, json_of_fields [ ("value", jnum v); ("unit", jstr (unit_of name)) ]))
                metrics) ) ])

(* --- command line --- *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let req key =
    match opt key args with
    | Some v -> v
    | None ->
      prerr_endline ("harness: missing " ^ key);
      exit 2
  in
  match args with
  | _ :: "gen" :: _ ->
    gen_main (req "-w") (int_of_string (req "-s")) (req "-d")
  | _ :: "check" :: _ -> check_main (req "-w") (int_of_string (req "-s"))
  | _ :: "trace" :: _ ->
    trace_main (req "-w") (int_of_string (req "-s")) (req "-d")
      ~ppnpart:(Option.value ~default:"" (opt "--ppnpart" args))
      ~latency_ms:(Option.fold ~none:0. ~some:float_of_string (opt "--latency-ms" args))
  | _ ->
    prerr_endline "usage: harness.exe (gen|check|trace) -w WORKLOAD -s SEED -d DIR";
    exit 2

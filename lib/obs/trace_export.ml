(* Exporters over a finished capture: Chrome trace-event JSON (loads in
   chrome://tracing and Perfetto), a JSONL event stream, and aggregated
   statistics for the CLI's --stats table.

   All walks are depth-first over the buffer tree in emission order.
   Virtual track ids (vt) are assigned in walk order — root buffer is
   track 0, every task buffer gets the next free id — so ids depend only
   on the task structure, never on the domain schedule. *)

let json_value = function
  | Obs.Int i -> Json.Int i
  | Obs.Float f -> Json.Float f
  | Obs.Str s -> Json.Str s
  | Obs.Bool b -> Json.Bool b

(* An event's fields, then its args object when it has any. *)
let event fields args =
  if args = [] then Json.Obj fields
  else
    let args = List.map (fun (k, v) -> (k, json_value v)) args in
    Json.Obj (fields @ [ ("args", Json.Obj args) ])

(* --- Chrome trace-event format --- *)

let to_chrome (cap : Obs.capture) =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let line ?(args = []) fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Json.to_buffer b (event fields args)
  in
  let counter name ts value =
    line
      Json.
        [ ("name", Str name); ("ph", Str "C"); ("ts", Int ts); ("pid", Int 1);
          ("tid", Int 0); ("args", Obj [ ("value", value) ]) ]
  in
  let counter_cum : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let next_tid = ref 0 in
  let rec walk buf =
    let tid = !next_tid in
    incr next_tid;
    let track = Json.[ ("pid", Int 1); ("tid", Int tid) ] in
    line
      Json.(
        [ ("name", Str "thread_name"); ("ph", Str "M") ]
        @ track
        @ [ ( "args",
              Obj [ ("name", Str (if tid = 0 then "main" else "task")) ] ) ]);
    List.iter
      (fun (ev : Obs.event) ->
        match ev with
        | Obs.Begin { name; ts; args } ->
          line ~args
            Json.(
              [ ("name", Str name); ("cat", Str "ppnpart"); ("ph", Str "B");
                ("ts", Int ts) ]
              @ track)
        | Obs.End { ts; args } ->
          line ~args Json.([ ("ph", Str "E"); ("ts", Int ts) ] @ track)
        | Obs.Instant { name; ts; args } ->
          line ~args
            Json.(
              [ ("name", Str name); ("cat", Str "ppnpart"); ("ph", Str "i");
                ("s", Str "t"); ("ts", Int ts) ]
              @ track)
        | Obs.Count { name; ts; delta } ->
          let cum =
            delta
            + Option.value ~default:0 (Hashtbl.find_opt counter_cum name)
          in
          Hashtbl.replace counter_cum name cum;
          counter name ts (Json.Int cum)
        | Obs.Sample { name; ts; value } -> counter name ts (Json.Float value)
        | Obs.Child child -> walk child)
      (Obs.events buf)
  in
  walk cap.root;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* --- JSONL event stream --- *)

let to_jsonl (cap : Obs.capture) =
  let b = Buffer.create 65536 in
  let next_tid = ref 0 in
  let rec walk parent buf =
    let vt = !next_tid in
    incr next_tid;
    let line ?(args = []) kind fields =
      Json.to_buffer b
        (event (("ev", Json.Str kind) :: ("vt", Json.Int vt) :: fields) args);
      Buffer.add_char b '\n'
    in
    if vt > 0 then line "task" [ ("parent", Json.Int parent) ];
    List.iter
      (fun (ev : Obs.event) ->
        match ev with
        | Obs.Begin { name; ts; args } ->
          line ~args "begin" Json.[ ("name", Str name); ("ts", Int ts) ]
        | Obs.End { ts; args } -> line ~args "end" [ ("ts", Json.Int ts) ]
        | Obs.Instant { name; ts; args } ->
          line ~args "instant" Json.[ ("name", Str name); ("ts", Int ts) ]
        | Obs.Count { name; ts; delta } ->
          line "count"
            Json.[ ("name", Str name); ("ts", Int ts); ("delta", Int delta) ]
        | Obs.Sample { name; ts; value } ->
          line "sample"
            Json.[ ("name", Str name); ("ts", Int ts); ("value", Float value) ]
        | Obs.Child child -> walk vt child)
      (Obs.events buf)
  in
  walk 0 cap.root;
  Buffer.contents b

(* --- OpenMetrics text format (Prometheus-scrapable) --- *)

let sanitize_metric_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let om_name name = "ppnpart_" ^ sanitize_metric_name name

let om_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_openmetrics (snap : Metrics_registry.snapshot) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s counter\n%s_total %d\n" n n v))
    snap.counters;
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (om_float v)))
    snap.gauges;
  List.iter
    (fun (name, (h : Histogram.snapshot)) ->
      let n = om_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      Array.iter
        (fun (i, c) ->
          cum := !cum + c;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
               (om_float (Histogram.upper_bound i))
               !cum))
        h.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.count);
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (om_float h.sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.count))
    snap.histograms;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* --- aggregation --- *)

type agg = {
  spans : (string, int * int) Hashtbl.t;  (* count, total ticks *)
  counters : (string, int) Hashtbl.t;
  samples : (string, int * float * float * float) Hashtbl.t;
      (* count, min, sum, max *)
}

let aggregate (cap : Obs.capture) =
  let agg =
    {
      spans = Hashtbl.create 32;
      counters = Hashtbl.create 32;
      samples = Hashtbl.create 8;
    }
  in
  let rec walk buf =
    let stack = ref [] in
    List.iter
      (fun (ev : Obs.event) ->
        match ev with
        | Obs.Begin { name; ts; _ } -> stack := (name, ts) :: !stack
        | Obs.End { ts; _ } -> (
          match !stack with
          | (name, t0) :: tl ->
            stack := tl;
            let c, tot =
              Option.value ~default:(0, 0) (Hashtbl.find_opt agg.spans name)
            in
            Hashtbl.replace agg.spans name (c + 1, tot + (ts - t0))
          | [] -> () (* unbalanced: interrupted capture; ignore *))
        | Obs.Instant _ -> ()
        | Obs.Count { name; delta; _ } ->
          Hashtbl.replace agg.counters name
            (delta + Option.value ~default:0 (Hashtbl.find_opt agg.counters name))
        | Obs.Sample { name; value; _ } -> (
          match Hashtbl.find_opt agg.samples name with
          | None -> Hashtbl.add agg.samples name (1, value, value, value)
          | Some (c, mn, sum, mx) ->
            Hashtbl.replace agg.samples name
              (c + 1, min mn value, sum +. value, max mx value))
        | Obs.Child child -> walk child)
      (Obs.events buf)
  in
  walk cap.root;
  agg

let span_totals cap =
  let agg = aggregate cap in
  Hashtbl.fold (fun name (c, tot) acc -> (name, c, tot) :: acc) agg.spans []
  |> List.sort (fun (n1, _, t1) (n2, _, t2) ->
         match compare t2 t1 with 0 -> compare n1 n2 | c -> c)

let counter_totals cap =
  let agg = aggregate cap in
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) agg.counters []
  |> List.sort compare

let sample_stats cap =
  let agg = aggregate cap in
  Hashtbl.fold
    (fun name (c, mn, sum, mx) acc ->
      (name, c, mn, sum /. float_of_int c, mx) :: acc)
    agg.samples []
  |> List.sort compare

let pp_stats ppf (cap : Obs.capture) =
  let spans = span_totals cap in
  let counters = counter_totals cap in
  let samples = sample_stats cap in
  let fmt_ticks t =
    match cap.clock with
    | Obs.Wall -> Printf.sprintf "%.3f" (float_of_int t /. 1000.)
    | Obs.Logical -> string_of_int t
  in
  let unit_hdr =
    match cap.clock with Obs.Wall -> "ms" | Obs.Logical -> "ticks"
  in
  Format.fprintf ppf "%-36s %8s %14s %14s@." "phase" "calls"
    ("total(" ^ unit_hdr ^ ")")
    ("mean(" ^ unit_hdr ^ ")");
  List.iter
    (fun (name, count, total) ->
      let mean =
        match cap.clock with
        | Obs.Wall ->
          Printf.sprintf "%.3f"
            (float_of_int total /. 1000. /. float_of_int (max 1 count))
        | Obs.Logical -> string_of_int (total / max 1 count)
      in
      Format.fprintf ppf "%-36s %8d %14s %14s@." name count
        (fmt_ticks total) mean)
    spans;
  if counters <> [] then begin
    Format.fprintf ppf "@.%-36s %14s@." "counter" "value";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "%-36s %14d@." name v)
      counters
  end;
  if samples <> [] then begin
    Format.fprintf ppf "@.%-36s %8s %10s %10s %10s@." "histogram" "count"
      "min" "mean" "max";
    List.iter
      (fun (name, c, mn, mean, mx) ->
        Format.fprintf ppf "%-36s %8d %10.3f %10.3f %10.3f@." name c mn mean
          mx)
      samples
  end

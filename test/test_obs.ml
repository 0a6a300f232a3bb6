(* Tests for the observability subsystem (Ppnpart_obs): span nesting,
   counter aggregation across the domain pool, determinism of the merged
   trace across job counts, transparency of the disabled path, and the
   one JSON reader/printer every record goes through. *)

open Ppnpart_graph
open Ppnpart_partition
open Ppnpart_core
module Obs = Ppnpart_obs.Obs
module Span = Ppnpart_obs.Span
module Counters = Ppnpart_obs.Counters
module Trace_export = Ppnpart_obs.Trace_export
module Json = Ppnpart_obs.Json
module Pool = Ppnpart_exec.Pool
module PG = Ppnpart_workloads.Paper_graphs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let quick = Sys.getenv_opt "PPNPART_QUICK" <> None

(* --- structural invariants --- *)

(* Every buffer's Begin/End events must be balanced and well nested;
   child buffers recurse with their own fresh stack. *)
let rec check_well_nested buf =
  let depth = ref 0 in
  List.iter
    (fun (ev : Obs.event) ->
      match ev with
      | Obs.Begin _ -> incr depth
      | Obs.End _ ->
        if !depth = 0 then Alcotest.fail "End without matching Begin";
        decr depth
      | Obs.Instant _ | Obs.Count _ | Obs.Sample _ -> ()
      | Obs.Child child -> check_well_nested child)
    (Obs.events buf);
  check_int "balanced spans" 0 !depth

let test_spans_well_nested () =
  let _, cap =
    Obs.with_capture (fun () ->
        Span.with_ "outer" (fun () ->
            Span.with_ "inner" (fun () -> Counters.incr "c");
            Span.instant "marker";
            ignore
              (Pool.run ~jobs:2
                 (Array.init 4 (fun i () ->
                      Span.with_ "task" (fun () -> i * i))))))
  in
  check_well_nested cap.Obs.root

let test_span_closes_on_exception () =
  let _, cap =
    Obs.with_capture (fun () ->
        try Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ())
  in
  check_well_nested cap.Obs.root;
  let spans = Trace_export.span_totals cap in
  check_bool "errored span still recorded" true
    (List.exists (fun (n, _, _) -> n = "boom") spans)

let test_disabled_is_noop () =
  (* With no capture installed the instrumentation entry points must be
     inert: no state, no exceptions. *)
  check_bool "disabled" false (Obs.enabled ());
  Span.with_ "nope" (fun () -> Counters.incr "nope");
  Span.instant "nope";
  Counters.sample "nope" 1.0;
  check_bool "still disabled" false (Obs.enabled ())

(* --- counters across the pool --- *)

let test_counters_sum_across_pool () =
  List.iter
    (fun jobs ->
      let _, cap =
        Obs.with_capture (fun () ->
            ignore
              (Pool.run ~jobs (Array.init 16 (fun i () -> Counters.add "n" i))))
      in
      let total =
        match List.assoc_opt "n" (Trace_export.counter_totals cap) with
        | Some v -> v
        | None -> Alcotest.fail "counter missing"
      in
      check_int (Printf.sprintf "sum at jobs=%d" jobs) 120 total)
    [ 1; 4 ]

let test_uncommitted_buffers_dropped () =
  (* run_deferred + commit ~keep must discard the trace (spans AND
     counters) of speculative tasks beyond the kept prefix. *)
  let _, cap =
    Obs.with_capture (fun () ->
        let _, deferred =
          Pool.run_deferred ~jobs:4
            (Array.init 6 (fun i () ->
                 Span.with_ "spec" (fun () -> Counters.add "spec.n" 1);
                 i))
        in
        Obs.commit ~keep:2 deferred)
  in
  check_int "only kept counters" 2
    (Option.value ~default:0
       (List.assoc_opt "spec.n" (Trace_export.counter_totals cap)));
  let _, calls, _ =
    try List.find (fun (n, _, _) -> n = "spec") (Trace_export.span_totals cap)
    with Not_found -> ("spec", 0, 0)
  in
  check_int "only kept spans" 2 calls

(* --- trace determinism across job counts --- *)

let config ~jobs =
  { Config.default with Config.coarsen_target = 30; max_cycles = 20; jobs }

(* Under the logical clock the whole exported trace (structure, virtual
   tracks, timestamps) must be bit-identical for every job count. *)
let same_trace ?(max_cycles = 20) g c =
  let run jobs =
    Obs.with_capture ~clock:Obs.Logical (fun () ->
        Gp.partition
          ~config:{ (config ~jobs) with Config.max_cycles }
          g c)
  in
  let r1, cap1 = run 1 in
  let r4, cap4 = run 4 in
  check_bool "partition bit-identical" true (r1.Gp.part = r4.Gp.part);
  check_string "chrome trace bit-identical" (Trace_export.to_chrome cap1)
    (Trace_export.to_chrome cap4);
  check_string "jsonl bit-identical" (Trace_export.to_jsonl cap1)
    (Trace_export.to_jsonl cap4);
  check_string "stats bit-identical"
    (Format.asprintf "%a" Trace_export.pp_stats cap1)
    (Format.asprintf "%a" Trace_export.pp_stats cap4);
  (cap1, cap4)

let test_trace_deterministic_paper () =
  List.iter
    (fun (e : PG.experiment) ->
      ignore (same_trace e.PG.graph e.PG.constraints))
    PG.all

let test_trace_deterministic_forced_cycles () =
  (* bmax = 0 is infeasible, so the speculative waves really run and the
     prefix-commit logic (dropping buffers of discarded cycles) is
     exercised at jobs=4. *)
  let rng = Random.State.make [| 7 |] in
  let g =
    Ppnpart_workloads.Rand_graph.layered ~vw_range:(1, 9) ~ew_range:(1, 9)
      rng ~layers:12 ~width:8
  in
  (* rmax at half the total weight forbids the trivial single-part
     solution, so bmax = 0 makes the instance genuinely infeasible. *)
  let c =
    Types.constraints ~k:3 ~bmax:0 ~rmax:(Wgraph.total_node_weight g / 2)
  in
  let cap1, _ = same_trace ~max_cycles:(if quick then 6 else 20) g c in
  let spans = Trace_export.span_totals cap1 in
  let has name = List.exists (fun (n, _, _) -> n = name) spans in
  check_bool "has gp.cycle spans" true (has "gp.cycle");
  check_bool "has coarsen.level spans" true (has "coarsen.level");
  check_bool "has initial.attempt spans" true (has "initial.attempt");
  check_bool "has fm pass spans" true (has "refine.fm_pass")

let test_tracing_does_not_change_result () =
  (* Installing the sink must not perturb the algorithm. *)
  let e = PG.experiment1 in
  let plain = Gp.partition ~config:(config ~jobs:2) e.PG.graph e.PG.constraints in
  let traced, _ =
    Obs.with_capture (fun () ->
        Gp.partition ~config:(config ~jobs:2) e.PG.graph e.PG.constraints)
  in
  check_bool "same partition with and without tracing" true
    (plain.Gp.part = traced.Gp.part);
  check_bool "same history" true (plain.Gp.history = traced.Gp.history)

(* --- export format sanity --- *)

let test_chrome_trace_shape () =
  let _, cap =
    Obs.with_capture (fun () ->
        ignore (Gp.partition PG.experiment1.PG.graph PG.experiment1.PG.constraints))
  in
  let json = Trace_export.to_chrome cap in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "traceEvents envelope" true (contains "\"traceEvents\"");
  check_bool "gp.partition span present" true (contains "\"gp.partition\"");
  check_bool "has B events" true (contains "\"ph\":\"B\"");
  check_bool "has E events" true (contains "\"ph\":\"E\"");
  check_bool "report counter present" true (contains "\"metrics.report\"")

let test_string_escaping () =
  let _, cap =
    Obs.with_capture ~clock:Obs.Logical (fun () ->
        Span.instant
          ~args:(fun () -> [ ("s", Obs.Str "a\"b\\c\nd") ])
          "esc")
  in
  let json = Trace_export.to_chrome cap in
  check_bool "escaped quote" true
    (let needle = {|a\"b\\c\nd|} in
     let nl = String.length needle and jl = String.length json in
     let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
     go 0)

(* A non-finite sample or float argument must still export as JSON that
   a strict reader accepts: [null], not the [nan]/[inf] Printf gives. *)
let test_non_finite_exports () =
  let _, cap =
    Obs.with_capture ~clock:Obs.Logical (fun () ->
        Span.with_
          ~args:(fun () ->
            [ ("nan", Obs.Float Float.nan); ("inf", Obs.Float Float.infinity);
              ("ninf", Obs.Float Float.neg_infinity) ])
          "odd"
          (fun () ->
            Counters.sample "s.nan" Float.nan;
            Counters.sample "s.inf" Float.infinity))
  in
  let strict what text =
    match Json.parse text with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s is not JSON (%s): %s" what e text
  in
  strict "chrome trace" (Trace_export.to_chrome cap);
  let lines =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (Trace_export.to_jsonl cap))
  in
  check_bool "jsonl has the samples" true (List.length lines >= 4);
  List.iter (strict "jsonl line") lines

let test_metrics_report_counted_once () =
  (* Satellite of the CLI fix: one Gp.partition computes its report
     exactly once. *)
  let _, cap =
    Obs.with_capture (fun () ->
        ignore (Gp.partition PG.experiment1.PG.graph PG.experiment1.PG.constraints))
  in
  check_int "one report per run" 1
    (Option.value ~default:0
       (List.assoc_opt "metrics.report" (Trace_export.counter_totals cap)))

(* --- Json: the one reader and printer --- *)

let test_json_roundtrip () =
  let cases =
    [ "null"; "true"; "false"; "0"; "-17"; "3.5"; "\"\"";
      "\"a b\\\"c\\\\d\""; "[]"; "[1,2,3]"; "{}";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}" ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok v ->
        let s' = Json.to_string v in
        (match Json.parse s' with
        | Error e -> Alcotest.failf "reparse %S: %s" s' e
        | Ok v' -> check_bool (Printf.sprintf "roundtrip %S" s) true (v = v')))
    cases

(* Everything a lax reader would take and JSON does not, including the
   number shapes [float_of_string] accepts and the non-finite tokens. *)
let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "nul"; "{\"a\"}"; "{\"a\":1} trailing"; "'single'";
      "{\"a\":01}"; "01"; "+1"; ".5"; "1."; "-"; "1e"; "1e+"; "0x10";
      "NaN"; "nan"; "Infinity"; "-inf"; "\"\\x\""; "\"\\u00g1\"";
      "\"\\u12\""; "\"raw\ncontrol\"" ]

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_json_numbers () =
  (match Json.parse "1073741824" with
  | Ok (Json.Int i) -> check_int "big int survives" 1073741824 i
  | _ -> Alcotest.fail "1073741824 did not parse as Int");
  (match Json.parse "9007199254740993" with
  | Ok (Json.Int i) -> check_int "2^53 + 1 exact" 9007199254740993 i
  | _ -> Alcotest.fail "9007199254740993 did not parse as Int");
  check_string "int prints without dot" "42" (Json.to_string (Json.Int 42));
  check_string "negative int" "-7" (Json.to_string (Json.Int (-7)));
  (* The printer's number bytes are the reply bytes: an [Int] prints as
     Printf's [%.0f] would print the same value. *)
  let same name i =
    check_string name
      (Printf.sprintf "%.0f" (float_of_int i))
      (Json.to_string (Json.Int i))
  in
  let r = Random.State.make [| 0x15 |] in
  let two53 = 1 lsl 53 in
  for _ = 1 to 2000 do
    let i = Random.State.full_int r two53 in
    let i = if Random.State.bool r then -i else i in
    same (string_of_int i) i
  done;
  List.iter
    (fun i -> same (string_of_int i) i)
    [ 0; two53; -two53; max_int / 2048 ];
  (* A parsed -0 is the integer 0. *)
  (match Json.parse "-0" with
  | Ok (Json.Int 0 as v) -> check_string "-0 bytes" "0" (Json.to_string v)
  | _ -> Alcotest.fail "-0 did not parse as Int 0");
  (* Every finite float reads back bit-exactly (through [to_float]: an
     integral float past 1e15 prints without a point and reads back as
     an [Int] of the same value). *)
  let exact f =
    let s = Json.to_string (Json.Float f) in
    match Option.bind (Result.to_option (Json.parse s)) Json.to_float with
    | Some f' when bits_equal f f' -> ()
    | _ -> Alcotest.failf "%h printed as %s does not read back" f s
  in
  List.iter exact
    [ 3.5; -0.1; 1e-300; 1e300; (2. ** 53.) +. 2.; -.(2. ** 60.); 1. /. 3.;
      Float.pi *. 1e20; -0.; 5e-324; Float.max_float ];
  for _ = 1 to 200 do
    exact (Random.State.float r 1e6 -. 5e5)
  done;
  check_string "non-finite prints null" "[null,null,null]"
    (Json.to_string
       (Json.Arr
          [ Json.Float Float.nan; Json.Float Float.infinity;
            Json.Float Float.neg_infinity ]));
  check_bool "to_int takes an integral float" true
    (Json.to_int (Json.Float 4.0) = Some 4);
  check_bool "to_int refuses a fraction" true
    (Json.to_int (Json.Float 4.5) = None)

let test_json_string_escapes () =
  match Json.parse "\"tab\\tnl\\nu\\u0041\"" with
  | Ok (Json.Str s) -> check_string "escapes decoded" "tab\tnl\nuA" s
  | _ -> Alcotest.fail "escaped string did not parse"

(* [parse (to_string v)] is [v] with every non-finite float replaced by
   [Null]; floats compare bit for bit. Integral floats at or past 1e15
   are left out of the generator: they print without a point and read
   back as [Int] (covered by the exact-value check above). *)
let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> bits_equal x y
  | Json.Arr xs, Json.Arr ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (k', y) -> k = k' && json_equal x y) xs ys
  | _ -> a = b

let rec finite_only = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.Arr xs -> Json.Arr (List.map finite_only xs)
  | Json.Obj xs -> Json.Obj (List.map (fun (k, v) -> (k, finite_only v)) xs)
  | v -> v

let gen_json =
  let open QCheck2.Gen in
  let ascii = string_size ~gen:(char_range '\000' '\127') (int_range 0 12) in
  let any_float =
    (* Uniform over bit patterns: subnormals, NaNs and infinities too. *)
    map2
      (fun hi lo ->
        let f =
          Int64.(
            float_of_bits (logor (shift_left (of_int hi) 32) (of_int lo)))
        in
        if Float.is_integer f && Float.abs f >= 1e15 then fst (Float.frexp f)
        else f)
      (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF_FFFF)
  in
  let leaf =
    oneof
      [ pure Json.Null; map (fun b -> Json.Bool b) bool;
        map
          (fun i -> Json.Int i)
          (oneof [ int; oneofl [ min_int; max_int; 0 ] ]);
        map (fun f -> Json.Float f)
          (oneof
             [ any_float; float;
               oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0. ] ]);
        map (fun s -> Json.Str s) ascii ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [ (2, leaf);
               ( 1,
                 map
                   (fun l -> Json.Arr l)
                   (list_size (int_range 0 4) (self (n / 3))) );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair ascii (self (n / 3)))) ) ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"parse (to_string v) = v" ~count:500
    ~print:Json.to_string gen_json (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> json_equal v' (finite_only v)
      | Error _ -> false)

let () =
  Alcotest.run "obs"
    [
      ( "structure",
        [
          Alcotest.test_case "spans well nested" `Quick
            test_spans_well_nested;
          Alcotest.test_case "span closes on exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "counters sum across pool" `Quick
            test_counters_sum_across_pool;
          Alcotest.test_case "uncommitted buffers dropped" `Quick
            test_uncommitted_buffers_dropped;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "paper experiments" `Quick
            test_trace_deterministic_paper;
          Alcotest.test_case "forced V-cycles" `Quick
            test_trace_deterministic_forced_cycles;
          Alcotest.test_case "tracing transparent" `Quick
            test_tracing_does_not_change_result;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace shape" `Quick
            test_chrome_trace_shape;
          Alcotest.test_case "string escaping" `Quick test_string_escaping;
          Alcotest.test_case "metrics.report counted once" `Quick
            test_metrics_report_counted_once;
          Alcotest.test_case "non-finite numbers" `Quick
            test_non_finite_exports;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_json_roundtrip;
        ] );
    ]

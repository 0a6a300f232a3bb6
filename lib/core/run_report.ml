(* The consolidated machine-readable run report behind --report-json:
   one JSON document unifying the partition-quality record
   (Metrics.quality — the same record behind goodness, the CLI tables
   and bench rows) with the per-phase wall/GC statistics accumulated in
   the metrics registry.

   Everything is emitted in sorted, fixed order with deterministic
   number formatting, so two runs that observed the same values produce
   byte-identical documents. [~deterministic:true] additionally drops
   every field whose value is schedule- or heap-history-dependent (wall
   seconds, collection counts, promoted/major words, heap sizes),
   leaving a document that is byte-identical across [--jobs] for the
   gated-small graphs the tests use. *)

open Ppnpart_graph
open Ppnpart_partition
module Obs = Ppnpart_obs
module Json = Ppnpart_obs.Json

let schema = "ppnpart-run-report/1"

(* Registry names that depend on heap history or schedule, not on the
   algorithm: excluded under [~deterministic]. *)
let nondeterministic_name name =
  let suffixed s = Filename.check_suffix name s in
  suffixed ".major_words" || suffixed ".promoted_words"
  || suffixed ".minor_collections"
  || suffixed ".major_collections"
  || name = "gc.heap_words"

type phase = {
  name : string;
  us : Obs.Histogram.snapshot;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* Group registry entries into per-phase rows: every [<name>.us]
   histogram is a phase; its GC histograms/counters are matched by
   prefix. *)
let phases_of_snapshot (snap : Obs.Metrics_registry.snapshot) =
  let hist_sum name =
    match List.assoc_opt name snap.histograms with
    | Some (h : Obs.Histogram.snapshot) -> h.sum
    | None -> 0.
  in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.counters)
  in
  List.filter_map
    (fun (name, h) ->
      if not (Filename.check_suffix name ".us") then None
      else
        let p = Filename.chop_suffix name ".us" in
        Some
          {
            name = p;
            us = h;
            minor_words = hist_sum (p ^ ".minor_words");
            major_words = hist_sum (p ^ ".major_words");
            promoted_words = hist_sum (p ^ ".promoted_words");
            minor_collections = counter (p ^ ".minor_collections");
            major_collections = counter (p ^ ".major_collections");
          })
    snap.histograms

let quantiles (h : Obs.Histogram.snapshot) =
  List.map
    (fun (key, q) -> (key, Json.Float (Obs.Histogram.quantile h q)))
    [ ("p50", 0.50); ("p90", 0.90); ("p99", 0.99) ]

let phase_json ~deterministic p =
  Json.(
    Obj
      ([ ("name", Str p.name); ("calls", Int p.us.count);
         ("total_us", Float p.us.sum) ]
      @ quantiles p.us
      @ [ ("minor_words", Float p.minor_words) ]
      @
      if deterministic then []
      else
        [ ("major_words", Float p.major_words);
          ("promoted_words", Float p.promoted_words);
          ("minor_collections", Int p.minor_collections);
          ("major_collections", Int p.major_collections) ]))

let hist_json (h : Obs.Histogram.snapshot) =
  Json.(
    Obj
      ([ ("count", Int h.count); ("sum", Float h.sum); ("min", Float h.min);
         ("max", Float h.max) ]
      @ quantiles h))

let to_json ?(deterministic = false) ?(algo = "multilevel") ?runtime_s
    ?cycles ?levels ?(snapshot = Obs.Metrics_registry.empty_snapshot) g
    (c : Types.constraints) part =
  let q = Metrics.quality g c part in
  let ints a = Json.Arr (Array.to_list (Array.map (fun i -> Json.Int i) a)) in
  let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
  let keep name = not (deterministic && nondeterministic_name name) in
  let named f entries =
    Json.Obj
      (List.filter_map
         (fun (name, v) -> if keep name then Some (name, f v) else None)
         entries)
  in
  Json.to_string
    Json.(
      Obj
        ([ ("schema", Str schema); ("algo", Str algo);
           ( "graph",
             Obj
               [ ("nodes", Int (Wgraph.n_nodes g));
                 ("edges", Int (Wgraph.n_edges g)) ] );
           ( "constraints",
             Obj
               [ ("k", Int c.Types.k); ("bmax", Int c.Types.bmax);
                 ("rmax", Int c.Types.rmax) ] ) ]
        @ (if deterministic then []
           else opt "runtime_s" (fun t -> Float t) runtime_s)
        @ opt "cycles" (fun n -> Int n) cycles
        @ opt "levels" (fun n -> Int n) levels
        @ [ ( "quality",
              Obj
                [ ("cut", Int q.Metrics.cut);
                  ("max_bandwidth", Int q.Metrics.max_bandwidth);
                  ("bandwidth_ok", Bool (q.Metrics.bw_excess = 0));
                  ("bw_excess", Int q.Metrics.bw_excess);
                  ("max_resources", Int q.Metrics.max_resources);
                  ("resource_ok", Bool (q.Metrics.res_excess = 0));
                  ("res_excess", Int q.Metrics.res_excess);
                  ( "feasible",
                    Bool (q.Metrics.bw_excess = 0 && q.Metrics.res_excess = 0)
                  );
                  ("imbalance", Float q.Metrics.imbalance);
                  ("loads", ints q.Metrics.loads);
                  ( "bandwidth_matrix",
                    Arr (Array.to_list (Array.map ints q.Metrics.bandwidth)) )
                ] );
            ( "phases",
              Arr
                (List.map (phase_json ~deterministic)
                   (phases_of_snapshot snapshot)) );
            ("counters", named (fun v -> Int v) snapshot.counters);
            ("gauges", named (fun v -> Float v) snapshot.gauges);
            ("histograms", named hist_json snapshot.histograms) ]))

let of_result ?deterministic ?algo ?snapshot g c (r : Gp.result) =
  to_json ?deterministic ?algo ~runtime_s:r.Gp.runtime_s
    ~cycles:r.Gp.cycles_used ~levels:r.Gp.levels ?snapshot g c r.Gp.part

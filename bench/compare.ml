(* Snapshot regression gate: compare a committed BENCH_*.json baseline
   against a freshly generated one under the rule table matching its
   schema.

   usage: compare.exe [--rules smoke|partition] BASELINE CURRENT
          compare.exe --parse-only FILE...

   --parse-only strict-parses each FILE: a .jsonl file line by line (the
   bench history), anything else as one document.

   exit 0 — no rule regressed (skipped rows are fine);
   exit 1 — at least one rule regressed;
   exit 2 — broken setup: unreadable file, JSON parse error, unknown
            schema, bad usage. *)

module C = Ppnpart_bench_compare.Compare_core
module Json = Ppnpart_obs.Json

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error msg -> Error msg

let die msg =
  Printf.eprintf "compare: %s\n" msg;
  exit 2

let parse_or_die where text =
  match Json.parse text with
  | Ok j -> j
  | Error msg -> die (Printf.sprintf "%s: %s" where msg)

let load path =
  match read_file path with
  | Error msg -> die msg
  | Ok text -> parse_or_die path text

let parse_only path =
  if Filename.check_suffix path ".jsonl" then begin
    let lines =
      match read_file path with
      | Error msg -> die msg
      | Ok text -> String.split_on_char '\n' text
    in
    let parsed = ref 0 in
    List.iteri
      (fun i line ->
        if String.trim line <> "" then begin
          ignore (parse_or_die (Printf.sprintf "%s:%d" path (i + 1)) line);
          incr parsed
        end)
      lines;
    Printf.printf "parsed %s (%d lines)\n" path !parsed
  end
  else
    let schema = Option.value ~default:"?" (C.schema_of (load path)) in
    Printf.printf "parsed %s (schema %s)\n" path schema

let usage () =
  prerr_endline
    "usage: compare.exe [--rules smoke|partition] BASELINE CURRENT\n\
    \       compare.exe --parse-only FILE...";
  exit 2

let status_tag = function
  | C.Pass -> "ok  "
  | C.Regression -> "FAIL"
  | C.Skipped -> "skip"

let () =
  match Array.to_list Sys.argv with
  | _ :: "--parse-only" :: (_ :: _ as paths) -> List.iter parse_only paths
  | _ :: rest ->
    let named, files =
      match rest with
      | "--rules" :: name :: files -> (Some name, files)
      | files -> (None, files)
    in
    let base_path, cur_path =
      match files with [ b; c ] -> (b, c) | _ -> usage ()
    in
    let baseline = load base_path and current = load cur_path in
    let rules =
      match named with
      | Some "smoke" -> C.smoke_rules
      | Some "partition" -> C.partition_rules
      | Some other -> die (Printf.sprintf "unknown rule set %S" other)
      | None -> (
        match Option.bind (C.schema_of current) C.rules_for_schema with
        | Some rules -> rules
        | None ->
          die
            (Printf.sprintf "%s: unknown or missing schema; pass --rules"
               cur_path))
    in
    let rows = C.compare_snapshots ~rules ~baseline ~current in
    List.iter
      (fun (r : C.row) ->
        Printf.printf "%s %-55s %s\n" (status_tag r.C.status) r.C.concrete
          r.C.detail)
      rows;
    let regressions =
      List.length (List.filter (fun r -> r.C.status = C.Regression) rows)
    in
    Printf.printf "%d rules, %d regressions\n" (List.length rows) regressions;
    if regressions > 0 then exit 1
  | [] -> usage ()

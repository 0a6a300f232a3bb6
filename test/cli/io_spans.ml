(* Checks a traced `ppnpart partition -i FILE --save LABELS` run: the
   JSON-lines capture must hold the io.read, io.parse and io.save spans,
   and on standard output the "wrote LABELS" line must still follow the
   assignment line.

   Usage: io_spans <trace.jsonl> <stdout file>. Prints PASS and exits 0,
   or prints what is missing and exits 1 — wired into `dune runtest`
   from test/cli/dune. *)

let die fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt

let read path = In_channel.with_open_bin path In_channel.input_all

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  if Array.length Sys.argv < 3 then die "usage: io_spans <trace.jsonl> <stdout>";
  let trace = read Sys.argv.(1) and out = read Sys.argv.(2) in
  List.iter
    (fun span ->
      if not (contains trace (Printf.sprintf "\"name\":%S" span)) then
        die "span %s missing from the capture" span)
    [ "io.read"; "io.parse"; "io.save" ];
  let rec after_assignment = function
    | line :: rest when String.starts_with ~prefix:"assignment:" line -> rest
    | _ :: rest -> after_assignment rest
    | [] -> die "no assignment line"
  in
  (match after_assignment (String.split_on_char '\n' out) with
  | "wrote io_spans.part" :: _ -> ()
  | line :: _ -> die "line after the assignment is %S" line
  | [] -> die "nothing after the assignment");
  print_endline "PASS"

(* Tests for the .pn front-end language: lexer, parser, elaboration. *)

module Lang = Ppnpart_lang.Lang
module Lexer = Ppnpart_lang.Lexer
module Ast = Ppnpart_lang.Ast
module Poly = Ppnpart_poly

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse_ok text =
  match Lang.parse_program text with
  | Ok stmts -> stmts
  | Error e -> Alcotest.failf "unexpected error: %a" Lang.pp_error e

let parse_err text =
  match Lang.parse_program text with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> e

(* --- Lexer --- *)

let test_lexer_tokens () =
  let toks = List.map fst (Lexer.tokenize "param N = 64 # comment\nstmt") in
  check_bool "sequence" true
    (toks = Lexer.[ KW_PARAM; IDENT "N"; EQUAL; INT 64; KW_STMT; EOF ])

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ (Lexer.IDENT "a", p1); (Lexer.IDENT "b", p2); (Lexer.EOF, _) ] ->
    check_int "a line" 1 p1.Ast.line;
    check_int "a col" 1 p1.Ast.col;
    check_int "b line" 2 p2.Ast.line;
    check_int "b col" 3 p2.Ast.col
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_two_char_ops () =
  let toks = List.map fst (Lexer.tokenize "0 .. 1 <= 2 >= 3") in
  check_bool "ops" true
    (toks = Lexer.[ INT 0; DOTDOT; INT 1; LE; INT 2; GE; INT 3; EOF ])

let test_lexer_rejects_garbage () =
  match Lexer.tokenize "a ? b" with
  | exception Lexer.Error (pos, _) -> check_int "column of ?" 3 pos.Ast.col
  | _ -> Alcotest.fail "expected a lexer error"

(* --- Parsing + elaboration: happy paths --- *)

let chain_src = {|
param N = 16

stmt s0 (i : 0 .. N-1) work 2 {
  read  In[i]
  write A[i]
}
stmt s1 (i : 0 .. N-1) work 3 {
  read  A[i]
  write B[i]
}
|}

let test_chain_program () =
  let stmts = parse_ok chain_src in
  check_int "two statements" 2 (List.length stmts);
  let s0 = List.hd stmts in
  Alcotest.(check string) "name" "s0" (Poly.Stmt.name s0);
  check_int "iterations" 16 (Poly.Stmt.iterations s0);
  check_int "work" 2 (Poly.Stmt.work s0);
  let flows = Poly.Dependence.flow_edges stmts in
  check_int "one flow" 1 (List.length flows);
  check_int "full volume" 16 (List.hd flows).Poly.Dependence.tokens

let test_program_matches_kernel_fir () =
  (* The same FIR cascade written in .pn derives the same flows as the
     OCaml kernel builder. *)
  let src = {|
param N = 32
stmt tap0 (i : 0 .. N-1) work 2 { read x[i] write acc0[i] }
stmt tap1 (i : 0 .. N-1) work 2 { read x[i+1], acc0[i] write acc1[i] }
stmt tap2 (i : 0 .. N-1) work 2 { read x[i+2], acc1[i] write acc2[i] }
|} in
  let from_lang = Poly.Dependence.flow_edges (parse_ok src) in
  let from_kernel =
    Poly.Dependence.flow_edges (Ppnpart_ppn.Kernels.fir ~taps:3 ~samples:32 ())
  in
  check_bool "identical flows" true (from_lang = from_kernel)

let test_triangular_with_guard () =
  let src = {|
param N = 8
stmt mac (i : 1 .. N-1, j : 1 .. i) work 2 {
  read acc[i][j-1], L[i][j], x[j]
  write acc[i][j]
}
|} in
  match parse_ok src with
  | [ mac ] ->
    check_int "triangle size" (7 * 8 / 2) (Poly.Stmt.iterations mac)
  | _ -> Alcotest.fail "expected one statement"

let test_where_guard () =
  let src = {|
stmt s (i : 0 .. 9, j : 0 .. 9) where i + j <= 9 {
  write A[i][j]
}
|} in
  match parse_ok src with
  | [ s ] -> check_int "half square" 55 (Poly.Stmt.iterations s)
  | _ -> Alcotest.fail "expected one statement"

let test_param_arithmetic () =
  let src = {|
param N = 10
param HALF = N - 5
param DOUBLE = 2 * HALF
stmt s (i : 0 .. DOUBLE - 1) { write A[i] }
|} in
  match parse_ok src with
  | [ s ] -> check_int "2 * (10 - 5)" 10 (Poly.Stmt.iterations s)
  | _ -> Alcotest.fail "expected one statement"

let test_scalar_access () =
  let src = {|
stmt s (i : 0 .. 3) { read c write A[i] }
|} in
  match parse_ok src with
  | [ s ] ->
    check_int "scalar arity" 0
      (Poly.Access.arity (List.hd (Poly.Stmt.reads s)))
  | _ -> Alcotest.fail "expected one statement"

let test_default_work () =
  match parse_ok "stmt s (i : 0 .. 1) { write A[i] }" with
  | [ s ] -> check_int "work defaults to 1" 1 (Poly.Stmt.work s)
  | _ -> Alcotest.fail "expected one statement"

let test_strided_and_negated () =
  let src = {|
stmt down (i : 0 .. 7) { read B[2*i] write D[-i + 7] }
|} in
  match parse_ok src with
  | [ s ] ->
    let read = List.hd (Poly.Stmt.reads s) in
    check_bool "stride 2" true
      (Poly.Access.eval read [| 3 |] = [| 6 |]);
    let write = List.hd (Poly.Stmt.writes s) in
    check_bool "reversal" true (Poly.Access.eval write [| 2 |] = [| 5 |])
  | _ -> Alcotest.fail "expected one statement"

let test_pipeline_through_derive () =
  (* Full path: text -> stmts -> PPN -> graph. *)
  let ppn = Ppnpart_ppn.Derive.derive (parse_ok chain_src) in
  (* s0, s1 + src_In + snk_B *)
  check_int "processes" 4 (Ppnpart_ppn.Ppn.n_processes ppn);
  check_bool "dataflow validates" true
    (Ppnpart_oracle.Dataflow_check.verify
       (List.map
          (fun s -> (s, fun _ reads -> List.fold_left ( + ) 1 reads))
          (parse_ok chain_src)))

(* --- Errors --- *)

let test_error_unknown_identifier () =
  let e = parse_err "stmt s (i : 0 .. M) { write A[i] }" in
  check_bool "mentions M" true
    (e.Lang.message = "unknown identifier M")

let test_error_inner_bound () =
  let e =
    parse_err "stmt s (i : 0 .. j, j : 0 .. 3) { write A[i][j] }"
  in
  check_bool "prefix rule" true
    (e.Lang.message
    = "upper bound of i may only use outer iterators and parameters")

let test_error_duplicate_stmt () =
  let e =
    parse_err
      "stmt s (i : 0 .. 1) { write A[i] }\nstmt s (i : 0 .. 1) { write B[i] }"
  in
  check_bool "duplicate" true (e.Lang.message = "duplicate statement s");
  check_int "second line" 2 e.Lang.position.Ast.line

let test_error_duplicate_param () =
  let e = parse_err "param N = 1\nparam N = 2" in
  check_bool "duplicate" true (e.Lang.message = "duplicate parameter N")

let test_error_syntax () =
  let e = parse_err "stmt s i : 0 .. 1) { write A[i] }" in
  check_bool "expected paren" true
    (e.Lang.message = "expected '(' but found identifier \"i\"")

let test_error_iterator_shadows_param () =
  let e = parse_err "param i = 3\nstmt s (i : 0 .. 1) { write A[i] }" in
  check_bool "shadowing" true
    (e.Lang.message = "iterator i shadows a parameter")

let test_error_param_forward_reference () =
  let e = parse_err "param A = B\nparam B = 1" in
  check_bool "forward ref" true (e.Lang.message = "unknown parameter B")

let test_error_position_precision () =
  let e = parse_err "stmt s (i : 0 .. 3) {\n  read Q[zz]\n  write A[i]\n}" in
  check_int "line" 2 e.Lang.position.Ast.line;
  check_bool "names zz" true (e.Lang.message = "unknown identifier zz")

let test_parse_file_missing () =
  match Lang.parse_file "/nonexistent/x.pn" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* --- emit / round trip --- *)

let flows_of stmts = Poly.Dependence.flow_edges stmts

let test_emit_roundtrip_kernels () =
  List.iter
    (fun (name, stmts) ->
      let text = Lang.emit stmts in
      match Lang.parse_program text with
      | Error e ->
        Alcotest.failf "%s re-parse failed: %a" name Lang.pp_error e
      | Ok stmts' ->
        check_int (name ^ " statement count") (List.length stmts)
          (List.length stmts');
        List.iter2
          (fun a b ->
            check_int
              (name ^ " iterations preserved")
              (Poly.Stmt.iterations a) (Poly.Stmt.iterations b))
          stmts stmts';
        check_bool (name ^ " flows preserved") true
          (flows_of stmts = flows_of stmts'))
    Ppnpart_ppn.Kernels.all

let test_emit_sanitizes_names () =
  let stmts = Ppnpart_ppn.Kernels.matmul ~blocks:2 ~n:4 () in
  let text = Lang.emit stmts in
  (* split names like "mm.0" become identifiers *)
  check_bool "no dots in emitted text" true
    (not (String.contains text '.')
    || (* the '..' range operator is expected; check no "m.0" pattern *)
    not
      (let rec has_bad i =
         i + 2 < String.length text
         && ((text.[i] <> '.' && text.[i + 1] = '.' && text.[i + 2] <> '.')
            || has_bad (i + 1))
       in
       has_bad 0))

let test_emit_rejects_zero_dim () =
  let d = Poly.Domain.make ~lower:[||] ~upper:[||] () in
  let s = Poly.Stmt.make "nullary" d in
  Alcotest.check_raises "0-dim"
    (Invalid_argument "Lang.emit: cannot emit a 0-dimensional statement")
    (fun () -> ignore (Lang.emit [ s ]))

(* --- property: elaborated domains agree with a direct count --- *)

let prop_rect_program_iterations =
  QCheck2.Test.make ~name:"rectangular .pn domains count correctly"
    ~count:50
    QCheck2.Gen.(pair (int_range 1 12) (int_range 1 12))
    (fun (a, b) ->
      let src =
        Printf.sprintf
          "stmt s (i : 0 .. %d, j : 1 .. %d) { write A[i][j] }" (a - 1) b
      in
      match Lang.parse_program src with
      | Ok [ s ] -> Poly.Stmt.iterations s = a * b
      | _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_rect_program_iterations ]

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "two-char ops" `Quick test_lexer_two_char_ops;
          Alcotest.test_case "rejects garbage" `Quick
            test_lexer_rejects_garbage;
        ] );
      ( "programs",
        [
          Alcotest.test_case "chain" `Quick test_chain_program;
          Alcotest.test_case "matches kernel FIR" `Quick
            test_program_matches_kernel_fir;
          Alcotest.test_case "triangular" `Quick test_triangular_with_guard;
          Alcotest.test_case "where guard" `Quick test_where_guard;
          Alcotest.test_case "param arithmetic" `Quick test_param_arithmetic;
          Alcotest.test_case "scalar access" `Quick test_scalar_access;
          Alcotest.test_case "default work" `Quick test_default_work;
          Alcotest.test_case "strided / negated" `Quick
            test_strided_and_negated;
          Alcotest.test_case "through derive" `Quick
            test_pipeline_through_derive;
        ] );
      ( "emit",
        [
          Alcotest.test_case "kernel round trip" `Quick
            test_emit_roundtrip_kernels;
          Alcotest.test_case "sanitizes names" `Quick
            test_emit_sanitizes_names;
          Alcotest.test_case "rejects 0-dim" `Quick
            test_emit_rejects_zero_dim;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unknown identifier" `Quick
            test_error_unknown_identifier;
          Alcotest.test_case "inner bound" `Quick test_error_inner_bound;
          Alcotest.test_case "duplicate stmt" `Quick
            test_error_duplicate_stmt;
          Alcotest.test_case "duplicate param" `Quick
            test_error_duplicate_param;
          Alcotest.test_case "syntax" `Quick test_error_syntax;
          Alcotest.test_case "iterator shadows param" `Quick
            test_error_iterator_shadows_param;
          Alcotest.test_case "param forward reference" `Quick
            test_error_param_forward_reference;
          Alcotest.test_case "position precision" `Quick
            test_error_position_precision;
          Alcotest.test_case "missing file" `Quick test_parse_file_missing;
        ] );
      ("properties", qcheck_cases);
    ]

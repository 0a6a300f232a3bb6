type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" ch)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          if not (String.for_all is_hex hex) then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ hex) in
          (* ASCII escapes decode; anything beyond stays verbatim — the
             protocol and the records are ASCII end to end. *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_string b ("\\u" ^ hex);
          pos := !pos + 4
        | Some _ -> fail "bad escape"
        | None -> fail "unterminated escape");
        advance ();
        go ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* The JSON grammar exactly: [float_of_string] alone would also take
     "01", "1.", ".5", "+1" and hex floats. *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d then fail "bad number";
      d
    in
    if peek () = Some '-' then advance ();
    let d = digits () in
    if s.[d] = '0' && !pos > d + 1 then fail "bad number";
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      advance ();
      ignore (digits ())
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      integral := false;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      ignore (digits ())
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt text else None with
    | Some i -> Int i
    | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec go () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        go ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* The run report's number bytes, kept as they were: integral floats
   below 1e15 keep a ".0" so they read back as floats; the rest get the
   17 significant digits that round-trip a double. *)
let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.bprintf b "%.1f" f
  else Printf.bprintf b "%.17g" f

let add_string b s =
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | Str s -> add_string b s
  | Arr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_string b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 53. ->
    Some (int_of_float f)
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_arr = function Arr items -> Some items | _ -> None

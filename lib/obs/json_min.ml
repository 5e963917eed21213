(* Minimal JSON codec: the one string escaper and number writer every
   JSON writer uses, and a recursive-descent parser shared by the
   validators (tools/bench_check, tools/validate_trace,
   tools/validate_lint), the trace report and the export-validity tests.
   Stdlib only — the repo deliberately carries no JSON dependency. *)

exception Invalid of string

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
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
      s;
    Buffer.contents b
  end

let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type v =
  | Obj of (string * v) list
  | Arr of v list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

let parse (s : string) : v =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then s.[!i] else fail "unexpected end of input" in
  let next () =
    let c = peek () in
    incr i;
    c
  in
  let skip_ws () =
    while !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr i
    done
  in
  let expect c =
    if next () <> c then fail "expected '%c' at offset %d" c (!i - 1)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* [escape] writes \u only for bytes below 0x20; decode
                 as a code point truncated to a byte *)
              let hex c =
                match c with
                | '0' .. '9' -> Char.code c - Char.code '0'
                | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                | c -> fail "bad \\u escape character '%c'" c
              in
              (* one digit at a time: operand evaluation order is
                 unspecified *)
              let v = ref 0 in
              for _ = 1 to 4 do
                v := (!v * 16) + hex (next ())
              done;
              let v = !v in
              Buffer.add_char b (Char.chr (v land 0xff))
          | c -> fail "bad escape '\\%c'" c);
          go ())
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !i in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !i < n && num_char s.[!i] do
      incr i
    done;
    let tok = String.sub s start (!i - start) in
    match float_of_string_opt tok with
    | Some f -> Num f
    | None -> fail "bad number token %S" tok
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr i;
        skip_ws ();
        if peek () = '}' then (incr i; Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | c -> fail "expected ',' or '}' but got '%c'" c
          in
          members []
    | '[' ->
        incr i;
        skip_ws ();
        if peek () = ']' then (incr i; Arr [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elements (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | c -> fail "expected ',' or ']' but got '%c'" c
          in
          elements []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail "unexpected character '%c' at offset %d" c !i
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> n then fail "trailing garbage after JSON value (offset %d)" !i;
  v

let parse_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse src

(* --- typed accessors, shared by all the validators --- *)

let obj what = function Obj kvs -> kvs | _ -> fail "%s: expected an object" what
let arr what = function Arr vs -> vs | _ -> fail "%s: expected an array" what

let field what kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> fail "%s: missing key %S" what k

let str what = function Str s -> s | _ -> fail "%s: expected a string" what

let num what = function
  | Num f ->
      if Float.is_finite f then f else fail "%s: non-finite number" what
  | Null -> fail "%s: null (non-finite values are written as null)" what
  | _ -> fail "%s: expected a number" what

let int_ what v =
  let f = num what v in
  if Float.is_integer f then int_of_float f else fail "%s: expected an integer" what

let nonneg_int what v =
  let x = int_ what v in
  if x < 0 then fail "%s: negative count %d" what x else x

let ratio what v =
  let f = num what v in
  if f < 0.0 || f > 1.0 then fail "%s: ratio %g outside [0,1]" what f else f

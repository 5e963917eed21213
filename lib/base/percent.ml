(* One 256-entry table per format: the per-byte test is a load, and a
   field with nothing to escape (the common case) is returned as is. *)

type reserved = string

let reserved chars =
  let t = Bytes.make 256 '\000' in
  String.iter (fun c -> Bytes.set t (Char.code c) '\001') ("%" ^ chars);
  Bytes.to_string t

let hex = "0123456789ABCDEF"

let escape (r : reserved) s =
  let n = String.length s in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if String.unsafe_get r (Char.code (String.unsafe_get s i)) <> '\000' then
      incr hits
  done;
  if !hits = 0 then s
  else begin
    let b = Bytes.create (n + (2 * !hits)) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if String.unsafe_get r (Char.code c) <> '\000' then begin
        Bytes.unsafe_set b !j '%';
        Bytes.unsafe_set b (!j + 1) hex.[Char.code c lsr 4];
        Bytes.unsafe_set b (!j + 2) hex.[Char.code c land 15];
        j := !j + 3
      end
      else begin
        Bytes.unsafe_set b !j c;
        incr j
      end
    done;
    Bytes.unsafe_to_string b
  end

let digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> failwith (Printf.sprintf "bad percent escape character %C" c)

let unescape s =
  if not (String.contains s '%') then s
  else begin
    let n = String.length s in
    let b = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' then begin
        if !i + 2 >= n then failwith "truncated percent escape";
        Buffer.add_char b (Char.chr ((digit s.[!i + 1] * 16) + digit s.[!i + 2]));
        i := !i + 3
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

let decode ?context kind s =
  try unescape s with Failure msg -> Error.raise_error ?context kind msg

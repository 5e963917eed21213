open Tir_obs.Json_min

type gate = Exact | Floor of float | Ceiling of float

type row = { section : string; name : string; value : float; unit_ : string; gate : gate }

let gate_to_string = function
  | Exact -> "exact"
  | Floor b -> "floor " ^ number b
  | Ceiling b -> "ceiling " ^ number b

let gate_of_string what s =
  let bound b =
    match float_of_string_opt b with
    | Some v when Float.is_finite v -> v
    | _ -> fail "%s: bad gate bound %S" what b
  in
  match String.split_on_char ' ' s with
  | [ "exact" ] -> Exact
  | [ "floor"; b ] -> Floor (bound b)
  | [ "ceiling"; b ] -> Ceiling (bound b)
  | _ -> fail "%s: unknown gate %S" what s

let key r = Printf.sprintf "[%s] %s (%s)" r.section r.name r.unit_

let write path ~fast rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"fast\": %b,\n  \"rows\": [" fast;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "%s\n    {\"section\": \"%s\", \"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", \"gate\": \"%s\"}"
        (if i = 0 then "" else ",")
        (escape r.section) (escape r.name) (number r.value) (escape r.unit_)
        (gate_to_string r.gate))
    rows;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

let read path =
  let top = obj path (parse_file path) in
  let fast =
    match field path top "fast" with Bool b -> b | _ -> fail "%s: fast: expected a bool" path
  in
  let rows =
    List.map
      (fun r ->
        let r = obj "rows[]" r in
        let s k = str ("rows[]." ^ k) (field "rows[]" r k) in
        let row =
          { section = s "section"; name = s "name"; unit_ = s "unit"; value = Float.nan; gate = Exact }
        in
        let what = key row in
        let value = match field what r "value" with Null -> Float.nan | v -> num what v in
        { row with value; gate = gate_of_string what (s "gate") })
      (arr "rows" (field path top "rows"))
  in
  let seen = Hashtbl.create (List.length rows) in
  List.iter
    (fun r ->
      if Hashtbl.mem seen (key r) then fail "%s: duplicate row %s" path (key r);
      Hashtbl.add seen (key r) ())
    rows;
  (fast, rows)

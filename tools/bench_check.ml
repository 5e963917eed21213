(* Row-by-row gate between two BENCH_results.json files.

     dune exec tools/bench_check.exe -- CURRENT BASELINE [--inject-regression]

   Each row carries its gate ([Bench_results] has the layout):

     "exact"      the value equals the baseline row's, bit for bit;
     "floor B"    the value is at least B;
     "ceiling B"  the value is at most B.

   The check fails when a gate is violated, when a row is in one file but
   not the other, when a row's gate differs from the baseline row's (so a
   gate change shows up as a baseline diff), or when a value is null (the
   bench writes non-finite numbers as null). The checker knows no section
   or row names: a new row needs no edit here.

   --inject-regression pushes every current row past its gate before the
   comparison (exact rows off the baseline value, floor rows below their
   bound, ceiling rows above it); `make bench-smoke` asserts that this run
   fails.

   Exit 0 when every row passes, 1 with one line per failure, 2 on usage
   errors, unreadable or malformed files (a repeated row included), or
   when the two files differ in [fast], which makes them incomparable. *)

module R = Bench_results
open Tir_obs.Json_min

let usage () =
  prerr_endline "usage: bench_check CURRENT BASELINE [--inject-regression]";
  exit 2

let inject (r : R.row) =
  let value =
    match r.gate with
    | Exact -> r.value +. Float.abs r.value +. 1.0
    | Floor b -> b -. Float.abs b -. 1.0
    | Ceiling b -> b +. Float.abs b +. 1.0
  in
  { r with value }

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, paths = List.partition (String.starts_with ~prefix:"--") args in
  let injectp = List.mem "--inject-regression" flags in
  List.iter (fun f -> if f <> "--inject-regression" then usage ()) flags;
  let cur_path, base_path = match paths with [ c; b ] -> (c, b) | _ -> usage () in
  match (R.read cur_path, R.read base_path) with
  | exception (Invalid msg | Sys_error msg) ->
      Printf.eprintf "bench_check: %s\n" msg;
      exit 2
  | (cur_fast, _), (base_fast, _) when cur_fast <> base_fast ->
      Printf.eprintf "bench_check: fast-mode mismatch (%b vs %b): runs are not comparable\n"
        cur_fast base_fast;
      exit 2
  | (_, cur), (_, base) ->
      let keyed rows = List.map (fun r -> (R.key r, r)) rows in
      let cur = keyed (if injectp then List.map inject cur else cur) in
      let base = keyed base in
      let failures = ref [] in
      let bad fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
      List.iter
        (fun (key, (c : R.row)) ->
          match List.assoc_opt key base with
          | None -> bad "%s: not in the baseline" key
          | Some (b : R.row) -> (
              if c.gate <> b.gate then
                bad "%s: gate %S, baseline gate %S" key (R.gate_to_string c.gate)
                  (R.gate_to_string b.gate);
              let v = number c.value in
              match c.gate with
              | _ when Float.is_nan c.value -> bad "%s: value is null" key
              | _ when Float.is_nan b.value -> bad "%s: baseline value is null" key
              | Exact when not (Float.equal c.value b.value) ->
                  bad "%s: %s, baseline %s (exact)" key v (number b.value)
              | Floor f when c.value < f -> bad "%s: %s below the floor %s" key v (number f)
              | Ceiling f when c.value > f ->
                  bad "%s: %s above the ceiling %s" key v (number f)
              | _ -> ()))
        cur;
      List.iter
        (fun (key, _) ->
          if not (List.mem_assoc key cur) then bad "%s: missing from the current run" key)
        base;
      match List.rev !failures with
      | [] ->
          Printf.printf "bench_check: %s vs %s: all %d rows pass\n" cur_path base_path
            (List.length cur)
      | fs ->
          List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) fs;
          Printf.eprintf "bench_check: %d failure(s) against %s\n" (List.length fs) base_path;
          exit 1

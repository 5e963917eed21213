(** Zipper: find/rebuild round-trips and context extraction — the substrate
    every schedule primitive rewrites through. *)

open Tir_ir
module Z = Tir_sched.Zipper

let program () = (Util.matmul_relu ~m:8 ~n:8 ~k:8 ()).Primfunc.body

let test_find_rebuild_identity () =
  let body = program () in
  (* For every block in the tree: locating it and rebuilding with the same
     subtree reproduces the tree (semantically: same printed form). *)
  List.iter
    (fun (br : Stmt.block_realize) ->
      match Z.find_block_realize body br.block.Stmt.name with
      | Some (path, sub) ->
          let rebuilt = Z.rebuild path sub in
          Alcotest.(check string)
            ("rebuild at " ^ br.block.Stmt.name)
            (Printer.stmt_to_string body) (Printer.stmt_to_string rebuilt)
      | None -> Alcotest.fail "block not found")
    (Stmt.collect_blocks body)

let test_find_loop_context () =
  let body = program () in
  (* The reduction loop of C sits under two spatial loops. *)
  let c = Option.get (Stmt.find_block body "C") in
  let k_binding =
    List.nth c.Stmt.iter_values (List.length c.Stmt.iter_values - 1)
  in
  let kv = match k_binding with Expr.Var v -> v | _ -> Alcotest.fail "binding" in
  match Z.find_loop body kv with
  | Some (path, Stmt.For r) ->
      Alcotest.(check bool) "found the right loop" true (Var.equal r.loop_var kv);
      let loops = Z.loops_of_path path in
      Alcotest.(check int) "two enclosing loops" 2 (List.length loops);
      let ranges = Z.ranges_of_path path in
      Alcotest.(check int) "ranges for enclosing loops" 2 (Var.Map.cardinal ranges)
  | _ -> Alcotest.fail "loop not found"

let test_enclosing_block () =
  let body = program () in
  let c = Option.get (Stmt.find_block body "C") in
  (* Focus inside C's body: the enclosing block must be C. *)
  let store_pred = function Stmt.Store _ -> true | _ -> false in
  (match Z.find store_pred body with
  | Some (path, _) -> (
      match Z.enclosing_block path with
      | Some (br, _inside, _outside) ->
          (* First store found in pre-order is C's init (inside block C). *)
          Alcotest.(check string) "enclosing block" "C" br.Stmt.block.Stmt.name
      | None -> Alcotest.fail "no enclosing block")
  | None -> Alcotest.fail "no store found")

let test_ranges_include_iter_vars () =
  let body = program () in
  let store_pred = function Stmt.Store _ -> true | _ -> false in
  match Z.find store_pred body with
  | Some (path, _) ->
      let ranges = Z.ranges_of_path path in
      (* Loops (3 for C) plus C's three iterator variables. *)
      Alcotest.(check bool) "iter vars in scope" true (Var.Map.cardinal ranges >= 6)
  | None -> Alcotest.fail "no store"

(* The search [Z.find] replaced: it builds a frame for every statement it
   visits and raises at the first match. [Z.find] must agree with it. *)
let reference_find pred stmt =
  let exception Found of Z.path * Stmt.t in
  let rec go path s =
    if pred s then raise (Found (path, s));
    match s with
    | Stmt.For r ->
        go
          (Z.F_for
             {
               loop_var = r.loop_var;
               extent = r.extent;
               kind = r.kind;
               annotations = r.annotations;
             }
          :: path)
          r.body
    | Stmt.Block br ->
        (match br.block.init with
        | Some init -> go (Z.F_block_init br :: path) init
        | None -> ());
        go (Z.F_block_body br :: path) br.block.body
    | Stmt.Seq ss ->
        let rec walk rev_before = function
          | [] -> ()
          | x :: after ->
              go (Z.F_seq (rev_before, after) :: path) x;
              walk (x :: rev_before) after
        in
        walk [] ss
    | Stmt.If (c, t, e) ->
        go (Z.F_if_then (c, e) :: path) t;
        Option.iter (fun e' -> go (Z.F_if_else (c, t) :: path) e') e
    | Stmt.Store _ | Stmt.Eval _ -> ()
  in
  try
    go [] stmt;
    None
  with Found (p, s) -> Some (p, s)

let rec loop_vars acc = function
  | Stmt.For r -> loop_vars (r.loop_var :: acc) r.body
  | Stmt.Block br ->
      let acc = Option.fold ~none:acc ~some:(loop_vars acc) br.block.init in
      loop_vars acc br.block.body
  | Stmt.Seq ss -> List.fold_left loop_vars acc ss
  | Stmt.If (_, t, e) ->
      let acc = loop_vars acc t in
      Option.fold ~none:acc ~some:(loop_vars acc) e
  | Stmt.Store _ | Stmt.Eval _ -> acc

(* Over every loop and block of every sketch program (and a predicate
   nothing satisfies), [Z.find] returns the reference's path and the very
   same subtree. *)
let test_find_matches_reference () =
  let searches = ref 0 in
  List.iter
    (fun (_, (sk : Tir_autosched.Sketch.t), d) ->
      match sk.apply d with
      | exception Tir_sched.State.Schedule_error _ -> ()
      | sch ->
          let body = (Tir_sched.Schedule.func sch).Primfunc.body in
          let agree what pred =
            incr searches;
            match (Z.find pred body, reference_find pred body) with
            | None, None -> ()
            | Some (p, s), Some (p', s') ->
                Alcotest.(check bool) (what ^ ": same subtree") true (s == s');
                Alcotest.(check bool) (what ^ ": same path") true (p = p')
            | _ -> Alcotest.failf "%s: found by one search only" what
          in
          List.iter
            (fun v ->
              agree ("loop " ^ v.Var.name) (function
                | Stmt.For r -> Var.equal r.loop_var v
                | _ -> false))
            (loop_vars [] body);
          List.iter
            (fun (br : Stmt.block_realize) ->
              let name = br.block.Stmt.name in
              agree ("block " ^ name) (function
                | Stmt.Block b -> String.equal b.block.name name
                | _ -> false))
            (Stmt.collect_blocks body);
          agree "no match" (fun _ -> false))
    (Util.sketch_programs ());
  Alcotest.(check bool) "searched" true (!searches > 1000)

let suite =
  [
    ("find/rebuild identity", `Quick, test_find_rebuild_identity);
    ("loop context extraction", `Quick, test_find_loop_context);
    ("enclosing block", `Quick, test_enclosing_block);
    ("ranges include iterators", `Quick, test_ranges_include_iter_vars);
    ("find matches the reference search", `Quick, test_find_matches_reference);
  ]

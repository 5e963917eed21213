(** The statement rewrites on the schedule primitives' path,
    [Stmt.subst] and [Stmt.replace_buffer]: they visit each node once,
    binders shadow the substitution at every depth, and on the programs the
    sketches produce they give what the two-pass rewrites gave. *)

open Tir_ir
module Sk = Tir_autosched.Sketch

(* The rewrites as they were first written: rebuild the children, then
   apply the expression rewrite to the whole rebuilt subtree, at every
   level. Kept as the oracle for the one-pass versions. *)
module Reference = struct
  let rec subst lookup (s : Stmt.t) =
    match s with
    | Stmt.Block br ->
        let b = br.Stmt.block in
        let shadowed v =
          if List.exists (fun (iv : Stmt.iter_var) -> Var.equal iv.var v) b.Stmt.iter_vars
          then None
          else lookup v
        in
        let fe_outer = Expr.subst lookup in
        let region_map { Stmt.buffer; region } =
          { Stmt.buffer; region = List.map (fun (mn, ext) -> (Expr.subst shadowed mn, ext)) region }
        in
        Stmt.Block
          {
            Stmt.iter_values = List.map fe_outer br.Stmt.iter_values;
            predicate = fe_outer br.Stmt.predicate;
            block =
              {
                b with
                Stmt.reads = List.map region_map b.Stmt.reads;
                writes = List.map region_map b.Stmt.writes;
                init = Option.map (subst shadowed) b.Stmt.init;
                body = subst shadowed b.Stmt.body;
              };
          }
    | Stmt.For r ->
        let shadowed v = if Var.equal v r.Stmt.loop_var then None else lookup v in
        Stmt.For { r with Stmt.body = subst shadowed r.Stmt.body }
    | _ -> Stmt.map_exprs (Expr.subst lookup) (Stmt.map_children (subst lookup) s)

  let rec replace_buffer ~from ~to_ s =
    let fe = Expr.replace_buffer ~from ~to_ in
    let swap b = if Buffer.equal b from then to_ else b in
    let s = Stmt.map_exprs fe (Stmt.map_children (replace_buffer ~from ~to_) s) in
    match s with
    | Stmt.Store (b, idx, v) -> Stmt.Store (swap b, idx, v)
    | Stmt.Block br ->
        let bl = br.Stmt.block in
        let region_map (r : Stmt.buffer_region) = { r with Stmt.buffer = swap r.Stmt.buffer } in
        Stmt.Block
          {
            br with
            Stmt.block =
              {
                bl with
                Stmt.reads = List.map region_map bl.Stmt.reads;
                writes = List.map region_map bl.Stmt.writes;
              };
          }
    | _ -> s
end

let check_stmt msg expected actual =
  let te = Printer.stmt_to_string expected and ta = Printer.stmt_to_string actual in
  if not (Stmt.equal expected actual && String.equal te ta) then
    Alcotest.failf "%s:@.expected@.%s@.got@.%s" msg te ta

(* [v] is free in one branch and bound by a loop in the other, under a
   [Seq] and under an [If]: the bound occurrences stay, the free ones are
   replaced. So are a block iterator's, in its block. *)
let test_binders_shadow () =
  let v = Var.fresh "v" and c = Var.fresh "c" in
  let a = Buffer.create "A" [ 8 ] Dtype.Int in
  let store e = Stmt.Store (a, [ e ], Expr.Int 1) in
  let loop body = Stmt.for_ v 4 body in
  let block body =
    Stmt.block_realize [ Expr.Var c ]
      (Stmt.make_block ~name:"B" ~iter_vars:[ Stmt.iter_var v 8 ]
         ~reads:[] ~writes:[ { Stmt.buffer = a; region = [ (Expr.Var v, 1) ] } ]
         body)
  in
  let x = Expr.Var v and zero = Expr.Int 0 in
  let sub = Stmt.subst_map (Var.Map.singleton v zero) in
  check_stmt "under Seq"
    (Stmt.seq [ loop (store x); store zero; block (store x) ])
    (sub (Stmt.seq [ loop (store x); store x; block (store x) ]));
  let cond = Expr.lt (Expr.Var c) (Expr.Int 2) in
  check_stmt "under If"
    (Stmt.If (cond, loop (store x), Some (store zero)))
    (sub (Stmt.If (cond, loop (store x), Some (store x))))

(* Every buffer rewritten to a fresh one, and every loop variable
   substituted in its loop's body, as the primitives do: the one-pass
   rewrites give the reference's statements, equal and printed alike. *)
let test_sketch_programs_match_reference () =
  let programs =
    List.filter_map
      (fun (_, (sk : Sk.t), d) ->
        match sk.apply d with
        | sch -> Some (Tir_sched.Schedule.func sch)
        | exception Tir_sched.State.Schedule_error _ -> None)
      (Util.sketch_programs ())
  in
  Alcotest.(check bool) "some sketch applied" true (List.length programs >= 48);
  List.iter
    (fun (f : Primfunc.t) ->
      let body = f.Primfunc.body in
      let buffers =
        List.fold_left
          (fun acc (br : Stmt.block_realize) ->
            List.fold_left
              (fun acc (r : Stmt.buffer_region) -> Buffer.Set.add r.Stmt.buffer acc)
              acc
              (br.Stmt.block.Stmt.reads @ br.Stmt.block.Stmt.writes))
          (Buffer.Set.of_list (Primfunc.all_buffers f))
          (Stmt.collect_blocks body)
      in
      Buffer.Set.iter
        (fun (b : Buffer.t) ->
          let to_ = Buffer.create (b.Buffer.name ^ "_r") b.Buffer.shape b.Buffer.dtype in
          check_stmt ("replace_buffer " ^ b.Buffer.name)
            (Reference.replace_buffer ~from:b ~to_ body)
            (Stmt.replace_buffer ~from:b ~to_ body))
        buffers;
      Stmt.iter
        (function
          | Stmt.For r ->
              let w = Var.fresh "w" in
              let image = Expr.add (Expr.mul (Expr.Var w) (Expr.Int 2)) (Expr.Int 1) in
              let lookup v = if Var.equal v r.Stmt.loop_var then Some image else None in
              check_stmt ("subst " ^ r.Stmt.loop_var.Var.name)
                (Reference.subst lookup r.Stmt.body)
                (Stmt.subst lookup r.Stmt.body)
          | _ -> ())
        body)
    programs

(* Minor-heap words one call allocates. *)
let words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* The allocation of one rewrite at size [2n] over size [n]. A rewrite
   that walks each node once roughly doubles; one that re-walks the
   subtree at every level of a nest, or re-linearizes the sum below every
   [+], grows about as the square. *)
let growth n build rewrite =
  let small = build n and large = build (2 * n) in
  words (fun () -> rewrite large) /. words (fun () -> rewrite small)

let test_allocation_pins_one_pass () =
  let a = Buffer.create "A" [ 64 ] Dtype.Int and b = Buffer.create "B" [ 64 ] Dtype.Int in
  let b' = Buffer.create "B2" [ 64 ] Dtype.Int in
  (* A loop nest of depth [n] around one store that reads [B]. *)
  let nest n =
    let vars = List.init n (fun i -> Var.fresh (Printf.sprintf "i%d" i)) in
    let idx = Expr.Var (List.hd vars) in
    List.fold_left
      (fun body v -> Stmt.for_ v 2 body)
      (Stmt.Store (a, [ idx ], Expr.add (Expr.load b [ idx ]) (Expr.Int 1)))
      vars
  in
  let nest_growth = growth 32 nest (Stmt.replace_buffer ~from:b ~to_:b') in
  if nest_growth > 2.5 then
    Alcotest.failf "replace_buffer allocates x%.2f from depth 32 to 64 (limit x2.5)" nest_growth;
  (* A left-nested sum of [n] floordiv atoms over distinct variables. *)
  let sum n =
    let atom i = Expr.Bin (Expr.Div, Expr.Var (Var.fresh (Printf.sprintf "x%d" i)), Expr.Int 4) in
    List.fold_left
      (fun acc i -> Expr.Bin (Expr.Add, acc, atom i))
      (atom 0)
      (List.init (n - 1) (fun i -> i + 1))
  in
  let sum_growth = growth 64 sum (Tir_arith.Simplify.simplify Tir_arith.Simplify.empty_ctx) in
  if sum_growth > 4.0 then
    Alcotest.failf "simplify allocates x%.2f from 64 to 128 atoms (limit x4)" sum_growth

let suite =
  [
    ("binders shadow under Seq and If", `Quick, test_binders_shadow);
    ("sketch programs: one pass = reference", `Quick, test_sketch_programs_match_reference);
    ("allocation pins one pass per rewrite", `Quick, test_allocation_pins_one_pass);
  ]

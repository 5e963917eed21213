(** Blockization (paper Figure 7): wrap the subtree under a loop into a new
    outer block, decomposing each block-iterator binding [e] into
    [outer * k + inner] where [inner] ranges over the loops being absorbed.
    The result isolates a tensorized sub-computation whose signature is the
    interface for all further outer-loop scheduling. *)

open Tir_ir
open State
module Simplify = Tir_arith.Simplify
module Region = Tir_arith.Region

(* Divide a linear integer expression by [k] exactly, or fail. *)
let exact_div ctx e k =
  if k = 1 then e
  else
    let l = Simplify.simplify_linear ctx e in
    if l.Simplify.const mod k <> 0 then err "blockize: %a not divisible by %d" Expr.pp e k
    else if List.exists (fun (_, c) -> c mod k <> 0) l.Simplify.terms then
      err "blockize: %a not divisible by %d" Expr.pp e k
    else
      Simplify.of_linear
        {
          Simplify.const = l.Simplify.const / k;
          terms = List.map (fun (a, c) -> (a, c / k)) l.Simplify.terms;
        }

(** [blockize t loop] creates a new block isolating the subtree rooted at
    [loop]; returns the new block's name. *)
let blockize t loop_var =
  let path, rl = loop_path t loop_var in
  let ctx = simplify_ctx path in
  let simpl = Simplify.simplify ctx in
  (* Gather the inner loop chain and the single inner block realize. *)
  let rec chain acc (s : Stmt.t) =
    match s with
    | Stmt.For r -> chain ((r.loop_var, r.extent, r.kind, r.annotations) :: acc) r.body
    | Stmt.Block br -> (List.rev acc, br)
    | _ -> err "blockize: subtree under %a is not a simple loop nest over one block" Var.pp loop_var
  in
  let inner_loops, br =
    chain [ (rl.Stmt.loop_var, rl.Stmt.extent, rl.Stmt.kind, rl.Stmt.annotations) ] rl.Stmt.body
  in
  (match br.Stmt.predicate with
  | Expr.Bool true -> ()
  | p -> err "blockize: inner block has a predicate (%a); pad first" Expr.pp p);
  let b = br.Stmt.block in
  let inner_ranges =
    List.fold_left
      (fun m (v, ext, _, _) -> Var.Map.add v (Bound.of_extent ext) m)
      Var.Map.empty inner_loops
  in
  let is_inner v = Var.Map.mem v inner_ranges in
  let zero_if pred e =
    simpl (Expr.subst (fun v -> if pred v then Some (Expr.Int 0) else None) e)
  in
  (* Decompose each binding e = e_out + e_in with e_in over inner loops. *)
  let decompose (iv : Stmt.iter_var) value =
    let e_in = zero_if (fun v -> not (is_inner v)) value in
    let e_out = zero_if is_inner value in
    let recomposed = simpl (Expr.sub value (Expr.add e_out e_in)) in
    if not (Expr.is_const_int recomposed 0) then
      err "blockize: binding %a of %a is not separable" Expr.pp value Var.pp iv.var;
    let k =
      match Bound.of_expr_map inner_ranges e_in with
      | Some { Bound.lo = 0; hi } -> hi + 1
      | Some _ -> err "blockize: inner part of %a does not start at 0" Expr.pp value
      | None -> err "blockize: cannot bound inner part of %a" Expr.pp value
    in
    if iv.extent mod k <> 0 then
      err "blockize: extent %d of %a not divisible by tile %d (pad first)" iv.extent
        Var.pp iv.var k;
    let outer_iv = Stmt.iter_var ~itype:iv.itype (Var.fresh (iv.var.Var.name ^ "o")) (iv.extent / k) in
    let outer_value = exact_div ctx e_out k in
    let inner_binding =
      Expr.add (Expr.mul (Expr.Var outer_iv.var) (Expr.Int k)) e_in
    in
    (outer_iv, outer_value, inner_binding, k)
  in
  let parts = List.map2 decompose b.iter_vars br.Stmt.iter_values in
  let outer_ivs = List.map (fun (o, _, _, _) -> o) parts in
  let outer_values = List.map (fun (_, v, _, _) -> v) parts in
  let inner_bindings = List.map (fun (_, _, ib, _) -> ib) parts in
  (* Outer block regions: substitute the iterator decomposition into the
     inner regions, then relax the inner loops. *)
  let iv_subst =
    List.fold_left2
      (fun m (iv : Stmt.iter_var) (_, _, ib, _) -> Var.Map.add iv.var ib m)
      Var.Map.empty b.iter_vars parts
  in
  let lift (r : Stmt.buffer_region) =
    let r' =
      {
        r with
        Stmt.region =
          List.map (fun (mn, ext) -> (simpl (Expr.subst_map iv_subst mn), ext)) r.region;
      }
    in
    let relaxed = Region.relax_region ~relaxed:inner_ranges r' in
    { relaxed with Stmt.region = List.map (fun (mn, ext) -> (simpl mn, ext)) relaxed.Stmt.region }
  in
  let inner_realize = Stmt.Block { br with iter_values = inner_bindings } in
  let inner_nest =
    List.fold_right
      (fun (v, ext, kind, annotations) acc -> Stmt.for_ ~kind ~annotations v ext acc)
      inner_loops inner_realize
  in
  let outer_name = fresh_name t (b.name ^ "_o") in
  let outer_block =
    Stmt.make_block ~name:outer_name ~iter_vars:outer_ivs
      ~reads:(List.map lift b.reads) ~writes:(List.map lift b.writes) inner_nest
  in
  replace t path (Stmt.block_realize outer_values outer_block);
  outer_name

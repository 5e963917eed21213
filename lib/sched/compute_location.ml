(** Compute-location primitives: compute_at and reverse_compute_at.

    Moving a block under a loop of a related block (paper Figure 6) relies
    only on block signatures: the required buffer region under the target
    loop is derived from the other blocks' declared regions, and a fresh
    canonical loop nest is regenerated for the moved block. *)

open Tir_ir
open State

(* All loop variables (with extents) strictly inside [s]. *)
let inner_loop_ranges (s : Stmt.t) =
  let acc = ref Var.Map.empty in
  Stmt.iter
    (function
      | Stmt.For r -> acc := Var.Map.add r.loop_var (Bound.of_extent r.extent) !acc
      | _ -> ())
    s;
  !acc

(* Regions of [buffer] accessed (reads or writes per [select]) by block
   realizes inside [s], with block iterators substituted by their bindings
   and inner loops relaxed. *)
let accessed_regions ~select ~buffer (s : Stmt.t) =
  let relaxed = inner_loop_ranges s in
  let out = ref [] in
  Stmt.iter
    (function
      | Stmt.Block br ->
          let bind =
            List.fold_left2
              (fun m (iv : Stmt.iter_var) value -> Var.Map.add iv.var value m)
              Var.Map.empty br.block.iter_vars br.iter_values
          in
          List.iter
            (fun (r : Stmt.buffer_region) ->
              if Buffer.equal r.buffer buffer then
                let r =
                  {
                    r with
                    Stmt.region =
                      List.map (fun (mn, ext) -> (Expr.subst_map bind mn, ext)) r.region;
                  }
                in
                out := Tir_arith.Region.relax_region ~relaxed r :: !out)
            (select br.block)
      | _ -> ())
    s;
  List.rev !out

let union_all ranges = function
  | [] -> None
  | r :: rest -> Some (List.fold_left (Tir_arith.Region.union_region ranges) r rest)

(* The moved block's write (for compute_at) or read (for reverse) region
   must be trivial: one spatial iterator per dimension. *)
let trivial_dims (r : Stmt.buffer_region) =
  List.map
    (fun (mn, ext) ->
      match (mn, ext) with
      | Expr.Var v, 1 -> v
      | _ -> err "block accesses %a non-trivially; cannot relocate" Buffer.pp r.buffer)
    r.region

type role = Producer | Consumer

(* Rebuild the loop nest of [br] so that each spatial iterator [vi] runs
   over the required region dimension [min_i + [0, ext_i)], and each reduce
   iterator keeps its full domain. *)
let rebuild_nest t (br : Stmt.block_realize) (dim_vars : Var.t list)
    (required : (Expr.t * int) list) outer_ranges =
  ignore t;
  let b = br.Stmt.block in
  let iter_binding (iv : Stmt.iter_var) =
    match
      List.find_opt (fun (v, _) -> Var.equal v iv.var) (List.combine dim_vars required)
    with
    | Some (_, (mn, ext)) ->
        let lv = Var.fresh (Printer.loop_display_name iv.var) in
        ((lv, ext), Expr.add mn (Expr.Var lv), ext < iv.extent)
    | None ->
        (* Not constrained by the region (e.g. reduce iterators): full
           domain. *)
        let lv = Var.fresh (Printer.loop_display_name iv.var) in
        ((lv, iv.extent), Expr.Var lv, false)
  in
  let parts = List.map iter_binding b.iter_vars in
  let loops = List.map (fun (l, _, _) -> l) parts in
  let values = List.map (fun (_, v, _) -> v) parts in
  (* Guard iterators whose regenerated range could exceed the domain. *)
  let ranges =
    List.fold_left
      (fun m (lv, ext) -> Var.Map.add lv (Bound.of_extent ext) m)
      outer_ranges loops
  in
  let predicate =
    List.fold_left2
      (fun pred (iv : Stmt.iter_var) value ->
        match Bound.of_expr_map ranges value with
        | Some { Bound.lo; hi } when lo >= 0 && hi < iv.extent -> pred
        | _ -> Expr.and_ pred (Expr.lt value (Expr.Int iv.extent)))
      br.predicate b.iter_vars values
  in
  let realize = Stmt.Block { br with iter_values = values; predicate } in
  List.fold_right (fun (lv, ext) acc -> Stmt.for_ lv ext acc) loops realize

let move t role block_name loop_var =
  (* Identify the buffer that ties the moved block to the target scope. *)
  let _, br0 = block_path t block_name in
  let target_buffer, dim_vars =
    match role with
    | Producer -> (
        match br0.Stmt.block.writes with
        | [ w ] -> (w.Stmt.buffer, trivial_dims w)
        | _ -> err "compute_at: block %S must have exactly one write region" block_name)
    | Consumer -> (
        (* The consumed buffer is the one written inside the target loop. *)
        let _, rl = loop_path t loop_var in
        let written = Stmt.stored_buffers (Stmt.For rl) in
        match
          List.filter
            (fun (r : Stmt.buffer_region) -> Buffer.Set.mem r.buffer written)
            br0.Stmt.block.reads
        with
        | [ r ] -> (r.Stmt.buffer, trivial_dims r)
        | _ -> err "reverse_compute_at: ambiguous or missing consumed buffer")
  in
  (* Detach the block, then locate the (still present) target loop. *)
  let br = remove_block t block_name in
  let path_l, rl = loop_path t loop_var in
  let outer_ranges =
    Var.Map.add rl.Stmt.loop_var (Bound.of_extent rl.Stmt.extent)
      (Zipper.ranges_of_path path_l)
  in
  let select (b : Stmt.block) =
    match role with Producer -> b.Stmt.reads | Consumer -> b.Stmt.writes
  in
  let regions = accessed_regions ~select ~buffer:target_buffer rl.Stmt.body in
  let required =
    match union_all outer_ranges regions with
    | Some r ->
        let ctx = simplify_ctx path_l in
        List.map (fun (mn, ext) -> (Tir_arith.Simplify.simplify ctx mn, ext)) r.Stmt.region
    | None ->
        err "no block inside loop %a accesses buffer %a" Var.pp loop_var Buffer.pp
          target_buffer
  in
  let nest = rebuild_nest t br dim_vars required outer_ranges in
  let new_body =
    match role with
    | Producer -> Stmt.seq [ nest; rl.Stmt.body ]
    | Consumer -> Stmt.seq [ rl.Stmt.body; nest ]
  in
  replace t path_l (Stmt.For { rl with body = new_body })

(** Move producer [block_name] so it computes, just-in-time, the region
    consumed inside [loop_var]'s subtree. *)
let compute_at t block_name loop_var = move t Producer block_name loop_var

(** Move consumer [block_name] so it consumes, immediately, the region
    produced inside [loop_var]'s subtree. *)
let reverse_compute_at t block_name loop_var = move t Consumer block_name loop_var

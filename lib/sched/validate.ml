(** Program validation (paper §3.3).

    Three families of checks, used both to reject ill-formed user programs
    and to filter false positives during evolutionary search:

    - {b loop-nest validation}: every block's iterator bindings must form a
      bijective quasi-affine mapping from the enclosing loops, with domains
      matching the declared iterator extents, and reduction iterators must
      not be bound to parallelized loops;
    - {b producer/consumer coverage}: writes to every intermediate buffer
      must cover all downstream reads, and producers must precede consumers;
    - {b threading validation}: thread-axis consistency and launch limits,
      warp execution scope for warp-level intrinsics, and cooperative-fetch
      grouping for shared-memory buffers.

    Every store, load and pointer must also give one index per dimension
    of its buffer: the analyzers and the machine model pair indices with
    the shape and assume they match. *)

open Tir_ir
module Iter_map = Tir_arith.Iter_map
module Region = Tir_arith.Region

type issue = { block : string; context : string; message : string }

let issue ?(context = "") block fmt =
  Fmt.kstr (fun message -> { block; context; message }) fmt

let pp_issue ppf i =
  if String.equal i.context "" then Fmt.pf ppf "[%s] %s" i.block i.message
  else Fmt.pf ppf "[%s] (loops %s) %s" i.block i.context i.message

(* Stable output order (block, message, context), duplicates collapsed:
   lint output and test expectations stay deterministic. *)
let compare_issue a b =
  let c = String.compare a.block b.block in
  if c <> 0 then c
  else
    let c = String.compare a.message b.message in
    if c <> 0 then c else String.compare a.context b.context

(* Walking context. *)
type ctx = {
  block : string;  (** innermost enclosing block *)
  loops : (Var.t * int * Stmt.for_kind) list;  (** innermost first *)
  ranges : Bound.interval Var.Map.t;
  threads : (string * int * Var.t) list;  (** thread axis, extent, loop var *)
  order : int ref;  (** pre-order counter for ordering checks *)
}

type access = {
  a_block : string;
  a_hull : Region.hull;
  a_order : int;
  a_blockidx : Var.t list;  (** enclosing blockIdx-bound loop vars *)
  a_threads : string list;
}

let max_threads_per_block = 1024
let warp_size = 32

let kind_of_loop ctx v =
  List.find_map
    (fun (lv, _, kind) -> if Var.equal lv v then Some kind else None)
    ctx.loops

(* Enclosing loop/axis chain, outermost first, for issue context. *)
let loops_desc ctx =
  String.concat " > "
    (List.rev_map
       (fun (v, _, kind) ->
         match kind with
         | Stmt.Thread_binding th -> Fmt.str "%a[%s]" Var.pp v th
         | _ -> Fmt.str "%a" Var.pp v)
       ctx.loops)

(* Loop-nest validation for one block realize. *)
let check_realize ctx (br : Stmt.block_realize) =
  let b = br.Stmt.block in
  let domain = List.rev_map (fun (v, e, _) -> (v, e)) ctx.loops in
  let issues = ref [] in
  let add i = issues := i :: !issues in
  let context = lazy (loops_desc ctx) in
  (match Iter_map.detect ~domain ~bindings:br.Stmt.iter_values with
  | Error msg -> add (issue ~context:(Lazy.force context) b.name "iterator binding is not bijective affine: %s" msg)
  | Ok { Iter_map.sums; extents } ->
      List.iter
        (fun ((iv : Stmt.iter_var), ext) ->
          if ext > iv.extent && Expr.equal br.Stmt.predicate (Expr.Bool true) then
            add
              (issue ~context:(Lazy.force context) b.name "binding of %a spans %d > domain %d without a predicate"
                 Var.pp iv.var ext iv.extent)
          else if ext < iv.extent then
            add
              (issue ~context:(Lazy.force context) b.name "binding of %a spans %d < domain %d" Var.pp iv.var ext
                 iv.extent))
        (List.combine b.iter_vars extents);
      (* Reduction iterators must not be bound to parallel loops. *)
      List.iter2
        (fun (iv : Stmt.iter_var) (s : Iter_map.sum) ->
          if iv.itype = Stmt.Reduce then
            List.iter
              (fun (sp : Iter_map.split) ->
                match kind_of_loop ctx sp.Iter_map.source with
                | Some (Stmt.Parallel | Stmt.Vectorized) ->
                    add
                      (issue ~context:(Lazy.force context) b.name "reduction iterator %a bound to parallel loop %a"
                         Var.pp iv.var Var.pp sp.Iter_map.source)
                | Some (Stmt.Thread_binding th) ->
                    add
                      (issue ~context:(Lazy.force context) b.name
                         "reduction iterator %a bound to thread axis %s (atomic \
                          reduction unsupported)"
                         Var.pp iv.var th)
                | _ -> ())
              s.Iter_map.splits)
        b.iter_vars sums);
  !issues

(* Thread-axis consistency along the current path. *)
let check_threads ctx (b : Stmt.block) =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  let context = lazy (loops_desc ctx) in
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (axis, ext, _) ->
      match Hashtbl.find_opt tally axis with
      | Some ext' when ext' <> ext ->
          add (issue ~context:(Lazy.force context) b.name "thread axis %s bound twice with extents %d and %d" axis ext' ext)
      | Some _ -> add (issue ~context:(Lazy.force context) b.name "thread axis %s bound twice on one path" axis)
      | None -> Hashtbl.add tally axis ext)
    ctx.threads;
  let product =
    Hashtbl.fold
      (fun axis ext acc ->
        if String.length axis >= 9 && String.sub axis 0 9 = "threadIdx" then acc * ext
        else acc)
      tally 1
  in
  if product > max_threads_per_block then
    add (issue ~context:(Lazy.force context) b.name "thread block size %d exceeds limit %d" product max_threads_per_block);
  (* Execution scope of warp-level intrinsics. *)
  (match List.assoc_opt "tensorized" b.annotations with
  | Some intrin_name -> (
      match Tir_intrin.Tensor_intrin.lookup intrin_name with
      | intrin ->
          if intrin.Tir_intrin.Tensor_intrin.exec_scope = Tir_intrin.Tensor_intrin.Warp
          then begin
            if List.exists (fun (axis, _, _) -> String.equal axis "threadIdx.x") ctx.threads
            then
              add
                (issue ~context:(Lazy.force context) b.name
                   "warp-scope intrinsic %s must not execute under a threadIdx.x \
                    lane binding"
                   intrin_name)
          end
      | exception Tir_intrin.Tensor_intrin.Not_registered _ ->
          add (issue ~context:(Lazy.force context) b.name "unknown intrinsic %s" intrin_name))
  | None -> ());
  !issues

(* Accesses in the expressions of one statement (not of the statements
   nested in it) whose index count differs from the buffer's rank. *)
let check_ranks block (s : Stmt.t) =
  let issues = ref [] in
  let check (buf : Buffer.t) idx =
    let n = List.length idx and rank = List.length buf.Buffer.shape in
    if n <> rank then
      issues := issue block "access to %a has %d indices, rank %d" Buffer.pp buf n rank :: !issues
  in
  let expr =
    Expr.iter (function Expr.Load (buf, idx) | Expr.Ptr (buf, idx) -> check buf idx | _ -> ())
  in
  (match s with
  | Stmt.Store (buf, idx, v) ->
      check buf idx;
      List.iter expr idx;
      expr v
  | Stmt.Eval e | Stmt.If (e, _, _) -> expr e
  | Stmt.Block br ->
      List.iter expr br.Stmt.iter_values;
      expr br.Stmt.predicate
  | Stmt.For _ | Stmt.Seq _ -> ());
  !issues

(* Record the read/write hulls of a realize, with every variable in scope
   relaxed. *)
let record_accesses ctx (br : Stmt.block_realize) reads_acc writes_acc =
  let b = br.Stmt.block in
  let bind =
    List.fold_left2
      (fun m (iv : Stmt.iter_var) value -> Var.Map.add iv.var value m)
      Var.Map.empty b.iter_vars br.Stmt.iter_values
  in
  let blockidx =
    List.filter_map
      (fun (axis, _, v) ->
        if String.length axis >= 8 && String.sub axis 0 8 = "blockIdx" then Some v
        else None)
      ctx.threads
  in
  let threads = List.map (fun (axis, _, _) -> axis) ctx.threads in
  let note acc (r : Stmt.buffer_region) =
    let r' =
      { r with Stmt.region = List.map (fun (mn, ext) -> (Expr.subst_map bind mn, ext)) r.Stmt.region }
    in
    let hull = Region.clip r.Stmt.buffer (Region.hull_or_full ctx.ranges r') in
    let prev = Option.value ~default:[] (Hashtbl.find_opt acc r.Stmt.buffer.Buffer.id) in
    Hashtbl.replace acc r.Stmt.buffer.Buffer.id
      ({ a_block = b.name; a_hull = hull; a_order = !(ctx.order); a_blockidx = blockidx; a_threads = threads } :: prev)
  in
  List.iter (note reads_acc) b.reads;
  List.iter (note writes_acc) b.writes

(** Validate a function; returns all issues found (empty = valid). *)
let check_func (f : Primfunc.t) : issue list =
  let issues = ref [] in
  let reads_acc = Hashtbl.create 16 and writes_acc = Hashtbl.create 16 in
  let order = ref 0 in
  let rec walk ctx (s : Stmt.t) =
    incr ctx.order;
    let block =
      match s with Stmt.Block br -> br.Stmt.block.Stmt.name | _ -> ctx.block
    in
    issues := check_ranks block s @ !issues;
    match s with
    | Stmt.For r ->
        let threads =
          match r.kind with
          | Stmt.Thread_binding th -> (th, r.extent, r.loop_var) :: ctx.threads
          | _ -> ctx.threads
        in
        walk
          {
            ctx with
            loops = (r.loop_var, r.extent, r.kind) :: ctx.loops;
            ranges = Var.Map.add r.loop_var (Bound.of_extent r.extent) ctx.ranges;
            threads;
          }
          r.body
    | Stmt.Block br ->
        let b = br.Stmt.block in
        if not (String.equal b.name Primfunc.root_block_name) then begin
          issues := check_realize ctx br @ check_threads ctx b @ !issues;
          record_accesses ctx br reads_acc writes_acc
        end;
        let ranges =
          List.fold_left
            (fun m (iv : Stmt.iter_var) -> Var.Map.add iv.var (Bound.of_extent iv.extent) m)
            ctx.ranges b.iter_vars
        in
        (* Block iterators act as loops for nested blocks. *)
        let loops =
          List.fold_left
            (fun acc (iv : Stmt.iter_var) -> (iv.var, iv.extent, Stmt.Serial) :: acc)
            ctx.loops b.iter_vars
        in
        let ctx' = { ctx with block; ranges; loops } in
        Option.iter (walk ctx') b.init;
        walk ctx' b.body
    | Stmt.Seq ss -> List.iter (walk ctx) ss
    | Stmt.If (_, th, el) ->
        walk ctx th;
        Option.iter (walk ctx) el
    | Stmt.Store _ | Stmt.Eval _ -> ()
  in
  walk
    { block = Primfunc.root_block_name; loops = []; ranges = Var.Map.empty; threads = []; order }
    f.Primfunc.body;
  (* Coverage and ordering for intermediate buffers. *)
  let allocs = Primfunc.alloc_buffers f in
  List.iter
    (fun (buf : Buffer.t) ->
      match Hashtbl.find_opt reads_acc buf.Buffer.id with
      | None -> ()
      | Some reads -> (
          match Hashtbl.find_opt writes_acc buf.Buffer.id with
          | None ->
              issues :=
                issue "-" "buffer %a is read but never written" Buffer.pp buf :: !issues
          | Some writes ->
              let whull =
                List.fold_left
                  (fun acc w -> Region.union_hull acc w.a_hull)
                  (List.hd writes).a_hull (List.tl writes)
              in
              List.iter
                (fun r ->
                  if not (Region.covers whull r.a_hull) then
                    issues :=
                      issue r.a_block "writes to %a do not cover its reads" Buffer.pp buf
                      :: !issues)
                reads;
              let first_write = List.fold_left (fun acc w -> min acc w.a_order) max_int writes in
              List.iter
                (fun r ->
                  if r.a_order < first_write then
                    issues :=
                      issue r.a_block "reads %a before any producer writes it" Buffer.pp
                        buf
                      :: !issues)
                reads;
              (* Cooperative fetch grouping: shared-memory producers and
                 consumers must agree on their blockIdx loops. *)
              if String.equal buf.Buffer.scope "shared" then
                List.iter
                  (fun r ->
                    List.iter
                      (fun w ->
                        if
                          not
                            (List.length r.a_blockidx = List.length w.a_blockidx
                            && List.for_all2 Var.equal r.a_blockidx w.a_blockidx)
                        then
                          issues :=
                            issue r.a_block
                              "shared buffer %a crosses thread-block boundaries \
                               (producer %s)"
                              Buffer.pp buf w.a_block
                            :: !issues)
                      writes)
                  reads))
    allocs;
  List.sort_uniq compare_issue !issues

let is_valid f = check_func f = []

(** Raise [State.Schedule_error] when invalid (for tests and the CLI). *)
let check_exn f =
  match check_func f with
  | [] -> ()
  | is ->
      State.err "validation failed:@,%a" (Fmt.list ~sep:Fmt.cut pp_issue) is

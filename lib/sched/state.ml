(** Schedule state: the current program plus lookup helpers.

    A schedule wraps a PrimFunc; every primitive is a pure transformation
    applied by replacing [func]. Loops are referenced by their loop
    variables (globally unique), blocks by their (unique) names — both act
    as the "random variables" of TVM's schedule API.

    The state carries a {!Trace.builder}: the facade ([Schedule]) appends
    one typed instruction per applied primitive, so the application history
    is first-class data — serializable, replayable, mutable — rather than a
    write-only string log. *)

open Tir_ir

exception Schedule_error of string

let err fmt = Fmt.kstr (fun s -> raise (Schedule_error s)) fmt

type t = {
  mutable func : Primfunc.t;
  mutable name_counter : int;
  mutable tr : Trace.builder;  (** applied primitives, typed *)
  mutable cache_node : int;
      (** current {!Apply_cache} chain node; 0 = run every step directly *)
}

let create func = { func; name_counter = 0; tr = Trace.builder (); cache_node = 0 }

(** Like [create], but facade primitives applied to this state follow the
    per-domain {!Apply_cache} while it hits: a step already applied to this
    exact state (same chain of primitives from the same physical base
    function) adopts the cached result instead of re-running the transform.
    The first miss stores one snapshot and sets the chain node to 0, after
    which every step runs directly. Safe only because every entity the
    caller can hold was derived from this state's own lineage — sketch
    application and trace replay qualify; states that receive externally
    created loop [Var]s or [Buffer]s must use [create]. *)
let create_cached func =
  { (create func) with cache_node = Apply_cache.base_node func }

let func t = t.func

let copy t = { t with tr = Trace.clone t.tr }

let builder t = t.tr

let cache_node t = t.cache_node
let set_cache_node t n = t.cache_node <- n
let name_counter t = t.name_counter

(** Replace the whole mutable state with a cached snapshot (apply-cache
    hit). [tr] must be a fresh clone — the caller keeps mutating it. *)
let adopt t ~func ~name_counter ~tr ~node =
  t.func <- func;
  t.name_counter <- name_counter;
  t.tr <- tr;
  t.cache_node <- node

(** Applied primitives as a typed trace, oldest first. *)
let instructions t = Trace.instrs t.tr

(** Applied primitives rendered as script lines, oldest first. *)
let trace t = List.map Trace.instr_to_string (instructions t)

let pp_trace ppf t =
  Fmt.pf ppf "@[<v># schedule trace (%d primitives)@,%a@]" (Trace.length t.tr)
    Trace.pp (instructions t)

(** A fresh block/buffer name unique within this schedule. *)
let fresh_name t base =
  t.name_counter <- t.name_counter + 1;
  Printf.sprintf "%s_%d" base t.name_counter

let body t = t.func.Primfunc.body

let set_body t body = t.func <- { t.func with Primfunc.body }

(** Locate a loop by its variable; raises if absent. *)
let loop_path t v =
  match Zipper.find_loop (body t) v with
  | Some (path, Stmt.For r) -> (path, r)
  | _ -> err "loop %a not found" Var.pp v

(** Locate a block realize by name; raises if absent. *)
let block_path t name =
  match Zipper.find_block_realize (body t) name with
  | Some (path, Stmt.Block br) -> (path, br)
  | _ -> err "block %S not found" name

let get_block t name = (snd (block_path t name)).Stmt.block

(** Loop variables enclosing the named block, outermost first. *)
let get_loops t name =
  let path, _ = block_path t name in
  List.map (fun (v, _, _) -> v) (Zipper.loops_of_path path)

let loop_extent t v = (snd (loop_path t v)).Stmt.extent

(** Replace the subtree at [path] with [subtree]. *)
let replace t path subtree = set_body t (Zipper.rebuild path subtree)

(** Root-allocated intermediate buffers. *)
let alloc_buffers t = Primfunc.alloc_buffers t.func

let add_alloc t buf =
  t.func <- Primfunc.with_alloc t.func (alloc_buffers t @ [ buf ])

let remove_alloc t buf =
  t.func <-
    Primfunc.with_alloc t.func
      (List.filter (fun b -> not (Buffer.equal b buf)) (alloc_buffers t))

(** All non-root blocks, pre-order. *)
let blocks t = Primfunc.blocks t.func

(** Simplification context from the ranges in scope at [path]. *)
let simplify_ctx path = { Tir_arith.Simplify.ranges = Zipper.ranges_of_path path }

let simpl path e = Tir_arith.Simplify.simplify (simplify_ctx path) e

(** Prune loops whose body is an empty sequence (used after removing a
    block from its nest). *)
let rec prune_empty (s : Stmt.t) : Stmt.t option =
  match s with
  | Stmt.For r -> (
      match prune_empty r.body with
      | None -> None
      | Some body -> Some (Stmt.For { r with body }))
  | Stmt.Seq ss -> (
      match List.filter_map prune_empty ss with
      | [] -> None
      | ss' -> Some (Stmt.seq ss'))
  | Stmt.If (c, th, el) -> (
      match (prune_empty th, Option.map prune_empty el) with
      | None, (None | Some None) -> None
      | Some th', (None | Some None) -> Some (Stmt.If (c, th', None))
      | None, Some (Some el') -> Some (Stmt.If (Expr.not_ c, el', None))
      | Some th', Some (Some el') -> Some (Stmt.If (c, th', Some el')))
  | Stmt.Block br -> (
      match prune_empty br.block.body with
      | None -> None
      | Some body -> Some (Stmt.Block { br with block = { br.block with body } }))
  | Stmt.Store _ | Stmt.Eval _ -> Some s

(** Remove the realize of block [name] from the tree, pruning emptied
    loops. Returns the removed realize. *)
let remove_block t name =
  let path, br = block_path t name in
  (* Rebuild with an empty Seq in place of the block, then prune. *)
  let rebuilt = Zipper.rebuild path (Stmt.Seq []) in
  (match prune_empty rebuilt with
  | Some body -> set_body t body
  | None -> err "removing block %S empties the function" name);
  br

let pp_schedule ppf t = Printer.pp_func ppf t.func

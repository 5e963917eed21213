(** Statements: loop nests, blocks, buffer stores.

    The [block] mirrors the paper's Figure 5: iterator variables with
    domains and kinds (spatial / reduce), read and write buffer regions, an
    optional reduction-initialization statement, allocated sub-buffers, and
    an opaque body. A [Block] statement is a *block realize*: it binds each
    block iterator to an expression over the surrounding loop variables. *)

type for_kind =
  | Serial
  | Parallel
  | Vectorized
  | Unrolled
  | Thread_binding of string
      (** GPU-style thread axes, e.g. ["blockIdx.x"], ["threadIdx.y"] *)

type iter_type = Spatial | Reduce | Opaque

type iter_var = { var : Var.t; extent : int; itype : iter_type }

(** Per-dimension [(min, extent)] with a constant extent; static shapes make
    constant extents sufficient and keep cover checks exact. *)
type buffer_region = { buffer : Buffer.t; region : (Expr.t * int) list }

type t =
  | For of for_
  | Block of block_realize
  | Store of Buffer.t * Expr.t list * Expr.t
  | Seq of t list
  | If of Expr.t * t * t option
  | Eval of Expr.t

and for_ = {
  loop_var : Var.t;
  extent : int;
  kind : for_kind;
  body : t;
  annotations : (string * string) list;
}

and block_realize = { iter_values : Expr.t list; predicate : Expr.t; block : block }

and block = {
  name : string;
  iter_vars : iter_var list;
  reads : buffer_region list;
  writes : buffer_region list;
  init : t option;
  alloc : Buffer.t list;
  annotations : (string * string) list;
  body : t;
}

let iter_var ?(itype = Spatial) var extent = { var; extent; itype }

let for_kind_to_string = function
  | Serial -> "serial"
  | Parallel -> "parallel"
  | Vectorized -> "vectorized"
  | Unrolled -> "unroll"
  | Thread_binding th -> th

let iter_type_to_string = function
  | Spatial -> "spatial"
  | Reduce -> "reduce"
  | Opaque -> "opaque"

(** Sequence smart constructor: flattens nested [Seq] and drops empties. *)
let seq stmts =
  let rec flatten acc = function
    | [] -> List.rev acc
    | Seq ss :: rest -> flatten acc (ss @ rest)
    | s :: rest -> flatten (s :: acc) rest
  in
  match flatten [] stmts with [ s ] -> s | ss -> Seq ss

let for_ ?(kind = Serial) ?(annotations = []) loop_var extent body =
  For { loop_var; extent; kind; body; annotations }

let block_realize ?(predicate = Expr.Bool true) iter_values block =
  Block { iter_values; predicate; block }

let make_block ?(init = None) ?(alloc = []) ?(annotations = []) ~name ~iter_vars
    ~reads ~writes body =
  { name; iter_vars; reads; writes; init; alloc; annotations; body }

(* ------------------------------------------------------------------ *)
(* Structural equality                                                *)
(* ------------------------------------------------------------------ *)

let list_equal eq a b = List.length a = List.length b && List.for_all2 eq a b

let region_equal r1 r2 =
  Buffer.equal r1.buffer r2.buffer
  && list_equal
       (fun (m1, e1) (m2, e2) -> Expr.equal m1 m2 && e1 = e2)
       r1.region r2.region

let iter_var_equal i1 i2 =
  Var.equal i1.var i2.var && i1.extent = i2.extent && i1.itype = i2.itype

(** Structural equality; physical identity is a fast path, so subtrees a
    rebuild shares compare in O(1). *)
let rec equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | For r1, For r2 ->
      Var.equal r1.loop_var r2.loop_var
      && r1.extent = r2.extent && r1.kind = r2.kind
      && r1.annotations = r2.annotations && equal r1.body r2.body
  | Block b1, Block b2 ->
      let k1 = b1.block and k2 = b2.block in
      list_equal Expr.equal b1.iter_values b2.iter_values
      && Expr.equal b1.predicate b2.predicate
      && String.equal k1.name k2.name
      && list_equal iter_var_equal k1.iter_vars k2.iter_vars
      && list_equal region_equal k1.reads k2.reads
      && list_equal region_equal k1.writes k2.writes
      && Option.equal equal k1.init k2.init
      && list_equal Buffer.equal k1.alloc k2.alloc
      && k1.annotations = k2.annotations
      && equal k1.body k2.body
  | Store (b1, i1, v1), Store (b2, i2, v2) ->
      Buffer.equal b1 b2 && list_equal Expr.equal i1 i2 && Expr.equal v1 v2
  | Seq s1, Seq s2 -> list_equal equal s1 s2
  | If (c1, t1, e1), If (c2, t2, e2) ->
      Expr.equal c1 c2 && equal t1 t2 && Option.equal equal e1 e2
  | Eval e1, Eval e2 -> Expr.equal e1 e2
  | _ -> false

(** [map_children f s] rebuilds [s] with [f] applied to each direct child
    statement (entering blocks' init and body). *)
let map_children f s =
  match s with
  | For r -> For { r with body = f r.body }
  | Block br ->
      let block = br.block in
      Block
        {
          br with
          block = { block with body = f block.body; init = Option.map f block.init };
        }
  | Store _ | Eval _ -> s
  | Seq ss -> seq (List.map f ss)
  | If (c, t, e) -> If (c, f t, Option.map f e)

let rec map_exprs fe s =
  match s with
  | For r -> For { r with body = map_exprs fe r.body }
  | Block br ->
      let b = br.block in
      let region_map { buffer; region } =
        { buffer; region = List.map (fun (mn, ext) -> (fe mn, ext)) region }
      in
      Block
        {
          iter_values = List.map fe br.iter_values;
          predicate = fe br.predicate;
          block =
            {
              b with
              reads = List.map region_map b.reads;
              writes = List.map region_map b.writes;
              init = Option.map (map_exprs fe) b.init;
              body = map_exprs fe b.body;
            };
        }
  | Store (buf, idx, v) -> Store (buf, List.map fe idx, fe v)
  | Seq ss -> seq (List.map (map_exprs fe) ss)
  | If (c, t, e) -> If (fe c, map_exprs fe t, Option.map (map_exprs fe) e)
  | Eval e -> Eval (fe e)

(** Substitute free variables in every expression position. Block iterator
    variables are binders, so they shadow outer substitutions. *)
let rec subst lookup s =
  match s with
  | Block br ->
      let b = br.block in
      let shadowed v =
        if List.exists (fun iv -> Var.equal iv.var v) b.iter_vars then None
        else lookup v
      in
      let fe_outer = Expr.subst lookup in
      let region_map { buffer; region } =
        (* Region mins refer to block iter vars, keep inner scoping. *)
        { buffer; region = List.map (fun (mn, ext) -> (Expr.subst shadowed mn, ext)) region }
      in
      Block
        {
          iter_values = List.map fe_outer br.iter_values;
          predicate = fe_outer br.predicate;
          block =
            {
              b with
              reads = List.map region_map b.reads;
              writes = List.map region_map b.writes;
              init = Option.map (subst shadowed) b.init;
              body = subst shadowed b.body;
            };
        }
  | For r ->
      let shadowed v = if Var.equal v r.loop_var then None else lookup v in
      For { r with body = subst shadowed r.body }
  | _ -> map_exprs (Expr.subst lookup) (map_children (subst lookup) s)

let subst_map map s = subst (fun v -> Var.Map.find_opt v map) s

let rec replace_buffer ~from ~to_ s =
  let fe = Expr.replace_buffer ~from ~to_ in
  let swap b = if Buffer.equal b from then to_ else b in
  let s = map_exprs fe (map_children (replace_buffer ~from ~to_) s) in
  match s with
  | Store (b, idx, v) -> Store (swap b, idx, v)
  | Block br ->
      let bl = br.block in
      let region_map r = { r with buffer = swap r.buffer } in
      Block
        {
          br with
          block =
            {
              bl with
              reads = List.map region_map bl.reads;
              writes = List.map region_map bl.writes;
            };
        }
  | _ -> s

(** Depth-first visit of every statement (pre-order), entering block bodies
    and init statements. *)
let rec iter f s =
  f s;
  match s with
  | For r -> iter f r.body
  | Block br ->
      Option.iter (iter f) br.block.init;
      iter f br.block.body
  | Seq ss -> List.iter (iter f) ss
  | If (_, t, e) ->
      iter f t;
      Option.iter (iter f) e
  | Store _ | Eval _ -> ()

let iter_exprs f s =
  let visit_region r = List.iter (fun (mn, _) -> f mn) r.region in
  iter
    (fun s ->
      match s with
      | Store (_, idx, v) ->
          List.iter f idx;
          f v
      | Eval e -> f e
      | If (c, _, _) -> f c
      | For _ | Seq _ -> ()
      | Block br ->
          List.iter f br.iter_values;
          f br.predicate;
          List.iter visit_region br.block.reads;
          List.iter visit_region br.block.writes)
    s

(** All blocks in [s], pre-order. *)
let collect_blocks s =
  let acc = ref [] in
  iter (function Block br -> acc := br :: !acc | _ -> ()) s;
  List.rev !acc

let find_block s name =
  List.find_opt (fun br -> String.equal br.block.name name) (collect_blocks s)

(** Buffers written (via [Store]) anywhere in [s]. *)
let stored_buffers s =
  let acc = ref Buffer.Set.empty in
  iter (function Store (b, _, _) -> acc := Buffer.Set.add b !acc | _ -> ()) s;
  !acc

(** Buffers loaded in any expression position of [s]. *)
let loaded_buffers s =
  let acc = ref Buffer.Set.empty in
  let visit e = acc := Buffer.Set.union (Expr.loaded_buffers e) !acc in
  iter
    (function
      | Store (_, idx, v) ->
          List.iter visit idx;
          visit v
      | Eval e -> visit e
      | If (c, _, _) -> visit c
      | _ -> ())
    s;
  !acc

(** Find the binding value of a block iterator by variable. *)
let binding_of (br : block_realize) (v : Var.t) =
  let rec go ivs vals =
    match (ivs, vals) with
    | iv :: _, value :: _ when Var.equal iv.var v -> Some value
    | _ :: ivs, _ :: vals -> go ivs vals
    | _ -> None
  in
  go br.block.iter_vars br.iter_values

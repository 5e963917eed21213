(** Statements: loop nests, blocks, buffer stores.

    The [block] mirrors the paper's Figure 5: iterator variables with
    domains and kinds (spatial / reduce), read and write buffer regions, an
    optional reduction-initialization statement, allocated sub-buffers, and
    the body. A [Block] statement is a *block realize*: it binds each block
    iterator to an expression over the surrounding loop variables. *)

type for_kind =
  | Serial
  | Parallel
  | Vectorized
  | Unrolled
  | Thread_binding of string
      (** GPU thread axes, e.g. ["blockIdx.x"], ["threadIdx.y"] *)

type iter_type = Spatial | Reduce | Opaque

type iter_var = { var : Var.t; extent : int; itype : iter_type }

(** Per-dimension [(min, extent)]; extents are constant (static shapes). *)
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

and block_realize = {
  iter_values : Expr.t list;  (** one binding per [block.iter_vars] *)
  predicate : Expr.t;  (** instance guard (padding / non-divisible splits) *)
  block : block;
}

and block = {
  name : string;  (** unique within a function *)
  iter_vars : iter_var list;
  reads : buffer_region list;
  writes : buffer_region list;
  init : t option;  (** runs on the first reduction instance *)
  alloc : Buffer.t list;  (** buffers scoped to this block *)
  annotations : (string * string) list;
  body : t;
}

val iter_var : ?itype:iter_type -> Var.t -> int -> iter_var
val for_kind_to_string : for_kind -> string
val iter_type_to_string : iter_type -> string

(** Flattens nested [Seq] and drops empties; single statements unwrap. *)
val seq : t list -> t

val for_ :
  ?kind:for_kind -> ?annotations:(string * string) list -> Var.t -> int -> t -> t

val block_realize : ?predicate:Expr.t -> Expr.t list -> block -> t

val make_block :
  ?init:t option ->
  ?alloc:Buffer.t list ->
  ?annotations:(string * string) list ->
  name:string ->
  iter_vars:iter_var list ->
  reads:buffer_region list ->
  writes:buffer_region list ->
  t ->
  block

(** Structural equality (expressions via [Expr.equal], variables and
    buffers by id); physical identity is a fast path, so subtrees a
    rebuild shares compare in O(1). *)
val equal : t -> t -> bool

(** Rebuild with [f] on each direct child statement (enters block init and
    body). *)
val map_children : (t -> t) -> t -> t

(** Rebuild with [fe] on every expression position (indices, values,
    predicates, bindings, region mins), and with [buffer] (default: the
    identity) on the buffer of every store and declared region. One pass:
    each expression is rewritten once. *)
val map_exprs : ?buffer:(Buffer.t -> Buffer.t) -> (Expr.t -> Expr.t) -> t -> t

(** Substitute free variables; loop variables and block iterators are
    binders and shadow the substitution in their scope, under [Seq] and
    [If] too. One pass: each expression is rewritten once, so the cost is
    linear in the size of the statement. *)
val subst : (Var.t -> Expr.t option) -> t -> t

val subst_map : Expr.t Var.Map.t -> t -> t

(** Swap buffer [from] for [to_] in stores, loads, pointers and declared
    read/write regions; allocations keep [from]. One pass, linear in the
    size of the statement. *)
val replace_buffer : from:Buffer.t -> to_:Buffer.t -> t -> t

(** Pre-order visit of every statement, entering block bodies and inits. *)
val iter : (t -> unit) -> t -> unit

val iter_exprs : (Expr.t -> unit) -> t -> unit
val collect_blocks : t -> block_realize list
val find_block : t -> string -> block_realize option
val stored_buffers : t -> Buffer.Set.t
val loaded_buffers : t -> Buffer.Set.t

(** Binding value of a block iterator within a realize. *)
val binding_of : block_realize -> Var.t -> Expr.t option

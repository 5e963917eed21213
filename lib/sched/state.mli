(** Schedule state: the current program plus lookup helpers.

    The record is exposed because primitive modules ([Loop_transform],
    [Cache], ...) replace [func] directly; everything else should go
    through the accessors. The trace builder is reachable only via
    [builder], which the facade ([Schedule]) uses to append one typed
    instruction per applied primitive. *)

open Tir_ir

exception Schedule_error of string

(** Raise [Schedule_error] with a formatted message. *)
val err : ('a, Format.formatter, unit, 'b) format4 -> 'a

type t = {
  mutable func : Primfunc.t;
  mutable name_counter : int;
  mutable tr : Trace.builder;  (** applied primitives, typed *)
  mutable cache_node : int;
      (** current {!Apply_cache} chain node; 0 = run every step directly *)
}

val create : Primfunc.t -> t

(** Like [create], but facade primitives follow the per-domain
    {!Apply_cache} while it hits: a step already applied to this exact
    state (same chain of primitives from the same physical base function)
    adopts the cached result instead of re-running the transform. The
    first miss stores one snapshot and sets the chain node to 0, after
    which every step runs directly. Safe only when every loop [Var] /
    [Buffer] handed to primitives derives from this state's own lineage —
    sketch application and trace replay qualify; callers passing
    externally created entities must use [create]. *)
val create_cached : Primfunc.t -> t

val func : t -> Primfunc.t

(** Independent copy: shares no mutable state with the original. *)
val copy : t -> t

(** The trace recording state (used by the [Schedule] facade). *)
val builder : t -> Trace.builder

(** {2 Apply-cache plumbing (used by the [Schedule] facade)} *)

val cache_node : t -> int
val set_cache_node : t -> int -> unit
val name_counter : t -> int

(** Replace the whole mutable state with a cached snapshot (apply-cache
    hit). [tr] must be a fresh clone — the caller keeps mutating it. *)
val adopt :
  t -> func:Primfunc.t -> name_counter:int -> tr:Trace.builder -> node:int -> unit

(** Applied primitives as a typed trace, oldest first. *)
val instructions : t -> Trace.t

(** [instructions] rendered as script lines, oldest first. *)
val trace : t -> string list

val pp_trace : Format.formatter -> t -> unit

(** A fresh block/buffer name unique within this schedule. *)
val fresh_name : t -> string -> string

val body : t -> Stmt.t
val set_body : t -> Stmt.t -> unit

(** Path and record of the loop with this variable; raises if absent. *)
val loop_path : t -> Var.t -> Zipper.path * Stmt.for_

(** Path and realize of the named block; raises if absent. *)
val block_path : t -> string -> Zipper.path * Stmt.block_realize

val get_block : t -> string -> Stmt.block

(** Loop variables enclosing the named block, outermost first. Untraced —
    the facade's [Schedule.get_loops] records a [Get_loops] instruction. *)
val get_loops : t -> string -> Var.t list

val loop_extent : t -> Var.t -> int

(** Replace the subtree at [path] with [subtree]. *)
val replace : t -> Zipper.path -> Stmt.t -> unit

(** Root-allocated intermediate buffers. *)
val alloc_buffers : t -> Buffer.t list

val add_alloc : t -> Buffer.t -> unit
val remove_alloc : t -> Buffer.t -> unit

(** All non-root blocks, pre-order. *)
val blocks : t -> Stmt.block_realize list

(** Simplification context from the ranges in scope at [path]. *)
val simplify_ctx : Zipper.path -> Tir_arith.Simplify.ctx

(** Prune loops whose body is an empty sequence. *)
val prune_empty : Stmt.t -> Stmt.t option

(** Remove the realize of block [name] from the tree, pruning emptied
    loops. Returns the removed realize. *)
val remove_block : t -> string -> Stmt.block_realize

val pp_schedule : Format.formatter -> t -> unit

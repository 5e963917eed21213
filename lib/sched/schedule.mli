(** Schedule facade: the complete primitive set of paper §3.2 over one
    state type. Every primitive is a standalone TensorIR-to-TensorIR
    transformation; the program can be printed between any two steps and
    validated at any point, and each application is recorded on the trace.

    Loops are referenced by their (globally unique) loop variables, blocks
    by their (unique) names — the "random variables" of the schedule API.
    Primitives raise [Schedule_error] on misuse and leave the program
    untouched. *)

open Tir_ir

exception Schedule_error of string

type t

(** {2 State} *)

val create : Primfunc.t -> t

(** Like [create], but primitive applications follow the per-domain
    {!Apply_cache} while it hits: a step already applied to this exact
    state (same chain of primitives from the same physical base function)
    adopts the cached snapshot instead of re-running the transform. The
    first miss runs the transform, stores its snapshot for later schedules
    and leaves the cache: every later step of this schedule runs directly.
    Results are bit-identical to [create]. Safe only when every loop
    [Var] / [Buffer] handed to primitives derives from this schedule's own
    lineage (primitive outputs, [get_block]/[blocks] lookups); callers
    passing externally created entities must use [create]. *)
val create_cached : Primfunc.t -> t

val func : t -> Primfunc.t
val copy : t -> t

(** Applied primitives as a typed trace, oldest first. Serializable via
    {!Trace.to_string} and replayable via {!replay}. *)
val instructions : t -> Trace.t

(** [instructions] rendered as script lines, oldest first. *)
val trace : t -> string list

val pp_trace : Format.formatter -> t -> unit
val pp : Format.formatter -> t -> unit

(** Append a tuning-knob decision ([Trace.Decide]) to the trace, so a
    serialized trace carries the decision vector it was generated from. *)
val record_decision : t -> string -> int -> unit

(** Re-apply a trace to a fresh function, re-binding loop/block RVs as each
    instruction defines them and re-validating each primitive. Raises
    [Schedule_error] on an unbound RV, an arity mismatch, or any primitive
    failure. [instructions (replay tr f) = tr]. *)
val replay : Trace.t -> Primfunc.t -> t

(** {2 Lookup} *)

val get_block : t -> string -> Stmt.block

(** Loop variables enclosing the named block, outermost first. *)
val get_loops : t -> string -> Var.t list

val loop_extent : t -> Var.t -> int
val blocks : t -> Stmt.block_realize list
val alloc_buffers : t -> Buffer.t list

(** {2 Loop transformations} *)

(** Split a loop into nested loops with the given extents (outermost
    first); at most one factor may be [0] = inferred. Non-divisible splits
    push a predicate into the contained blocks. Returns the new loop
    variables, outermost first. *)
val split : t -> Var.t -> factors:int list -> Var.t list

(** Fuse two perfectly nested loops; returns the fused variable. *)
val fuse : t -> Var.t -> Var.t -> Var.t

val fuse_many : t -> Var.t list -> Var.t

(** Permute loops of one perfectly nested chain into the given order. *)
val reorder : t -> Var.t list -> unit

(** Bind a loop to a GPU thread axis (e.g. "blockIdx.x", "threadIdx.y"). *)
val bind : t -> Var.t -> string -> unit

val parallel : t -> Var.t -> unit
val vectorize : t -> Var.t -> unit
val unroll : t -> Var.t -> unit
val annotate : t -> Var.t -> string -> string -> unit
val annotate_block : t -> string -> string -> string -> unit

(** {2 Compute location} *)

(** Move a producer block to compute, just-in-time, the region consumed
    inside the target loop's subtree. *)
val compute_at : t -> string -> Var.t -> unit

(** Move a consumer block to consume, immediately, the region produced
    inside the target loop's subtree. *)
val reverse_compute_at : t -> string -> Var.t -> unit

(** Remove an injective elementwise producer by substituting its
    definition into all consumers. *)
val compute_inline : t -> string -> unit

(** Fold an elementwise consumer back into its (non-reduction) producer. *)
val reverse_compute_inline : t -> string -> unit

(** {2 Block hierarchy} *)

(** Cache a buffer read by a block in a new scope; returns the copy
    block's name (position it with [compute_at]). *)
val cache_read : t -> string -> Buffer.t -> string -> string

(** Make a block write through a cache in a new scope; returns the
    copy-back block's name. *)
val cache_write : t -> string -> Buffer.t -> string -> string

(** Change the storage scope of an intermediate buffer; returns the
    re-scoped buffer. *)
val set_scope : t -> Buffer.t -> string -> Buffer.t

(** Isolate the subtree under a loop as a new block (paper Figure 7);
    returns its name. *)
val blockize : t -> Var.t -> string

(** Blockize then replace the isolated computation with a registered
    tensor intrinsic (paper §4.1); returns the tensorized block's name. *)
val tensorize : t -> Var.t -> string -> string

val tensorize_block : t -> string -> string -> unit

(** Hoist a reduction's init statement into its own block before the given
    loop; returns the init block's name (paper §3.1). *)
val decompose_reduction : t -> string -> Var.t -> string

(** Inverse of [decompose_reduction]. *)
val merge_reduction : t -> string -> string -> unit

(** Factor a reduction loop into a spatial dimension of a partial-result
    buffer plus a final reduction block, enabling parallelization of the
    loop; returns the final block's name. *)
val rfactor : t -> string -> Var.t -> string

(** {2 Validation (paper §3.3)} *)

val validate : t -> Validate.issue list
val validate_exn : t -> unit
val is_valid : t -> bool

(** {2 Deep checking}

    When enabled — via [set_deep_check true] or the [TIR_DEEPCHECK]
    environment variable (any value other than empty or ["0"]) — every
    transforming primitive re-runs the semantic analyzer (data-race,
    region-soundness, bounds) on its result and raises [Schedule_error]
    listing the diagnostics on any error-severity finding. A debugging
    net for primitive development, not a transaction: the primitive has
    already applied when the error is raised. *)

val set_deep_check : bool -> unit
val deep_check_enabled : unit -> bool

(** {2 Low-level access}

    The zipper interface new primitives are written against — the paper's
    §3.2 point that primitives are independent transformations over a
    stable abstraction, so they can be developed concurrently. *)

val body : t -> Stmt.t
val set_body : t -> Stmt.t -> unit

(** Path and record of the loop with this variable; raises if absent. *)
val loop_path : t -> Var.t -> Zipper.path * Stmt.for_

(** Path and realize of the named block; raises if absent. *)
val block_path : t -> string -> Zipper.path * Stmt.block_realize

(** Replace the subtree at a path. *)
val replace : t -> Zipper.path -> Stmt.t -> unit

(** Detach the named block's realize, pruning emptied loops. *)
val remove_block : t -> string -> Stmt.block_realize

(** A fresh block/buffer name unique within this schedule. *)
val fresh_name : t -> string -> string

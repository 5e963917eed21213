(** First-class schedule traces (paper §3.2, §4.4).

    A trace is the typed application history of a schedule: one instruction
    per primitive, with symbolic random variables as operands. Loop RVs
    ([l<n>]) and derived-block RVs ([b<n>]) are defined by the instruction
    that produced them; original blocks and buffers are named literals.
    Because operands are symbolic, a trace is independent of the concrete
    per-process loop-variable identities of the program it was recorded
    against — it can be serialized, stored in the tuning database, mutated
    by the evolutionary search, and replayed on a fresh function
    ([Schedule.replay]).

    The text form is line-oriented and human-inspectable:
    {v
    l0, l1, l2 = get_loops(%"C")
    l3, l4 = split(l0, [4, 8])
    b0 = cache_read(%"C", @"A", "shared")
    decide("tile_x", 3)
    v}
    Blank lines and [#] comments are ignored on parse; [to_string] and
    [of_string] round-trip. *)

(** {2 Instructions} *)

type loop_rv = int
type block_rv = int

(** Original blocks are addressed by their (stable) name; blocks created by
    an earlier instruction by that instruction's output RV. *)
type block_ref = Bname of string | Brv of block_rv

type instr =
  | Get_loops of { block : block_ref; outs : loop_rv list }
  | Split of { loop : loop_rv; factors : int list; outs : loop_rv list }
  | Fuse of { a : loop_rv; b : loop_rv; out : loop_rv }
  | Fuse_many of { loops : loop_rv list; out : loop_rv }
  | Reorder of { loops : loop_rv list }
  | Bind of { loop : loop_rv; thread : string }
  | Parallel of { loop : loop_rv }
  | Vectorize of { loop : loop_rv }
  | Unroll of { loop : loop_rv }
  | Annotate of { loop : loop_rv; key : string; value : string }
  | Annotate_block of { block : block_ref; key : string; value : string }
  | Compute_at of { block : block_ref; loop : loop_rv }
  | Reverse_compute_at of { block : block_ref; loop : loop_rv }
  | Compute_inline of { block : block_ref }
  | Reverse_compute_inline of { block : block_ref }
  | Cache_read of { block : block_ref; buffer : string; scope : string; out : block_rv }
  | Cache_write of { block : block_ref; buffer : string; scope : string; out : block_rv }
  | Set_scope of { buffer : string; scope : string }
  | Blockize of { loop : loop_rv; out : block_rv }
  | Tensorize of { loop : loop_rv; intrin : string; out : block_rv }
  | Tensorize_block of { block : block_ref; intrin : string }
  | Decompose_reduction of { block : block_ref; loop : loop_rv; out : block_rv }
  | Merge_reduction of { init : block_ref; update : block_ref }
  | Rfactor of { block : block_ref; loop : loop_rv; out : block_rv }
  | Decide of { knob : string; choice : int }
      (** Not a transformation: records the value chosen for a tuning knob,
          making the trace self-contained for database replay. *)

type t = instr list
(** Oldest first. *)

val equal : t -> t -> bool

(** {2 Serialization} *)

exception Parse_error of string

val instr_to_string : instr -> string
val pp_instr : Format.formatter -> instr -> unit
val pp : Format.formatter -> t -> unit

(** One instruction per line. *)
val to_string : t -> string

(** Inverse of [to_string]; skips blank lines and [#] comments. Raises
    {!Parse_error} on malformed input. *)
val of_string : string -> t

(** [of_string] with the unified error surface: malformed input returns
    [Error] with kind [Parse] instead of raising. *)
val of_string_result : string -> (t, Tir_core.Error.t) result

(** Parse one line; [None] for a blank line or [#] comment. *)
val instr_of_string : string -> instr option

(** The knob decisions recorded in the trace, oldest first; a knob decided
    more than once keeps its first value. *)
val decisions : t -> (string * int) list

(** {2 Recording}

    A [builder] is the mutable recording state carried by a schedule. Each
    facade step of [Schedule] builds its instruction once: it interns the
    step's inputs into RVs in argument order ({!loop_in}, {!block_in}),
    leaving the output fields as placeholders. The apply cache keys the
    step by {!input_key} of that instruction, and {!record} appends it
    with the RVs of the outputs the primitive produced — so printing,
    parsing, the cache key and the record all derive from one [instr]. *)

type builder

val builder : unit -> builder

(** Independent copy (shares nothing mutable) — used by [Schedule.copy]. *)
val clone : builder -> builder

(** Recorded instructions, oldest first. *)
val instrs : builder -> t

val length : builder -> int

(** The RV of an input loop. A loop that no traced instruction produced is
    assigned a fresh, never-defined RV (recording never fails — replay
    reports the unbound RV if the trace is genuinely incomplete).
    Idempotent. *)
val loop_in : builder -> Tir_ir.Var.t -> loop_rv

(** An input block: a [Brv] if a traced instruction created it, a [Bname]
    literal otherwise. *)
val block_in : builder -> string -> block_ref

(** The opcode and inputs of an instruction as {!instr_to_string} prints
    them ([name(args)]), ignoring its outputs. RV numbering is a pure
    function of the instruction sequence, so schedules that applied the
    same primitives to the same base spell the same step identically — the
    apply cache keys on this. *)
val input_key : instr -> string

(** What a primitive returned, in the concrete terms of the schedule. *)
type outs =
  | R_unit
  | R_loop of Tir_ir.Var.t
  | R_loops of Tir_ir.Var.t list
  | R_block of string
  | R_buf of Tir_ir.Buffer.t

(** Append the instruction, with its output fields set to fresh RVs for
    the given outputs (the placeholder outputs it carries are ignored).
    Raises [Invalid_argument] when the outputs do not fit the
    instruction. *)
val record : builder -> instr -> outs -> unit

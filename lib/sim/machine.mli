(** Analytic machine model: deterministic latency for a scheduled program —
    the stand-in for the paper's hardware measurement step.

    Work per pipe (scalar, special-function, tensor) and bytes per storage
    scope are aggregated by walking the program (with coalescing and
    bank-conflict penalties derived from the access pattern against the
    innermost lane variable), then a roofline with occupancy and core-count
    scaling prices each root-level nest. Pure function of the program:
    search results are reproducible. *)

open Tir_ir

(** Raised when the program tensorizes with an intrinsic the target
    lacks. *)
exception Unsupported of string

type tally = {
  mutable scalar_ops : float;
  mutable special_ops : float;
  mutable tensor_flops : float;
  mutable intrin_calls : float;
  mutable blocks : int;  (** block nodes visited during the walk *)
  mutable bytes_global : float;
  mutable bytes_shared : float;
  mutable bytes_local : float;
  mutable loop_overhead : float;
  mutable blockidx : int;  (** max per-path product of blockIdx extents *)
  mutable threadidx : int;  (** max per-path product of threadIdx extents *)
  mutable parallel : int;  (** max per-path product of parallel extents *)
  mutable vectorized_frac : float;
  mutable uses_tensor_core : bool;
  mutable pipelined : bool;  (** software-pipelining annotation present *)
}

val new_tally : unit -> tally

(** Work/traffic/parallelism of one root-level nest. *)
val tally_of_nest : Target.t -> Stmt.t -> tally

(** Latency of one nest, in microseconds. *)
val nest_latency_us : Target.t -> tally -> float

(** Latency of a whole function in microseconds (root nests execute
    sequentially, each paying the launch overhead). Each call feeds the
    simulated-program counters in the metrics registry ([sim.measurements],
    [sim.blocks_visited], [sim.tensorized_ops] vs [sim.scalar_ops],
    [sim.bytes.{global,shared,local}], ...) — integer-valued, so totals are
    bit-identical at any job count for a deterministic search.

    [fault_key] opts the call into the deterministic fault-injection
    harness ([Tir_core.Fault], site [Measure]): when the keyed decision
    for the given key fires, the call raises [Tir_core.Fault.Injected]
    before touching any counter. Retrying callers vary the key per
    attempt. *)
val measure_us : ?fault_key:string -> Target.t -> Primfunc.t -> float

(** Whole-function tally for feature extraction: work sums across nests,
    parallelism takes the maximum. Unlike [measure_us], it feeds no
    counter. *)
val tally_func : Target.t -> Primfunc.t -> tally

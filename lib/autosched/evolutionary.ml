(** Evolutionary search over tensorized program sketches (paper §4.4).

    The search itself lives in {!Engine} — an explicit state machine where
    one [Engine.step] runs one generation (proposal fan-out, evaluation,
    ranked measurement, cost-model retrain, metrics/trace/checkpoint
    flush). This module re-exports the engine's types under their
    historical names; [Tune] and [Tir_service.Session] drive the engine.

    All determinism properties are the engine's: generation randomness
    derives from [(seed, gen)] only, pool fan-outs reduce in slot order,
    and evaluation/measurement go through the process-wide memo in
    [Eval] — so [TIR_JOBS=1] and [TIR_JOBS=n] return the same best
    program, the same latencies, and the same trial statistics for a
    fixed seed, no matter how many engines share the pool. *)

open Tir_ir

type measured = Engine.measured = {
  sketch_name : string;
  base : string;
  decisions : Space.decisions;
  trace : Tir_sched.Trace.t;
  func : Primfunc.t;
  latency_us : float;
}

type stats = Engine.stats = {
  mutable trials : int;
  mutable proposed : int;
  mutable invalid : int;
  mutable unsound : int;
  mutable inapplicable : int;
  mutable unmeasurable : int;
  mutable best_curve : (int * float) list;
  mutable profiling_us : float;
  mutable cache_hits : int;
  mutable cache_lookups : int;
}

let new_stats = Engine.new_stats
let cache_hit_rate = Engine.cache_hit_rate

type result = Engine.result = { best : measured option; stats : stats }

type checkpoint = Engine.checkpoint = {
  on_seen : gen:int -> string list -> unit;
  on_measured : gen:int -> measured -> unit;
  on_generation : gen:int -> stats -> best_us:float -> unit;
}

type resume = Engine.resume = {
  r_gen : int;
  r_seen : string list;
  r_measured : measured list;
  r_stats : stats;
}

let measurement_overhead_us = Engine.measurement_overhead_us

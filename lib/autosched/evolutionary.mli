(** Evolutionary search over program sketches (paper §4.4): mutate and
    cross the elite decision vectors, filter by applicability and the §3.3
    validator, rank with the learned cost model, measure the top batch.

    The loop itself is {!Engine} (an explicit [step]-per-generation state
    machine); this module re-exports its types under their historical
    names and provides the run-to-completion driver [search]. *)

open Tir_ir

type measured = Engine.measured = {
  sketch_name : string;
  base : string;  (** [Sketch.base] — start-function recipe for replay *)
  decisions : Space.decisions;
      (** extracted from [trace] ([Trace.decisions]) — kept as a field for
          cache keys and reporting *)
  trace : Tir_sched.Trace.t;
      (** full instruction trace of the winning schedule; serialized into
          database records so they replay without sketch regeneration *)
  func : Primfunc.t;
  latency_us : float;
}

type stats = Engine.stats = {
  mutable trials : int;  (** programs measured *)
  mutable proposed : int;  (** programs proposed *)
  mutable invalid : int;  (** rejected by validation *)
  mutable unsound : int;  (** rejected by the semantic analyzer *)
  mutable inapplicable : int;  (** rejected by the sketch *)
  mutable unmeasurable : int;
      (** dropped after measurement faults exhausted their retries or the
          per-candidate budget expired *)
  mutable best_curve : (int * float) list;  (** (trial, best latency) *)
  mutable profiling_us : float;  (** simulated measurement time *)
  mutable cache_hits : int;  (** evaluation/measurement memo hits *)
  mutable cache_lookups : int;  (** evaluation/measurement memo probes *)
}

val new_stats : unit -> stats

(** [cache_hits / cache_lookups] (0 when nothing was probed). *)
val cache_hit_rate : stats -> float

type result = Engine.result = { best : measured option; stats : stats }

(** Write-ahead checkpoint hooks, called synchronously from the search's
    sequential reduces (never from pool domains): [on_seen] receives the
    fresh dedup keys of each generation in slot order, [on_measured] each
    measured candidate in measurement order, and [on_generation] — the
    commit marker — the cumulative stats once a generation completes. *)
type checkpoint = Engine.checkpoint = {
  on_seen : gen:int -> string list -> unit;
  on_measured : gen:int -> measured -> unit;
  on_generation : gen:int -> stats -> best_us:float -> unit;
}

(** State rebuilt from a checkpoint log: re-enters the search at
    generation [r_gen] with the dedup set, the measured history (original
    order) and the committed counter snapshot ([r_stats.best_curve] is
    ignored — the curve is rebuilt from [r_measured]). *)
type resume = Engine.resume = {
  r_gen : int;
  r_seen : string list;
  r_measured : measured list;
  r_stats : stats;
}

(** Fixed per-measurement overhead (compilation, transfer). *)
val measurement_overhead_us : float

(** Measurement repeats per candidate, capped at [measurement_cap_us]. *)
val measurement_runs : float

val measurement_cap_us : float

(** Run the search for [trials] measured candidates.
    [use_cost_model:false] ranks randomly; [evolve:false] disables
    mutation/crossover (pure random search) — both are ablations.
    [pool] is the domain pool the candidate pipeline fans out across
    (default: the process-wide [TIR_JOBS]-sized pool); results are
    bit-identical at any job count for a fixed [seed].

    Each generation draws from its own [(seed, gen)]-derived stream
    ([Rng.for_generation]), so a process resumed from a checkpoint
    ([resume]) re-enters any generation with bit-identical randomness.
    [retry] governs measurement fault retries and the per-candidate
    measurement budget ([Eval.measure_cached]); candidates whose
    measurements exhaust it are counted [unmeasurable] and skipped —
    they never reach the cost model, the elite set, or the checkpoint
    log.

    [model]/[group] select the learned cost model and its label
    normalization group, as in [Engine.create].

    Every generation bumps the [search.*] counters and the
    [costmodel.rank_corr] gauge in the metrics registry. When tracing is
    on, it also records one [gen.commit] instant carrying the
    generation's funnel (proposed, deduped, invalid, unsound,
    inapplicable, memo hits and lookups, measured, mutations, crossovers,
    accepted), the cumulative trials, the best-so-far latency and the
    generation's model rank correlation ([%h] floats). The counts are
    accumulated in the sequential slot-order reduce, so they are
    bit-identical at any job count too. *)
val search :
  ?population:int ->
  ?measure_batch:int ->
  ?use_cost_model:bool ->
  ?evolve:bool ->
  ?model:Model.t ->
  ?group:string ->
  ?pool:Tir_parallel.Pool.t ->
  ?retry:Tir_parallel.Retry.policy ->
  ?checkpoint:checkpoint ->
  ?resume:resume ->
  seed:int ->
  target:Tir_sim.Target.t ->
  trials:int ->
  Sketch.t list ->
  result

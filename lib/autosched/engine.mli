(** Steppable evolutionary-search engine (paper §4.4).

    The search loop as an explicit state machine: {!create} builds the
    search state, {!step} advances it by exactly one generation (proposal
    fan-out, evaluation, ranked measurement, cost-model retrain,
    metrics/trace/checkpoint flush). One [step] is the atomic unit of
    work — everything a generation writes is committed before [step]
    returns, so drivers that interleave many engines on one pool
    ([Tir_service.Scheduler]) get preemption at generation boundaries for
    free, with per-tenant kill/resume bit-identity preserved.

    [Evolutionary] re-exports all the types below, so existing code keeps
    referring to [Evolutionary.stats] etc. *)

open Tir_ir

type measured = {
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

type stats = {
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

type result = { best : measured option; stats : stats }

(** Write-ahead checkpoint hooks, called synchronously from the engine's
    sequential reduces (never from pool domains): [on_seen] receives the
    fresh dedup keys of each generation in slot order, [on_measured] each
    measured candidate in measurement order, and [on_generation] — the
    commit marker — the cumulative stats once a generation completes. *)
type checkpoint = {
  on_seen : gen:int -> string list -> unit;
  on_measured : gen:int -> measured -> unit;
  on_generation : gen:int -> stats -> best_us:float -> unit;
}

(** State rebuilt from a checkpoint log: re-enters the search at
    generation [r_gen] with the dedup set, the measured history (original
    order) and the committed counter snapshot ([r_stats.best_curve] is
    ignored — the curve is rebuilt from [r_measured]). *)
type resume = {
  r_gen : int;
  r_seen : string list;
  r_measured : measured list;
  r_stats : stats;
}

(** Fixed per-measurement overhead (compilation, transfer). *)
val measurement_overhead_us : float

type t

type event =
  | Stepped of {
      gen : int;
      trials_done : int;
      best_us : float;
      rank_corr : float;
          (** cumulative {!rank_corr} after this generation *)
    }
      (** generation [gen] committed; [best_us] is NaN until something
          measured *)
  | Exhausted of { gen : int }
      (** generation [gen] proposed zero fresh candidates — the space is
          exhausted; the (empty) generation was still committed *)
  | Done  (** trial budget already reached; no work was performed *)

(** Build an engine that keeps 32 elites and measures up to 16
    candidates a generation. [use_cost_model:false] ranks randomly,
    [evolve:false] disables mutation/crossover, [model] is the learned
    cost model ranking each generation (default: a fresh
    [Model.gbdt ()]; pass a warm-started model to transfer from earlier
    runs) and [group] the label normalization group its samples are
    recorded under (default: the target name; [Tune] passes
    ["target|workload"]), [pool] is the domain pool the per-generation
    pipeline fans out across (default: the process-wide
    [TIR_JOBS]-sized pool) and may be shared with other engines,
    [retry] governs measurement fault retries, [checkpoint]/[resume]
    are the WAL hooks and the rebuilt re-entry state. Generation randomness derives from [(seed, gen)] only, so
    results are bit-identical at any job count and under any interleaving
    of engines. *)
val create :
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
  t

(** Run exactly one generation (or report [Done] if the engine is already
    finished — [step] is idempotent past the end). The returned [t] is the
    same engine (state is mutated in place); the pair shape makes the
    state-machine contract explicit.

    Candidates whose measurements exhaust [retry] are counted
    [unmeasurable] and skipped: they never reach the cost model, the
    elite set, or the checkpoint log. Every generation bumps the
    [search.*] counters and the [costmodel.rank_corr] gauge in the
    metrics registry. When tracing is on, it also records one
    [gen.commit] instant carrying the generation's funnel (proposed,
    deduped, invalid, unsound, inapplicable, memo hits and lookups,
    measured, mutations, crossovers, accepted), the cumulative trials,
    the best-so-far latency and the generation's model rank correlation
    ([%h] floats). The counts are accumulated in the sequential
    slot-order reduce, so they are bit-identical at any job count. *)
val step : t -> t * event

(** Trial budget reached or search space exhausted. *)
val finished : t -> bool

(** Next generation to run (= number of committed generations when the
    engine started fresh). *)
val gen : t -> int

(** Programs measured so far (monotone across [step]s). *)
val trials_done : t -> int

(** Best-so-far latency in µs; NaN until something measured. *)
val best_us : t -> float

(** Cumulative Spearman rank correlation between the model's predicted
    scores and measured speed over every pair this engine measured (0.0
    until two pairs exist). Not checkpointed: a resumed engine's
    correlation restarts over post-resume generations. *)
val rank_corr : t -> float

(** The engine's cost model — live, shared with the search. Read it after
    the run to persist ([Model.save], [Model.Store.absorb]). *)
val model : t -> Model.t

(** Snapshot of the search outcome; valid at any point, shares the live
    mutable [stats] record. *)
val result : t -> result

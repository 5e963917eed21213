(** Tuning driver: the end-to-end auto-scheduler of section 4 — candidate
    generation, sketch generation, evolutionary search, plus the §5.2
    tuning-record database integration. *)

module W = Tir_workloads.Workloads
module TI = Tir_intrin.Tensor_intrin

type result = {
  workload : W.t;
  target : Tir_sim.Target.t;
  best : Evolutionary.measured option;
  stats : Evolutionary.stats;
  model : Model.t option;
      (** the trained cost model, when a search actually ran ([None] on
          the database-replay short-circuit) — persist it with
          [Model.Store.absorb] to warm-start later runs *)
}

val latency_us : result -> float

(** GFLOP/s of the best program; exactly [0.0] when no candidate was found
    or its latency is non-finite or non-positive (never NaN/infinity). *)
val gflops : result -> float

(** Compute intrinsics available on a target. *)
val target_intrinsics : Tir_sim.Target.t -> TI.t list

(** Tuning configuration: one explicit record instead of the optional
    argument pile. Build with {!Config.default} and the [with_*]
    setters:
    {[
      Tune.Config.default
      |> Tune.Config.with_trials 128
      |> Tune.Config.with_database db
    ]} *)
module Config : sig
  type t = {
    seed : int;
    trials : int;
    use_cost_model : bool;  (** [false] ranks candidates randomly *)
    evolve : bool;  (** [false] disables mutation/crossover *)
    sketches : Sketch.t list option;
        (** overrides sketch generation (baseline schedulers) *)
    database : Database.t option;
        (** replay store: stored schedules short-circuit the search,
            fresh results are committed back *)
    jobs : int option;
        (** size of a private domain pool for this call; [None] shares
            the process-wide [TIR_JOBS]-sized pool *)
    retry : Tir_parallel.Retry.policy;
        (** measurement fault retries + per-candidate budget *)
    model : Model.spec;
        (** which cost model ranks candidates: a fresh learner
            ([Model.Gbdt], the default) or a warm-start snapshot
            ([Model.Warm]) carried over from earlier runs *)
  }

  (** seed 42, 64 trials, cost model + evolution on, no sketches /
      database override, shared pool, [Retry.default], a fresh
      [Model.Gbdt]. *)
  val default : t

  val with_seed : int -> t -> t
  val with_trials : int -> t -> t
  val with_use_cost_model : bool -> t -> t
  val with_evolve : bool -> t -> t
  val with_sketches : Sketch.t list -> t -> t
  val with_database : Database.t -> t -> t
  val with_jobs : int -> t -> t
  val with_retry : Tir_parallel.Retry.policy -> t -> t
  val with_model : Model.spec -> t -> t
end

(** A tuning run as an explicit state machine over {!Engine}: {!prepare}
    sets it up (sketch generation, database-replay short-circuit), each
    {!step} runs one search generation, and the first [Finished]
    transition commits the best schedule to the database and joins the
    driver's private pool.
    {!run} drives one to completion; [Tir_service.Scheduler] interleaves
    many on one shared pool. *)
type driver

type progress =
  | Stepped of {
      gen : int;
      trials_done : int;
      best_us : float;
      rank_corr : float;
          (** cumulative model rank correlation ([Engine.rank_corr]) *)
    }
      (** one more generation committed; [best_us] is NaN until something
          measured *)
  | Finished of result

(** [pool] overrides [Config.jobs] with an externally owned pool (the
    caller keeps ownership and must shut it down); without it,
    [Config.jobs = Some j] creates a private pool owned by the driver.
    [checkpoint]/[resume] as in {!run}. *)
val prepare :
  ?checkpoint:Evolutionary.checkpoint ->
  ?resume:Evolutionary.resume ->
  ?pool:Tir_parallel.Pool.t ->
  Config.t ->
  W.t ->
  Tir_sim.Target.t ->
  driver

(** Advance by one generation. Idempotent once [Finished]: later calls
    return the same result without doing work. *)
val step : driver -> progress

(** Join the driver's private pool, if it still owns one. Called
    automatically by the [Finished] transition; exception paths that
    abandon a driver mid-run must call it explicitly. Idempotent. *)
val release : driver -> unit

(** Tune a workload under a {!Config.t}. Results are bit-identical at any
    job count for a fixed seed.

    Phases run under [Tir_obs.Trace] spans ([tune.sketch_gen],
    [tune.db_replay], [tune.search]), and each search generation records
    a [gen.commit] instant ([Engine.step]). Event identities are
    bit-identical at any job count; only timings vary.

    [checkpoint]/[resume] wire the search's write-ahead hooks
    ([Evolutionary.checkpoint]/[resume]); the crash-safe on-disk log
    built on them lives in the [Tir_service.Session] layer. A resumed
    call skips the database-replay short-circuit. *)
val run :
  ?checkpoint:Evolutionary.checkpoint ->
  ?resume:Evolutionary.resume ->
  Config.t ->
  W.t ->
  Tir_sim.Target.t ->
  result

(** Simulated end-to-end tuning time in minutes (profiling plus search
    overhead) — the Table 1 quantity. *)
val tuning_minutes : result -> float

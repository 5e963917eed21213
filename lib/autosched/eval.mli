(** Candidate evaluation pipeline plus the process-wide
    measurement/feature memo used by the parallel search.

    Process-wide caches over the pure evaluation pipeline, keyed by
    [Target.fingerprint ^ "|" ^ sketch name ^ "|" ^ Space.key_of]. Safe to
    probe concurrently from pool domains; entries never go stale (the
    simulator is a pure function of target and program).

    The learned cost model that used to share a module with this pipeline
    lives in {!Model}. *)

type evaluation =
  | Inapplicable  (** the sketch rejected the decision vector *)
  | Invalid  (** the §3.3 validator found issues *)
  | Unsound  (** the semantic analyzer proved a race / unsound region / OOB *)
  | Unsupported  (** the machine model cannot run the program *)
  | Evaluated of {
      func : Tir_ir.Primfunc.t;
      fp : Tir_ir.Fingerprint.t;
          (** structural fingerprint of [func] — the program-identity
              component of measurement memo keys, shared between search
              and database replay *)
      features : float array;
      trace : Tir_sched.Trace.t;
          (** the schedule's instruction trace — carried to [measured]
              results and into database records for sketch-free replay *)
    }

(** Key prefix for a target (compute once per search). *)
val cache_prefix : Tir_sim.Target.t -> string

(** The evaluation pipeline: knob pre-filter ([Sketch.rejects], rejecting
    provably inapplicable vectors before any program is materialized),
    cached sketch application, then validation + semantic analysis +
    feature extraction. Does not consult the per-decision-vector memo —
    that is [evaluate_cached]. When tracing is on, each stage records a
    span: [eval.apply], [eval.validate], [eval.certify], [eval.analyze]
    and [eval.features]. *)
val evaluate : target:Tir_sim.Target.t -> Sketch.t -> Space.decisions -> evaluation

(** The pre-refactor pipeline, byte for byte: no pre-filter, no
    fingerprint post-memo. Classifies identically to [evaluate] (the
    property tests enforce this); kept for the bench hot-path
    comparison. *)
val evaluate_naive :
  target:Tir_sim.Target.t -> Sketch.t -> Space.decisions -> evaluation

(** Memoized [evaluate]; returns [(cache_hit, outcome)]. *)
val evaluate_cached :
  key:string -> target:Tir_sim.Target.t -> Sketch.t -> Space.decisions ->
  bool * evaluation

(** Outcome of one (memoized) machine-model measurement. *)
type measurement =
  | Measured of float  (** latency in microseconds *)
  | Unsupported_target  (** the machine model cannot run the program *)
  | Unmeasurable
      (** injected faults exhausted the retry budget, or the simulated
          latency blew the per-candidate budget ([retry.timeout_us]).
          Deterministic under a fixed fault seed; never fed to the cost
          model or database, and retry exhaustion is never cached. *)

(** Memoized machine-model measurement; returns [(cache_hit, outcome)].
    [retry] governs fault-injection retries (site [Measure] of
    [Tir_core.Fault]) and the per-candidate measurement budget. *)
val measure_cached :
  ?retry:Tir_parallel.Retry.policy ->
  key:string ->
  target:Tir_sim.Target.t ->
  Tir_ir.Primfunc.t ->
  bool * measurement

(** Drop every cached entry and reset the tables' own hit/miss counts.
    The registry counters ([memo.eval.*], [memo.measure.*]) keep
    counting. *)
val clear_caches : unit -> unit

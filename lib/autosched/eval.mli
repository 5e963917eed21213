(** Candidate evaluation pipeline plus the process-wide
    prepared-candidate and measurement memos used by the parallel search.

    Evaluation is split in two so the search can rank before it checks:
    {!prepare} (pre-filter, apply, features) gives the cost model what it
    scores, and {!check} (validate, certify, analyze) runs only on the
    candidates the search is about to measure, in rank order. A candidate
    ranked below the measurement cut is never checked.

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
      nests : Tir_sim.Machine.tally list;
          (** the per-nest tallies ([Tir_sim.Machine.walk]) [features]
              were computed from; {!measure_cached} prices them *)
      trace : Tir_sched.Trace.t;
          (** the schedule's instruction trace — carried to [measured]
              results and into database records for sketch-free replay *)
    }

(** Key prefix for a target (compute once per search). *)
val cache_prefix : Tir_sim.Target.t -> string

(** A candidate that applied and has features, so the cost model can
    score it; its checks run on the first {!check}. *)
type ready

(** Outcome of {!prepare}. [Rejected] is never [Evaluated]. *)
type prepared = Rejected of evaluation | Ready of ready

(** The first half of the pipeline: knob pre-filter ([Sketch.rejects],
    rejecting provably inapplicable vectors before any program is
    materialized), cached sketch application, feature extraction from
    one machine-model walk, whose per-nest tallies the candidate keeps
    for its measurement. A program the machine model cannot run is
    [Rejected Unsupported] without being checked. When feature
    extraction raises anything else, the program is checked at once: a
    failing program is [Rejected] with the checks' verdict ([Invalid] or
    [Unsound]), and the exception is re-raised if it passes. Spans:
    [eval.apply], [eval.features]. *)
val prepare : target:Tir_sim.Target.t -> Sketch.t -> Space.decisions -> prepared

(** Memoized {!prepare} in the eval memo; returns [(cache_hit, outcome)]. *)
val prepare_cached :
  key:string -> target:Tir_sim.Target.t -> Sketch.t -> Space.decisions ->
  bool * prepared

(** The candidate's features, as the cost model scores them. *)
val features : ready -> float array

(** The second half: §3.3 validation, the static legality certificate
    ([Analysis.certify]; a proven-illegal candidate is [Unsound] and
    counted in [search.pruned_static]), the semantic analyzers, then the
    program fingerprint. Returns [Invalid], [Unsound] or [Evaluated].
    The verdict is kept in the candidate, so a memoized candidate is
    checked at most once per process, by whichever domain asks first;
    the [legality.*] and [analysis.*] counters therefore count checked
    candidates only. Spans: [eval.check], the parent of [eval.validate],
    [eval.certify] and [eval.analyze], recorded only when the checks
    run. *)
val check : ready -> evaluation

(** {!prepare} then {!check}, unmemoized. *)
val evaluate : target:Tir_sim.Target.t -> Sketch.t -> Space.decisions -> evaluation

(** The pre-refactor pipeline, byte for byte: no pre-filter, checks
    before features. Classifies identically to [evaluate] (the property
    tests enforce this), except that [evaluate] reports a program the
    machine model cannot run as [Unsupported] even when it would fail
    its checks; kept for the bench hot-path comparison. *)
val evaluate_naive :
  target:Tir_sim.Target.t -> Sketch.t -> Space.decisions -> evaluation

(** {!prepare_cached} then {!check}; returns [(cache_hit, outcome)], the
    hit being the eval memo's. Database replay, the bench and the tests
    use it. *)
val evaluate_cached :
  key:string -> target:Tir_sim.Target.t -> Sketch.t -> Space.decisions ->
  bool * evaluation

(** Outcome of one (memoized) machine-model measurement. *)
type measurement =
  | Measured of float  (** latency in microseconds *)
  | Unsupported_target  (** the machine model cannot run the program *)
  | Unmeasurable
      (** injected faults failed every retry. Deterministic under a
          fixed fault seed; never fed to the cost model or database, and
          never cached. *)

(** Memoized machine-model measurement; returns [(cache_hit, outcome)].
    A miss prices [nests], the per-nest tallies of [func] that
    {!prepare} walked ([Tir_sim.Machine.price]), or, without them, walks
    and prices [func] ([Tir_sim.Machine.measure_us]; database replay).
    Injected faults (site [Measure] of [Tir_core.Fault]) are retried
    through {!Tir_parallel.Retry.with_retries}. *)
val measure_cached :
  key:string ->
  target:Tir_sim.Target.t ->
  ?nests:Tir_sim.Machine.tally list ->
  Tir_ir.Primfunc.t ->
  bool * measurement

(** Drop every cached entry and reset the tables' own hit/miss counts.
    The registry counters ([memo.eval.*], [memo.measure.*]) keep
    counting. *)
val clear_caches : unit -> unit

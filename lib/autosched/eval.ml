(** Candidate evaluation pipeline plus the process-wide measurement memo.

    Evaluation has two halves. [prepare] is what the cost model needs to
    score a candidate: knob pre-filter, schedule application, feature
    extraction. [check] is what a candidate needs before it is measured:
    §3.3 validation, the static legality certificate and the semantic
    analyzers. The search prepares every fresh candidate, ranks them, and
    checks them in rank order only until its measurement batch is full.

    The memo tables cache the prepared candidate (with the verdict of its
    checks, once they ran) and the machine-model measurement, keyed by
    [target fingerprint | sketch name | canonical decision key]. The
    simulator is a pure function of (target, program), and a (sketch,
    decisions) pair determines the program, so entries never go stale; the
    tables are shared by every search in the process and are safe to probe
    from pool domains concurrently. Duplicate proposals — mutation and
    crossover collide often across generations, and ablation runs re-tune
    the same workloads — never re-enter the simulator.

    This used to live inside [Cost_model], fused with the learner; the
    learner is now [Model] and this module owns evaluation end to end. *)

module Memo = Tir_parallel.Memo

(** Outcome of the candidate evaluation pipeline (§4.3 apply, §3.3
    validate, feature extraction). Immutable, safe to share across
    domains. *)
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
          (** the per-nest tallies [features] were computed from, which
              the measurement prices without walking [func] again *)
      trace : Tir_sched.Trace.t;
          (** the schedule's instruction trace — carried to [measured]
              results and into database records for sketch-free replay *)
    }

(** Outcome of one (memoized) machine-model measurement. *)
type measurement =
  | Measured of float  (** latency in microseconds *)
  | Unsupported_target  (** the machine model cannot run the program *)
  | Unmeasurable
      (** the candidate could not be measured: injected faults failed
          every retry. Deterministic under a fixed fault seed — and never
          fed to the cost model or database. *)

(* A candidate that applied and was featurized, with the verdict of its
   checks once they ran. The lock makes the checks run at most once per
   entry, whichever domain asks first. *)
type ready = {
  r_func : Tir_ir.Primfunc.t;
  r_features : float array;
  r_nests : Tir_sim.Machine.tally list;
  r_trace : Tir_sched.Trace.t;
  lock : Mutex.t;
  mutable verdict : evaluation option;  (** guarded by [lock] *)
}

type prepared = Rejected of evaluation | Ready of ready

let features r = r.r_features

(* Named tables feed the metrics registry: [memo.eval.*] and
   [memo.measure.*] (hits / misses / pending waits). *)
let eval_cache : prepared Memo.t = Memo.create ~name:"eval" ()
let measure_cache : measurement Memo.t = Memo.create ~name:"measure" ()

(** [cache_prefix target] — compute once per search, prepend to candidate
    keys ([sketch name ^ "|" ^ Space.key_of decisions]). The full decision
    key (not just a hash) is part of the cache key, so distinct candidates
    can never alias. *)
let cache_prefix target = Tir_sim.Target.fingerprint target ^ "|"

(* There used to be a second memo here keyed by (target, program
   fingerprint), on the theory that distinct decision vectors often
   materialize structurally identical programs whose post-apply work
   (validate / analyze / extract) could be shared. Measured over full
   bench runs it recorded 0 hits in ~1300 misses: [evaluate] only runs
   behind the eval cache's canonical-decision-key dedup, and since the
   exact knob pre-filter (PR 6) folded the vectorization-width fallback
   into the decision space, surviving distinct vectors materialize
   distinct programs. A memo with a guaranteed-cold key is pure overhead
   (fingerprint-keyed allocation + probe per candidate), so the
   classification now runs inline. *)

(* Candidates rejected by the static legality certificate alone — the
   search never ran the region/bounds analyzers on them. Incremented
   only where a program is checked, which happens at most once per memo
   entry, so the count is bit-identical at any TIR_JOBS. *)
let m_pruned_static = Tir_obs.Metrics.counter "search.pruned_static"

(* The §3.3 validator, then the static legality certificate, then the
   analyzers: [Some] failure, or [None] when the program passes all
   three. A proven-illegal parallel structure is Unsound without running
   the remaining analyzers; the certificate is served from the
   fingerprint-keyed race memo, and [Analysis.errors] shares it, so
   nothing is analyzed twice. *)
let failed_checks f =
  Tir_obs.Trace.with_span "eval.check" @@ fun () ->
  match Tir_obs.Trace.with_span "eval.validate" (fun () -> Tir_sched.Validate.check_func f) with
  | _ :: _ -> Some Invalid
  | [] -> (
      let verdict =
        Tir_obs.Trace.with_span "eval.certify" (fun () -> Tir_analysis.Analysis.certify f)
      in
      Tir_analysis.Legality.count verdict;
      match verdict with
      | Tir_analysis.Legality.Illegal _ ->
          Tir_obs.Metrics.incr m_pruned_static;
          Some Unsound
      | Tir_analysis.Legality.Legal | Tir_analysis.Legality.Unknown ->
          if Tir_obs.Trace.with_span "eval.analyze" (fun () -> Tir_analysis.Analysis.errors f) <> []
          then Some Unsound
          else None)

(* [Space.Unknown_knob] deliberately propagates: the search only builds
   decision vectors from the sketch's own knob list, so an unknown knob is
   a programming error, not an invalid sample.

   Each stage records a span, a child of the engine's [evaluate] span (one
   atomic load when tracing is off). The pipeline runs once per eval-memo
   miss, so the spans are identical at any TIR_JOBS. *)
let prepare ~target (sk : Sketch.t) (d : Space.decisions) : prepared =
  if sk.Sketch.rejects d then Rejected Inapplicable
  else
    match Tir_obs.Trace.with_span "eval.apply" (fun () -> sk.Sketch.apply d) with
    | exception Tir_sched.State.Schedule_error _ -> Rejected Inapplicable
    | sch -> (
        let f = Tir_sched.Schedule.func sch in
        match
          Tir_obs.Trace.with_span "eval.features" (fun () ->
              let nests = Tir_sim.Machine.walk target f in
              (nests, Features.of_nests target f nests))
        with
        | nests, features ->
            Ready
              {
                r_func = f;
                r_features = features;
                r_nests = nests;
                r_trace = Tir_sched.Schedule.instructions sch;
                lock = Mutex.create ();
                verdict = None;
              }
        | exception Tir_sim.Machine.Unsupported _ -> Rejected Unsupported
        | exception e -> (
            (* The machine model walked a program nobody has checked yet.
               A failing program is reported as the checks classify it;
               one that passes has found a bug in the model. *)
            let bt = Printexc.get_raw_backtrace () in
            match failed_checks f with
            | Some failure -> Rejected failure
            | None -> Printexc.raise_with_backtrace e bt))

let check r =
  Mutex.protect r.lock (fun () ->
      match r.verdict with
      | Some v -> v
      | None ->
          let v =
            match failed_checks r.r_func with
            | Some failure -> failure
            | None ->
                Evaluated
                  {
                    func = r.r_func;
                    fp = Tir_ir.Fingerprint.func r.r_func;
                    features = r.r_features;
                    nests = r.r_nests;
                    trace = r.r_trace;
                  }
          in
          r.verdict <- Some v;
          v)

let settle = function Rejected e -> e | Ready r -> check r
let evaluate ~target sk d = settle (prepare ~target sk d)

(** The pre-refactor pipeline, byte for byte: no knob pre-filter —
    every candidate runs the full
    apply/validate/analyze/extract chain. Kept for the bench hot-path
    comparison and the differential property test ([evaluate] must classify
    identically, except that it reports [Unsupported] before the checks). *)
let evaluate_naive ~target (sk : Sketch.t) (d : Space.decisions) : evaluation =
  match sk.Sketch.apply d with
  | exception Tir_sched.State.Schedule_error _ -> Inapplicable
  | sch -> (
      let f = Tir_sched.Schedule.func sch in
      match Tir_sched.Validate.check_func f with
      | _ :: _ -> Invalid
      | [] when Tir_analysis.Analysis.errors f <> [] -> Unsound
      | [] -> (
          match Tir_sim.Machine.walk target f with
          | nests ->
              Evaluated
                {
                  func = f;
                  fp = Tir_ir.Fingerprint.func f;
                  features = Features.of_nests target f nests;
                  nests;
                  trace = Tir_sched.Schedule.instructions sch;
                }
          | exception Tir_sim.Machine.Unsupported _ -> Unsupported))

(** Memoized [prepare]; returns [(cache_hit, outcome)]. *)
let prepare_cached ~key ~target sk d =
  Memo.find_or_add eval_cache key (fun () -> prepare ~target sk d)

(** Memoized evaluation; returns [(cache_hit, outcome)]. *)
let evaluate_cached ~key ~target sk d =
  let hit, p = prepare_cached ~key ~target sk d in
  (hit, settle p)

(** Memoized measurement; returns [(cache_hit, outcome)]. A miss prices
    [nests] when the caller has them (the search's [Evaluated] carries
    them), and walks [f] otherwise (database replay).

    Fault handling: when injection is configured for the [Measure] site,
    each attempt passes a per-attempt fault key to the simulator and
    injected failures are retried ({!Tir_parallel.Retry}). Retry
    exhaustion raises out of the memo's compute function — the memo
    removes its pending marker on a raise — so an exhausted candidate is
    reported [Unmeasurable] {e without being cached}: it never poisons
    the memo for a later run with different fault configuration. *)
let measure_cached ~key ~target ?nests f =
  let measure ?fault_key () =
    match nests with
    | Some nests -> Tir_sim.Machine.price ?fault_key target nests
    | None -> Tir_sim.Machine.measure_us ?fault_key target f
  in
  match
    Memo.find_or_add measure_cache key (fun () ->
        match
          if Tir_core.Fault.enabled Tir_core.Fault.Measure then
            Tir_parallel.Retry.with_retries ~site:"measure" ~key
              (fun ~attempt ->
                measure ~fault_key:(Printf.sprintf "%s@%d" key attempt) ())
          else measure ()
        with
        | latency_us -> Measured latency_us
        | exception Tir_sim.Machine.Unsupported _ -> Unsupported_target)
  with
  | outcome -> outcome
  | exception Tir_parallel.Retry.Exhausted _ -> (false, Unmeasurable)

(** Drop every cached evaluation and measurement (tests; fresh-process
    comparisons). *)
let clear_caches () =
  Memo.clear eval_cache;
  Memo.clear measure_cache

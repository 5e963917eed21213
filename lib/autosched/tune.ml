(** Tuning driver: the end-to-end auto-scheduler of section 4.

    [run] takes a workload and a target, generates tensorization
    candidates against the target's intrinsics (§4.2), builds program
    sketches (§4.3), and runs the evolutionary search (§4.4). The result
    carries the best program, its simulated latency, and search statistics
    (used by the Table 1 tuning-time comparison). [prepare]/[step] expose
    the same run as an explicit state machine so a scheduler can
    interleave many runs on one shared pool, preempting at generation
    boundaries.

    Each phase runs under a [Tir_obs.Trace] span ([tune.sketch_gen],
    [tune.db_replay], [tune.search]); the search records one [gen.commit]
    instant per generation. *)

module W = Tir_workloads.Workloads
module TI = Tir_intrin.Tensor_intrin
module Trace = Tir_obs.Trace

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

let latency_us r =
  match r.best with Some b -> b.Evolutionary.latency_us | None -> Float.infinity

(* Explicit 0.0 when there is nothing to rate: no candidate found, or a
   non-finite/non-positive latency (0/0 and x/0 must not leak NaN or
   infinity into reports and JSON). *)
let gflops r =
  match r.best with
  | Some b
    when Float.is_finite b.Evolutionary.latency_us
         && b.Evolutionary.latency_us > 0.0 ->
      r.workload.W.flops /. b.Evolutionary.latency_us /. 1000.0
  | _ -> 0.0

(** Intrinsics available on a target (compute MMAs only; data movement
    intrinsics are applied by the sketches directly). *)
let target_intrinsics (target : Tir_sim.Target.t) =
  List.filter_map
    (fun name ->
      match TI.lookup name with
      | intrin when not intrin.TI.is_copy -> Some intrin
      | _ -> None
      | exception TI.Not_registered _ -> None)
    target.Tir_sim.Target.supported_intrinsics

(** Tuning configuration: one explicit record instead of a pile of
    optional arguments, so call sites that share a setup pass one value
    around and new knobs stop rippling through every signature. *)
module Config = struct
  type t = {
    seed : int;
    trials : int;
    use_cost_model : bool;
    evolve : bool;
    sketches : Sketch.t list option;
        (** overrides sketch generation (baseline schedulers) *)
    database : Database.t option;
        (** replay store: stored schedules short-circuit the search,
            fresh results are committed back *)
    jobs : int option;
        (** size of a private domain pool for this call; [None] shares
            the process-wide [TIR_JOBS]-sized pool *)
    model : Model.spec;
        (** which cost model ranks candidates: a fresh learner
            ([Model.Gbdt], the default) or a warm-start snapshot
            ([Model.Warm]) carried over from earlier runs *)
  }

  let default =
    {
      seed = 42;
      trials = 64;
      use_cost_model = true;
      evolve = true;
      sketches = None;
      database = None;
      jobs = None;
      model = Model.Gbdt;
    }

  let with_seed seed t = { t with seed }
  let with_trials trials t = { t with trials }
  let with_use_cost_model use_cost_model t = { t with use_cost_model }
  let with_evolve evolve t = { t with evolve }
  let with_sketches s t = { t with sketches = Some s }
  let with_database db t = { t with database = Some db }
  let with_jobs jobs t = { t with jobs = Some jobs }
  let with_model model t = { t with model }
end

(* --- steppable driver -------------------------------------------------- *)

type state =
  | D_engine of Engine.t  (** search in flight *)
  | D_finished of result  (** db commit already done *)

type driver = {
  d_cfg : Config.t;
  d_w : W.t;
  d_target : Tir_sim.Target.t;
  mutable d_pool : Tir_parallel.Pool.t option;
      (** private pool owned by this driver; [None] once released or when
          the pool is shared/external *)
  mutable d_state : state;
}

type progress =
  | Stepped of {
      gen : int;
      trials_done : int;
      best_us : float;
      rank_corr : float;
    }
  | Finished of result

let release d =
  match d.d_pool with
  | None -> ()
  | Some p ->
      d.d_pool <- None;
      Tir_parallel.Pool.shutdown p

(** Set up a tuning run without driving it: sketch generation, the
    database-replay short-circuit, and — when the search is actually
    needed — an [Engine.t]. [pool] overrides [cfg.jobs] with
    an externally owned pool (the scheduler passes its shared pool and
    keeps ownership); without it, [cfg.jobs = Some j] creates a private
    pool that {!release} (or the last {!step}) joins. *)
let prepare ?checkpoint ?resume ?pool (cfg : Config.t) (w : W.t)
    (target : Tir_sim.Target.t) : driver =
  let { Config.seed; trials; use_cost_model; evolve; _ } = cfg in
  let sketches =
    Trace.with_span "tune.sketch_gen" (fun () ->
        match cfg.Config.sketches with
        | Some s -> s
        | None -> Sketch.generate target w (target_intrinsics target))
  in
  let cached =
    match cfg.Config.database with
    | Some db when resume = None ->
        Trace.with_span "tune.db_replay" (fun () ->
            match
              Database.find db ~target_name:target.Tir_sim.Target.name
                ~workload_name:w.W.name
            with
            | None -> None
            | Some r -> Database.replay target ~workload:w ~sketches r)
    | _ -> None
  in
  match cached with
  | Some best ->
      (* One verification measurement, no search. *)
      let stats = Evolutionary.new_stats () in
      stats.Evolutionary.trials <- 1;
      stats.Evolutionary.profiling_us <-
        best.Evolutionary.latency_us +. Evolutionary.measurement_overhead_us;
      {
        d_cfg = cfg;
        d_w = w;
        d_target = target;
        d_pool = None;
        d_state =
          D_finished
            { workload = w; target; best = Some best; stats; model = None };
      }
  | None ->
      let private_pool =
        match pool with
        | Some _ -> None
        | None ->
            Option.map
              (fun j -> Tir_parallel.Pool.create ~jobs:j ())
              cfg.Config.jobs
      in
      let engine_pool =
        match pool with Some p -> Some p | None -> private_pool
      in
      let engine =
        Engine.create ~use_cost_model ~evolve
          ~model:(Model.of_spec cfg.Config.model)
          ~group:(target.Tir_sim.Target.name ^ "|" ^ w.W.name)
          ?pool:engine_pool ?checkpoint
          ?resume ~seed ~target ~trials sketches
      in
      {
        d_cfg = cfg;
        d_w = w;
        d_target = target;
        d_pool = private_pool;
        d_state = D_engine engine;
      }

(* Close out a run whose engine finished: commit the best schedule to the
   database, join any private pool. Runs exactly once per driver. *)
let finalize d (e : Engine.t) : result =
  let { Evolutionary.best; stats } = Engine.result e in
  (match (d.d_cfg.Config.database, best) with
  | Some db, Some b -> Database.commit db d.d_target d.d_w b
  | _ -> ());
  release d;
  let r =
    {
      workload = d.d_w;
      target = d.d_target;
      best;
      stats;
      model = Some (Engine.model e);
    }
  in
  d.d_state <- D_finished r;
  r

(** Advance the run by one search generation. Returns [Finished] when the
    run is over (replayed from the database, trial budget reached, or
    space exhausted) — the first [Finished] transition commits the best
    schedule to [cfg.database] and joins the driver's private pool; later calls return the same result. *)
let step d : progress =
  match d.d_state with
  | D_finished r -> Finished r
  | D_engine e -> (
      match Engine.step e with
      | _, Engine.Stepped { gen; trials_done; best_us; rank_corr } ->
          Stepped { gen; trials_done; best_us; rank_corr }
      | _, (Engine.Exhausted _ | Engine.Done) -> Finished (finalize d e))

(** Tune a workload under [cfg]. When [cfg.database] holds a record for
    this (target, workload), the stored schedule is replayed instead of
    searching — the paper's §5.2 "no search is needed for an operator
    already tuned"; fresh results are committed back. Results are
    bit-identical at any job count for a fixed seed.

    [checkpoint]/[resume] wire the search's write-ahead hooks (see
    [Evolutionary]); [Session] owns the on-disk log built on them. A
    resumed call skips the database-replay short-circuit — it is
    mid-search by definition. *)
let run ?checkpoint ?resume (cfg : Config.t) (w : W.t)
    (target : Tir_sim.Target.t) : result =
  let d = prepare ?checkpoint ?resume cfg w target in
  match d.d_state with
  | D_finished r -> r
  | D_engine e ->
      (* Join the private pool's domains even when the search raises, or
         the process hangs on exit waiting for them. *)
      Fun.protect
        ~finally:(fun () -> release d)
        (fun () ->
          Trace.with_span "tune.search" (fun () ->
              let rec drive () =
                match Engine.step e with
                | _, Engine.Stepped _ -> drive ()
                | _, (Engine.Exhausted _ | Engine.Done) -> ()
              in
              drive ());
          finalize d e)

(** Simulated end-to-end tuning time in minutes: profiling cost plus a
    fixed per-proposal search overhead (candidate generation, cost-model
    queries). Mirrors the paper's observation that most tuning time is
    hardware profiling. *)
let tuning_minutes r =
  let search_overhead_us = 2_000.0 *. float_of_int r.stats.Evolutionary.proposed in
  (r.stats.Evolutionary.profiling_us +. search_overhead_us) /. 60.0e6

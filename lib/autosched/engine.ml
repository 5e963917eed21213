(** Steppable evolutionary-search engine (paper §4.4).

    This is the search loop of [Evolutionary], refactored into an explicit
    state machine: an [Engine.t] holds the full search state (elite set,
    dedup table, cost model, cumulative stats, generation counter) and
    {!step} advances it by exactly one generation — proposal fan-out,
    evaluation, ranked measurement, cost-model retrain, and the
    per-generation metrics/trace/checkpoint flush. [Tune.run] and
    [Session.run] are thin loops over [step];
    schedulers that interleave many searches ([Tir_service.Scheduler])
    call [step] directly and get preemption at generation boundaries for
    free — a generation is the atomic unit of work, and everything a
    generation writes (WAL records, metrics, trace events) is committed
    before [step] returns.

    Every determinism property of the monolithic loop is preserved:
    generation randomness derives from [(seed, gen)] alone
    ([Rng.for_generation]), pool fan-outs reduce in slot order, and the
    memoized evaluation/measurement pipeline is pure — so a fixed seed
    yields bit-identical results at any job count, regardless of how many
    engines interleave their steps on one shared pool. *)

open Tir_ir
module Pool = Tir_parallel.Pool
module Metrics = Tir_obs.Metrics

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
  mutable trials : int;  (** programs measured on hardware *)
  mutable proposed : int;  (** programs proposed by the search *)
  mutable invalid : int;  (** rejected by the §3.3 validator *)
  mutable unsound : int;  (** rejected by the semantic analyzer *)
  mutable inapplicable : int;  (** decision vectors the sketch rejects *)
  mutable unmeasurable : int;
      (** candidates dropped after measurement faults exhausted their
          retries or the per-candidate budget expired *)
  mutable best_curve : (int * float) list;  (** (trial, best latency) *)
  mutable profiling_us : float;  (** simulated time spent measuring *)
  mutable cache_hits : int;  (** evaluation/measurement memo hits *)
  mutable cache_lookups : int;  (** evaluation/measurement memo probes *)
}

let new_stats () =
  {
    trials = 0;
    proposed = 0;
    invalid = 0;
    unsound = 0;
    inapplicable = 0;
    unmeasurable = 0;
    best_curve = [];
    profiling_us = 0.0;
    cache_hits = 0;
    cache_lookups = 0;
  }

(** Memo hit-rate over this search's probes (0 when nothing was probed). *)
let cache_hit_rate stats =
  if stats.cache_lookups = 0 then 0.0
  else float_of_int stats.cache_hits /. float_of_int stats.cache_lookups

type result = { best : measured option; stats : stats }

(** Write-ahead checkpoint hooks, called synchronously from the engine's
    sequential reduces (never from pool domains). The callee must consume
    its arguments before returning — [stats] is the search's live mutable
    record. A generation is only {e committed} by [on_generation]; a crash
    mid-generation loses nothing, because the generation re-runs
    bit-identically from its [(seed, gen)]-derived stream. *)
type checkpoint = {
  on_seen : gen:int -> string list -> unit;
      (** fresh candidate keys deduplicated into the seen-set this
          generation, in slot order *)
  on_measured : gen:int -> measured -> unit;
      (** one successfully measured candidate, in measurement order *)
  on_generation : gen:int -> stats -> best_us:float -> unit;
      (** generation completed; [stats] is the cumulative snapshot *)
}

(** State rebuilt from a checkpoint log, handed to [create ?resume] to
    re-enter at generation [r_gen] with bit-identical behaviour. *)
type resume = {
  r_gen : int;  (** next generation to run *)
  r_seen : string list;  (** every key deduplicated so far *)
  r_measured : measured list;  (** in original measurement order *)
  r_stats : stats;
      (** cumulative counters at the last committed generation
          ([best_curve] is ignored — it is rebuilt from [r_measured]) *)
}

(* Cost charged per hardware measurement: each candidate runs a few times
   plus compilation/transfer overhead. This drives the Table 1 comparison:
   searches that propose slower programs pay more profiling time. *)
let measurement_overhead_us = 60_000.0
let measurement_runs = 50.0

(* Real tuners cap the per-candidate measurement time (min-repeat logic). *)
let measurement_cap_us = 150_000.0

(* Elites kept across generations, and candidates measured per generation. *)
let population = 32
let measure_batch = 16

(* Where a proposal came from — drives the mutation-acceptance
   accounting. *)
type origin = Seeded | Random | Mutation | Crossover

(* Registry counters; process-wide totals across every search. *)
let m_proposed = Metrics.counter "search.proposed"
let m_deduped = Metrics.counter "search.deduped"
let m_invalid = Metrics.counter "search.invalid"
let m_unsound = Metrics.counter "search.unsound"
let m_inapplicable = Metrics.counter "search.inapplicable"
let m_trials = Metrics.counter "search.trials"
let m_generations = Metrics.counter "search.generations"
let m_mutations = Metrics.counter "search.mutations"
let m_crossovers = Metrics.counter "search.crossovers"
let m_accepted = Metrics.counter "search.accepted"
let m_unmeasurable = Metrics.counter "search.unmeasurable"
let m_rank_corr = Metrics.gauge "costmodel.rank_corr"
let m_memo_rate = Metrics.gauge "search.memo_hit_rate"

(* The eval and measure memos' registry counters, which the same metrics
   dump reports beside the gauge. *)
let m_memo_hits = [ Metrics.counter "memo.eval.hits"; Metrics.counter "memo.measure.hits" ]

let m_memo_misses =
  [ Metrics.counter "memo.eval.misses"; Metrics.counter "memo.measure.misses" ]

(* Per-generation tallies, reset each round. *)
type gen_tally = {
  mutable g_proposed : int;
  mutable g_deduped : int;
  mutable g_invalid : int;
  mutable g_unsound : int;
  mutable g_inapplicable : int;
  mutable g_memo_hits : int;
  mutable g_lookups : int;  (** memo probes this generation (hit-rate base) *)
  mutable g_measured : int;
  mutable g_unmeasurable : int;
  mutable g_mutations : int;
  mutable g_crossovers : int;
  mutable g_accepted : int;
  mutable g_pairs : (float * float) list;  (** (predicted score, latency) *)
}

let new_gen_tally () =
  {
    g_proposed = 0;
    g_deduped = 0;
    g_invalid = 0;
    g_unsound = 0;
    g_inapplicable = 0;
    g_memo_hits = 0;
    g_lookups = 0;
    g_measured = 0;
    g_unmeasurable = 0;
    g_mutations = 0;
    g_crossovers = 0;
    g_accepted = 0;
    g_pairs = [];
  }

type t = {
  use_cost_model : bool;
  evolve : bool;
  pool : Pool.t;
  retry : Tir_parallel.Retry.policy option;
  checkpoint : checkpoint option;
  seed : int;
  target : Tir_sim.Target.t;
  trials : int;
  sketches : Sketch.t list;
  stats : stats;
  model : Model.t;
  group : string;  (** the model's label-normalization group for this task *)
  key_prefix : string;
  seen : (string, unit) Hashtbl.t;
  mutable elites : measured list;
  mutable best : measured option;
  mutable gen : int;  (** next generation to run *)
  mutable tally : gen_tally;
  mutable pairs : (float * float) list;
      (** cumulative (predicted score, latency) pairs across generations —
          the engine-level rank-correlation sample. Not checkpointed: a
          resumed engine's correlation restarts over post-resume
          generations (it never feeds the search itself). *)
  mutable exhausted : bool;  (** a generation produced zero fresh candidates *)
}

type event =
  | Stepped of {
      gen : int;
      trials_done : int;
      best_us : float;
      rank_corr : float;
    }
  | Exhausted of { gen : int }
  | Done

let gen t = t.gen
let trials_done t = t.stats.trials
let finished t = t.exhausted || t.stats.trials >= t.trials
let result t = { best = t.best; stats = t.stats }
let best_us t = match t.best with Some b -> b.latency_us | None -> Float.nan
let model t = t.model

(* Predicted score is "higher = faster"; correlate against -latency so a
   perfect model scores +1. *)
let spearman_of_pairs pairs =
  Tir_obs.Stat.spearman
    (Array.of_list (List.rev_map (fun (s, l) -> (s, -.l)) pairs))

(** Cumulative rank correlation over every (score, latency) pair this
    engine measured — 0.0 until two distinct pairs exist. *)
let rank_corr t = spearman_of_pairs t.pairs

let consider t (m : measured) =
  (match t.best with
  | Some b when b.latency_us <= m.latency_us -> ()
  | _ ->
      t.best <- Some m;
      t.stats.best_curve <- (t.stats.trials, m.latency_us) :: t.stats.best_curve);
  t.elites <-
    List.filteri
      (fun i _ -> i < population)
      (List.sort (fun a b -> Float.compare a.latency_us b.latency_us) (m :: t.elites))

(* --- proposal generation (slot-parallel, split RNG per slot) --- *)

let random_specs t rng n =
  let rngs = Rng.split_n rng n in
  Array.to_list
    (Pool.parallel_map t.pool
       (fun r ->
         let sk = Rng.choose r t.sketches in
         (sk, Space.random_decisions r sk.Sketch.knobs, Random))
       rngs)

let evolved_specs t rng n =
  match t.elites with
  | [] -> []
  | es ->
      let rngs = Rng.split_n rng n in
      Array.to_list
        (Pool.parallel_map t.pool
           (fun r ->
             let parent = Rng.choose r es in
             let sk =
               List.find
                 (fun s -> String.equal s.Sketch.name parent.sketch_name)
                 t.sketches
             in
             (* Decisions are mutated inside the parent's trace: the
                trace's [Decide] records are the authoritative knob
                assignment of the measured schedule. *)
             let pd = Tir_sched.Trace.decisions parent.trace in
             if Rng.bool r || List.length es < 2 then
               (sk, Space.mutate r sk.Sketch.knobs pd, Mutation)
             else
               let other = Rng.choose r es in
               if String.equal other.sketch_name parent.sketch_name then
                 ( sk,
                   Space.crossover r sk.Sketch.knobs pd
                     (Tir_sched.Trace.decisions other.trace),
                   Crossover )
               else (sk, Space.mutate r sk.Sketch.knobs pd, Mutation))
           rngs)

(* Heuristic initial samples (Ansor-style): a few structured decision
   vectors per sketch anchor the first generation so small trial budgets
   do not depend purely on random luck. *)
let seeded_specs t =
  List.concat_map
    (fun (sk : Sketch.t) ->
      List.map
        (fun pickf ->
          ( sk,
            List.map
              (fun (k : Space.knob) -> (k.Space.name, pickf k.Space.count))
              sk.Sketch.knobs,
            Seeded ))
        [
          (fun _ -> 0);
          (fun c -> c / 2);
          (fun c -> max 0 (c - 1));
          (fun c -> c / 3);
          (fun c -> 2 * c / 3);
        ])
    t.sketches

(* Dedup in slot order, evaluate the fresh candidates across the pool
   (memoized apply/validate/extract), account in slot order. *)
let propose_all t specs =
  let g = t.tally in
  let fresh =
    List.filter_map
      (fun ((sk : Sketch.t), d, origin) ->
        (* Canonical key: the vector projected onto the sketch's knob
           list. Raw [Space.key_of] would let a stale entry (a knob this
           sketch does not read) split the memo entry for a behaviourally
           identical candidate. *)
        let key =
          sk.Sketch.space_id ^ "|" ^ Space.canonical_key sk.Sketch.knobs d
        in
        if Hashtbl.mem t.seen key then begin
          g.g_deduped <- g.g_deduped + 1;
          None
        end
        else begin
          Hashtbl.add t.seen key ();
          t.stats.proposed <- t.stats.proposed + 1;
          g.g_proposed <- g.g_proposed + 1;
          (match origin with
          | Mutation -> g.g_mutations <- g.g_mutations + 1
          | Crossover -> g.g_crossovers <- g.g_crossovers + 1
          | Seeded | Random -> ());
          Some (sk, d, key, origin)
        end)
      specs
  in
  (* WAL the fresh keys before any evaluation: resuming a later
     generation must re-seed the dedup set exactly. *)
  (match t.checkpoint with
  | Some c when fresh <> [] ->
      c.on_seen ~gen:t.gen (List.map (fun (_, _, key, _) -> key) fresh)
  | _ -> ());
  let evals =
    Pool.parallel_map_list t.pool
      (fun ((sk : Sketch.t), d, key, _) ->
        Tir_obs.Trace.with_ctx ~candidate:key (fun () ->
            Tir_obs.Trace.with_span "evaluate" (fun () ->
                Eval.evaluate_cached ~key:(t.key_prefix ^ key)
                  ~target:t.target sk d)))
      fresh
  in
  List.concat
    (List.map2
       (fun (sk, d, key, origin) (hit, ev) ->
         t.stats.cache_lookups <- t.stats.cache_lookups + 1;
         g.g_lookups <- g.g_lookups + 1;
         if hit then begin
           t.stats.cache_hits <- t.stats.cache_hits + 1;
           g.g_memo_hits <- g.g_memo_hits + 1
         end;
         match ev with
         | Eval.Inapplicable ->
             t.stats.inapplicable <- t.stats.inapplicable + 1;
             g.g_inapplicable <- g.g_inapplicable + 1;
             []
         | Eval.Invalid ->
             t.stats.invalid <- t.stats.invalid + 1;
             g.g_invalid <- g.g_invalid + 1;
             []
         | Eval.Unsound ->
             t.stats.unsound <- t.stats.unsound + 1;
             g.g_unsound <- g.g_unsound + 1;
             []
         | Eval.Unsupported -> []
         | Eval.Evaluated { func; fp; features; trace } ->
             [ (sk, d, key, origin, func, fp, features, trace) ])
       fresh evals)

(* Measure a ranked batch across the pool (memoized), then feed the cost
   model, the elite set, and the generation tallies in rank order.

   Measurement memo keys are program fingerprints (the simulator is a
   pure function of (target, program)), so one batch can contain the
   same key twice — distinct decision vectors that materialize
   structurally identical programs. Each distinct key is probed exactly
   once across the pool; a duplicate slot then reads the first slot's
   outcome as a hit. That is what sequential probing would produce, and
   it avoids same-key pending-wait races inside one region, which would
   make the memo counters depend on the job count. *)
let measure_top t scored =
  let g = t.tally in
  let keyed =
    List.map
      (fun ((_, (_, _, _, _, _, fp, _, _)) as sc) ->
        (t.key_prefix ^ "prog#" ^ Tir_ir.Fingerprint.to_hex fp, sc))
      scored
  in
  let distinct_tbl = Hashtbl.create 16 in
  let distinct =
    List.filter_map
      (fun (key, (_, (_, _, _, _, func, _, _, _))) ->
        if Hashtbl.mem distinct_tbl key then None
        else begin
          Hashtbl.add distinct_tbl key ();
          Some (key, func)
        end)
      keyed
  in
  let probes =
    Pool.parallel_map_list t.pool
      (fun (key, func) ->
        (* the program fingerprint is the candidate identity on the trace *)
        Tir_obs.Trace.with_ctx ~candidate:key (fun () ->
            Tir_obs.Trace.with_span "measure" (fun () ->
                Eval.measure_cached ?retry:t.retry ~key ~target:t.target
                  func)))
      distinct
  in
  let by_key = Hashtbl.create 16 in
  List.iter2 (fun (key, _) r -> Hashtbl.replace by_key key r) distinct probes;
  let seen_in_batch = Hashtbl.create 16 in
  List.iter
    (fun (key, (score, ((sk : Sketch.t), _, _, origin, func, _, features, trace)))
         ->
      let hit, outcome =
        if Hashtbl.mem seen_in_batch key then
          (true, snd (Hashtbl.find by_key key))
        else begin
          Hashtbl.add seen_in_batch key ();
          Hashtbl.find by_key key
        end
      in
      t.stats.cache_lookups <- t.stats.cache_lookups + 1;
      g.g_lookups <- g.g_lookups + 1;
      if hit then begin
        t.stats.cache_hits <- t.stats.cache_hits + 1;
        g.g_memo_hits <- g.g_memo_hits + 1
      end;
      match outcome with
      | Eval.Unsupported_target -> ()
      | Eval.Unmeasurable ->
          (* Graceful degradation: scored but never measured — the
             candidate is skipped without feeding the cost model, the
             elite set, or (via the checkpoint) the database. *)
          t.stats.unmeasurable <- t.stats.unmeasurable + 1;
          g.g_unmeasurable <- g.g_unmeasurable + 1
      | Eval.Measured latency_us ->
          t.stats.trials <- t.stats.trials + 1;
          t.stats.profiling_us <-
            t.stats.profiling_us
            +. Float.min measurement_cap_us (latency_us *. measurement_runs)
            +. measurement_overhead_us;
          g.g_measured <- g.g_measured + 1;
          g.g_pairs <- (score, latency_us) :: g.g_pairs;
          Model.add t.model ~group:t.group ~features ~latency_us;
          let m =
            {
              sketch_name = sk.Sketch.name;
              base = sk.Sketch.base;
              decisions = Tir_sched.Trace.decisions trace;
              trace;
              func;
              latency_us;
            }
          in
          consider t m;
          (match t.checkpoint with
          | Some c -> c.on_measured ~gen:t.gen m
          | None -> ());
          (* A mutant/crossover is "accepted" when it survives into the
             elite set — the population actually evolved. *)
          (match origin with
          | Mutation | Crossover ->
              if List.memq m t.elites then g.g_accepted <- g.g_accepted + 1
          | Seeded | Random -> ()))
    keyed

(* Flush the per-generation tallies: registry counters, rank-correlation
   gauge, the [gen.commit] trace instant. Runs in the sequential reduce,
   so everything here is deterministic at any job count. *)
let finish_generation t =
  let tl = t.tally in
  let best_us = best_us t in
  (* The registry gauge carries the cumulative figure over the whole
     search, which is what says whether the model ranks this task well —
     one measurement batch is too small a sample. The per-generation
     figure goes on the trace. *)
  t.pairs <- tl.g_pairs @ t.pairs;
  let cum_rank_corr = spearman_of_pairs t.pairs in
  Metrics.add m_proposed tl.g_proposed;
  Metrics.add m_deduped tl.g_deduped;
  Metrics.add m_invalid tl.g_invalid;
  Metrics.add m_unsound tl.g_unsound;
  Metrics.add m_inapplicable tl.g_inapplicable;
  Metrics.add m_trials tl.g_measured;
  Metrics.add m_mutations tl.g_mutations;
  Metrics.add m_crossovers tl.g_crossovers;
  Metrics.add m_accepted tl.g_accepted;
  Metrics.add m_unmeasurable tl.g_unmeasurable;
  Metrics.incr m_generations;
  Metrics.set m_rank_corr cum_rank_corr;
  (* The gauge carries the cumulative process-wide memo hit rate, from
     the registry counters (integers — deterministic at any job count),
     so it agrees with the [memo.eval.*] and [memo.measure.*] counters in
     the same dump; [Eval.clear_caches] does not reset those. It is only
     written when there were probes: the final, empty generation must
     not pin it at 0.0. The per-generation hits and lookups go on the
     trace below. *)
  (let sum = List.fold_left (fun acc c -> acc + Metrics.counter_value c) 0 in
   let hits = sum m_memo_hits in
   let probes = hits + sum m_memo_misses in
   if probes > 0 then
     Metrics.set m_memo_rate (float_of_int hits /. float_of_int probes));
  (* Trace the generation boundary: a deterministic instant whose identity
     carries the generation's funnel, plus counter tracks for the
     Perfetto view. *)
  if Tir_obs.Trace.is_enabled () then begin
    let int k v = (k, string_of_int v) and hex k v = (k, Printf.sprintf "%h" v) in
    Tir_obs.Trace.instant "gen.commit"
      ~args:
        [
          int "gen" t.gen;
          int "proposed" tl.g_proposed;
          int "deduped" tl.g_deduped;
          int "invalid" tl.g_invalid;
          int "unsound" tl.g_unsound;
          int "inapplicable" tl.g_inapplicable;
          int "memo_hits" tl.g_memo_hits;
          int "lookups" tl.g_lookups;
          int "measured" tl.g_measured;
          int "mutations" tl.g_mutations;
          int "crossovers" tl.g_crossovers;
          int "accepted" tl.g_accepted;
          int "trials" t.stats.trials;
          hex "best_us" best_us;
          hex "rank_corr" (spearman_of_pairs tl.g_pairs);
        ];
    Tir_obs.Trace.counter "search.trials" (float_of_int t.stats.trials);
    if Float.is_finite best_us then Tir_obs.Trace.counter "search.best_us" best_us
  end;
  (* Commit marker: everything this generation wrote becomes durable
     only here. Emitted after the metrics/trace flush, before the
     counter advances. *)
  (match t.checkpoint with
  | Some c -> c.on_generation ~gen:t.gen t.stats ~best_us
  | None -> ());
  t.gen <- t.gen + 1;
  t.tally <- new_gen_tally ()

let create ?(use_cost_model = true) ?(evolve = true) ?model ?group ?pool ?retry
    ?checkpoint ?resume ~seed ~target ~trials (sketches : Sketch.t list) : t =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let model = match model with Some m -> m | None -> Model.gbdt () in
  let group =
    match group with Some g -> g | None -> target.Tir_sim.Target.name
  in
  let t =
    {
      use_cost_model;
      evolve;
      pool;
      retry;
      checkpoint;
      seed;
      target;
      trials;
      sketches;
      stats = new_stats ();
      model;
      group;
      key_prefix = Eval.cache_prefix target;
      seen = Hashtbl.create 256;
      elites = [];
      best = None;
      gen = 0;
      tally = new_gen_tally ();
      pairs = [];
      exhausted = false;
    }
  in
  (* Resume: rebuild the in-memory search state from a checkpoint log.
     The dedup set and the measured list replay through the same
     sequential code paths a live run uses, so the elite set, the best
     curve, and the cost-model dataset come out bit-identical; the
     aggregate counters are then restored from the committed snapshot. *)
  (match resume with
  | None -> ()
  | Some r ->
      t.gen <- max 0 r.r_gen;
      List.iter (fun k -> Hashtbl.replace t.seen k ()) r.r_seen;
      List.iter
        (fun (m : measured) ->
          let features = Features.extract target m.func in
          Model.add t.model ~group:t.group ~features ~latency_us:m.latency_us;
          t.stats.trials <- t.stats.trials + 1;
          consider t m)
        r.r_measured;
      (* The model refits on the full dataset every round, so one retrain
         after the replayed adds reproduces the live run's model state at
         this generation boundary exactly. *)
      if r.r_measured <> [] then Model.retrain t.model;
      t.stats.trials <- r.r_stats.trials;
      t.stats.proposed <- r.r_stats.proposed;
      t.stats.invalid <- r.r_stats.invalid;
      t.stats.unsound <- r.r_stats.unsound;
      t.stats.inapplicable <- r.r_stats.inapplicable;
      t.stats.unmeasurable <- r.r_stats.unmeasurable;
      t.stats.profiling_us <- r.r_stats.profiling_us;
      t.stats.cache_hits <- r.r_stats.cache_hits;
      t.stats.cache_lookups <- r.r_stats.cache_lookups);
  t

let step t =
  if finished t then (t, Done)
  else
    Tir_obs.Trace.with_ctx ~generation:t.gen @@ fun () ->
    Tir_obs.Trace.with_span "engine.step" @@ fun () ->
    begin
    (* Each generation draws from its own (seed, gen)-derived stream:
       generation [g]'s randomness depends only on the seed and [g],
       never on how many draws earlier generations made — the property
       that lets a resumed process (or a preempted engine) re-enter
       mid-search. *)
    let rng = Rng.for_generation ~seed:t.seed ~gen:t.gen in
    let fresh = if t.elites = [] then population * 4 else population in
    let seeds = if t.elites = [] then seeded_specs t else [] in
    let specs =
      if t.evolve then
        seeds @ random_specs t rng fresh @ evolved_specs t rng (population * 2)
      else seeds @ random_specs t rng (population * 3)
    in
    match propose_all t specs with
    | [] ->
        (* Space exhausted: commit the empty generation and stop. *)
        let g = t.gen in
        t.exhausted <- true;
        finish_generation t;
        (t, Exhausted { gen = g })
    | cands ->
        let scores =
          if t.use_cost_model then
            Array.to_list
              (Model.score_batch t.model
                 (Array.of_list
                    (List.map (fun (_, _, _, _, _, _, f, _) -> f) cands)))
          else List.map (fun _ -> Rng.float rng 1.0) cands
        in
        let ranked =
          (* stable sort: ties keep generation order *)
          List.sort
            (fun ((a : float), _) (b, _) -> Float.compare b a)
            (List.combine scores cands)
        in
        let batch = min measure_batch (t.trials - t.stats.trials) in
        measure_top t (List.filteri (fun i _ -> i < batch) ranked);
        Model.retrain t.model;
        let g = t.gen in
        finish_generation t;
        ( t,
          Stepped
            {
              gen = g;
              trials_done = t.stats.trials;
              best_us = best_us t;
              rank_corr = rank_corr t;
            } )
  end

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 5) on the simulated hardware, plus ablations and
   Bechamel micro-benchmarks of the compiler infrastructure itself.

     dune exec bench/main.exe                 full run
     BENCH_FAST=1 dune exec bench/main.exe    reduced trial counts (smoke)
     TIR_JOBS=n ...                           size of the measurement pool
     ... -- --check                           exit 1 on non-finite results

   Every section also records its numbers into BENCH_results.json
   (schema 9: per-section latency/GFLOPs rows, per-section wall-clock, a
   dump of the process-wide metrics registry — memo hit rate, database
   replay rate, simulator data-movement counters — plus fault-injection /
   retry, session, multi-tenant service, causal-trace [obs],
   schedule-legality [legality] and learned-cost-model [costmodel]
   headline counters) so the perf trajectory is machine-trackable across
   PRs.
   [tools/validate_bench.exe] checks the emitted file against the schema
   in the bench-smoke gate, and [tools/bench_diff.exe] compares two such
   files for regressions.

   Sections:
     [fig8]     auto-tensorization mechanism walk-through
     [fig10]    single-op vs ML compilers (TVM, AMOS) on GPU
     [fig11]    single-op vs vendor libraries (CUTLASS, TensorRT)
     [fig12]    end-to-end GPU models vs PyTorch/TVM/AMOS/TensorRT
     [tab1]     tuning-time comparison TVM vs TensorIR
     [fig13]    ARM single-op vs TVM and ArmComputeLib (int8 sdot)
     [fig14]    ARM end-to-end vs PyTorch and TVM
     [ablation] design-choice ablations (AutoCopy, cost model, evolution)
     [micro]    Bechamel micro-benchmarks of the infrastructure
     [legality] dependence analysis + schedule-legality prover: survey
                verdicts, static-vs-dynamic agreement, certify memo
     [session]  crash-safe sessions: kill+resume, fault-injected search
     [service]  multi-tenant serve: mixed priorities, server kill+resume,
                cross-tenant database replay
     [costmodel] rank-trained GBDT: held-out rank correlation, zero-shot
                transfer, warm-start trials-to-best vs a cold run *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module B = Tir_baselines.Baselines
module C = Tir_graph.Compile
module M = Tir_graph.Models
module Target = Tir_sim.Target
module Clock = Tir_obs.Clock
module Metrics = Tir_obs.Metrics
module Trace = Tir_obs.Trace
module Json_min = Tir_obs.Json_min

let () = Tir_intrin.Library.register_all ()

let fast = Sys.getenv_opt "BENCH_FAST" <> None

(* BENCH_ONLY=hotpath,micro runs just the named sections (the perf-smoke
   gate uses it to time the hot path without the figure sweeps). *)
let only =
  match Sys.getenv_opt "BENCH_ONLY" with
  | None | Some "" -> None
  | Some s -> Some (String.split_on_char ',' s)
let check = Array.exists (String.equal "--check") Sys.argv
let jobs = Tir_parallel.Pool.default_jobs ()

let trials n = if fast then max 8 (n / 4) else n

(* ------------------------------------------------------------------ *)
(* machine-readable results (BENCH_results.json)                       *)
(* ------------------------------------------------------------------ *)

(* (section, name, value, unit) rows; units: us, gflops, min, ns *)
let results : (string * string * float * string) list ref = ref []
let record section name value unit_ = results := (section, name, value, unit_) :: !results

let record_op section prefix (w : W.t) (r : Tune.result) =
  record section (prefix ^ ":" ^ w.W.name) (Tune.latency_us r) "us";
  record section (prefix ^ ":" ^ w.W.name) (Tune.gflops r) "gflops"

let section_walls : (string * float) list ref = ref []

(* Headline block of the hotpath section (schema 5): optimized-vs-legacy
   proposals/s on the deterministic elite-neighborhood proposal stream,
   with the per-sketch classification tallies that anchor bit-identity
   against BENCH_baseline.json, per-stage micro timings, and the
   apply-cache counters behind the speedup. *)
type hotpath_sketch = {
  hs_name : string;
  hs_props : int;  (** proposals in the stream (duplicates included) *)
  hs_unique : int;  (** distinct decision vectors among them *)
  hs_legacy_cps : float;
  hs_opt_cps : float;
  hs_tally : (string * int) list;
}

type hotpath_headline = {
  hp_stream : int * int * int * int;  (** seed, gens, per_gen, elites *)
  hp_identical : bool;  (** per-proposal legacy ≡ optimized classification *)
  hp_legacy_cps : float;  (** combined, both sketches *)
  hp_opt_cps : float;
  hp_speedup : float;
  hp_sketches : hotpath_sketch list;
  hp_stages_ns : (string * float) list;  (** per-candidate stage cost *)
  hp_apply_cache : int * int;  (** hits, misses *)
}

let hotpath_headline : hotpath_headline option ref = ref None

(* Headline block of the legality section (schema 8): survey verdict
   tallies over the corpus, the static-vs-dynamic agreement ratio (a
   proven-illegal certificate must coincide exactly with an
   error-severity race diagnostic from the dynamic analyzers — the gate
   requires 1.0), and the fingerprint-keyed certify memo's cold/warm
   cost. The search-side prune tallies (search.pruned_static and the
   legality.* verdict counters) are read from the metrics snapshot at
   emit time: they are incremented only inside the eval memo's compute
   function, so they are bit-identical at any TIR_JOBS. *)
type legality_headline = {
  lg_corpus : int;  (** seed workloads + scheduled mutants surveyed *)
  lg_survey : (string * int) list;  (** verdict tallies over survey items *)
  lg_agreement : float;  (** certify Illegal <=> dynamic race error *)
  lg_certify_cold_us : float;  (** per-func, analysis memo cleared *)
  lg_certify_warm_us : float;  (** per-func, served from the memo *)
}

let legality_headline : legality_headline option ref = ref None

(* Headline block of the costmodel section (schema 9): held-out rank
   quality of the rank-trained GBDT on a mixed-workload dataset,
   zero-shot transfer to an unseen workload, and the warm-start payoff —
   whether a run seeded from a persisted model store comes within 1% of
   the cold run's final best inside half the trial budget. All quantities
   are
   deterministic: the dataset comes from seeded random decision vectors
   on the simulator, and the tuning runs are bit-identical per seed. *)
type costmodel_headline = {
  cm_rank_corr : float;  (** held-out within-task Spearman, trained tasks *)
  cm_transfer_rank_corr : float;  (** Spearman on an unseen workload *)
  cm_warm_start_hit : bool;  (** warm within 1% of cold best by budget/2 *)
  cm_trials_to_best_cold : int;
  cm_trials_to_best_warm : int;
  cm_train_samples : int;  (** samples behind the held-out estimate *)
}

let costmodel_headline : costmodel_headline option ref = ref None

(* JSON has no NaN/Infinity literals; emit them as null so the file always
   parses (the --check gate reports them separately). *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.6f" v else "null"

(* Schema 4: all stat plumbing comes from the metrics registry — the bench
   derives headline rates (memo hit rate, db replay rate, data movement,
   fault/retry totals, session progress) from the same snapshot it dumps
   under "metrics", and keeps no private counters of its own. *)
let emit_json ~total_wall_s path =
  let snap = Metrics.snapshot () in
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let memo_hits = counter "memo.eval.hits" + counter "memo.measure.hits" in
  let memo_misses = counter "memo.eval.misses" + counter "memo.measure.misses" in
  let memo_waits =
    counter "memo.eval.pending_waits" + counter "memo.measure.pending_waits"
  in
  let db_found = counter "db.found" in
  let db_ok = counter "db.replayed" in
  let over_sites f = List.fold_left (fun acc s -> acc + f s) 0 [ "measure"; "pool"; "db" ] in
  let injected = over_sites (fun s -> counter ("fault." ^ s ^ ".injected")) in
  let retry_attempts = over_sites (fun s -> counter ("retry." ^ s ^ ".attempts")) in
  let retry_exhausted = over_sites (fun s -> counter ("retry." ^ s ^ ".exhausted")) in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": 9,\n  \"fast\": %b,\n  \"jobs\": %d,\n" fast jobs;
  Printf.fprintf oc "  \"total_wall_s\": %s,\n" (json_float total_wall_s);
  (match !hotpath_headline with
  | None -> ()
  | Some hp ->
      let seed, gens, per_gen, elites = hp.hp_stream in
      Printf.fprintf oc
        "  \"hotpath\": {\n    \"stream\": {\"seed\": %d, \"gens\": %d, \"per_gen\": %d, \"elites\": %d},\n"
        seed gens per_gen elites;
      Printf.fprintf oc "    \"identical\": %b,\n" hp.hp_identical;
      Printf.fprintf oc
        "    \"combined\": {\"legacy_cands_per_s\": %s, \"candidates_per_s\": %s, \"speedup\": %s},\n"
        (json_float hp.hp_legacy_cps) (json_float hp.hp_opt_cps)
        (json_float hp.hp_speedup);
      Printf.fprintf oc "    \"sketches\": [";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n      {\"name\": \"%s\", \"proposals\": %d, \"unique\": %d, \"legacy_cands_per_s\": %s, \"candidates_per_s\": %s, \"tally\": {"
            (if i = 0 then "" else ",")
            (Json_min.escape s.hs_name) s.hs_props s.hs_unique
            (json_float s.hs_legacy_cps) (json_float s.hs_opt_cps);
          List.iteri
            (fun j (k, v) ->
              Printf.fprintf oc "%s\"%s\": %d" (if j = 0 then "" else ", ")
                (Json_min.escape k) v)
            s.hs_tally;
          Printf.fprintf oc "}}")
        hp.hp_sketches;
      Printf.fprintf oc "\n    ],\n    \"stages_ns_per_cand\": {";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s\"%s\": %s" (if i = 0 then "" else ", ")
            (Json_min.escape k) (json_float v))
        hp.hp_stages_ns;
      let ah, am = hp.hp_apply_cache in
      Printf.fprintf oc
        "},\n    \"apply_cache\": {\"hits\": %d, \"misses\": %d}\n  },\n" ah am);
  (match !legality_headline with
  | None -> ()
  | Some lg ->
      let v name = counter ("legality." ^ name) in
      let certified = v "legal" + v "illegal" + v "unknown" in
      let pruned = counter "search.pruned_static" in
      Printf.fprintf oc "  \"legality\": {\n    \"corpus\": %d,\n" lg.lg_corpus;
      Printf.fprintf oc "    \"survey\": {";
      List.iteri
        (fun i (k, n) ->
          Printf.fprintf oc "%s\"%s\": %d" (if i = 0 then "" else ", ")
            (Json_min.escape k) n)
        lg.lg_survey;
      Printf.fprintf oc "},\n    \"agreement\": %s,\n"
        (json_float lg.lg_agreement);
      Printf.fprintf oc
        "    \"certify_us\": {\"cold\": %s, \"warm\": %s},\n"
        (json_float lg.lg_certify_cold_us)
        (json_float lg.lg_certify_warm_us);
      Printf.fprintf oc
        "    \"verdicts\": {\"legal\": %d, \"illegal\": %d, \"unknown\": %d, \"agree\": %d, \"disagree\": %d},\n"
        (v "legal") (v "illegal") (v "unknown") (v "agree") (v "disagree");
      Printf.fprintf oc
        "    \"pruned_static\": %d,\n    \"prune_rate\": %s\n  },\n" pruned
        (json_float (rate pruned certified)));
  (match !costmodel_headline with
  | None -> ()
  | Some cm ->
      Printf.fprintf oc
        "  \"costmodel\": {\"rank_corr\": %s, \"transfer_rank_corr\": %s, \"warm_start_hit\": %b, \"trials_to_best_cold\": %d, \"trials_to_best_warm\": %d, \"train_samples\": %d},\n"
        (json_float cm.cm_rank_corr)
        (json_float cm.cm_transfer_rank_corr)
        cm.cm_warm_start_hit cm.cm_trials_to_best_cold
        cm.cm_trials_to_best_warm cm.cm_train_samples);
  Printf.fprintf oc
    "  \"memo\": {\"hits\": %d, \"misses\": %d, \"pending_waits\": %d, \"hit_rate\": %s},\n"
    memo_hits memo_misses memo_waits
    (json_float (rate memo_hits (memo_hits + memo_misses)));
  Printf.fprintf oc
    "  \"db_replay\": {\"records_found\": %d, \"trace_replayed\": %d, \"committed\": %d, \"hit_rate\": %s},\n"
    db_found db_ok (counter "db.committed")
    (json_float (rate db_ok db_found));
  Printf.fprintf oc
    "  \"faults\": {\"injected\": %d, \"retry_attempts\": %d, \"retry_exhausted\": %d, \"backoff_us\": %d, \"unmeasurable\": %d},\n"
    injected retry_attempts retry_exhausted
    (counter "retry.backoff_us")
    (counter "search.unmeasurable");
  Printf.fprintf oc
    "  \"session\": {\"generations\": %d, \"resumes\": %d, \"discarded\": %d, \"compactions\": %d, \"wal_appends\": %d, \"wal_torn\": %d},\n"
    (counter "session.generations")
    (counter "session.resumes")
    (counter "session.discarded")
    (counter "session.compactions")
    (counter "wal.appends")
    (counter "wal.torn_tail");
  Printf.fprintf oc
    "  \"service\": {\"tenants_submitted\": %d, \"tenants_completed\": %d, \"tenants_failed\": %d, \"scheduler_steps\": %d, \"jobs_done\": %d, \"jobs_failed\": %d},\n"
    (counter "scheduler.tenants_submitted")
    (counter "scheduler.tenants_completed")
    (counter "scheduler.tenants_failed")
    (counter "scheduler.steps")
    (counter "serve.jobs_done")
    (counter "serve.jobs_failed");
  Printf.fprintf oc
    "  \"data_movement_bytes\": {\"global\": %d, \"shared\": %d, \"local\": %d},\n"
    (counter "sim.bytes.global") (counter "sim.bytes.shared")
    (counter "sim.bytes.local");
  (* Schema 7 [obs] block: the causal-trace self-check. Validity is
     asserted by the same validators the trace-smoke gate uses, so a run
     that exports a malformed trace fails validate_bench. *)
  let tc = Trace.counts () in
  let chrome_valid, chrome_events =
    match Trace.validate_chrome (Trace.export_chrome ()) with
    | Ok n -> (true, n)
    | Error _ -> (false, 0)
  in
  let collapsed = Trace.export_collapsed () in
  let stacks = Trace.parse_collapsed collapsed in
  let rerendered =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) stacks)
  in
  let roundtrip = String.equal collapsed rerendered in
  (* Cumulative-bucket quantile: the upper bound of the first bucket
     holding the p-th observation (overflow bucket renders as null). *)
  let hist_quantile (h : Metrics.hist_snapshot) p =
    if h.Metrics.total = 0 then Float.nan
    else begin
      let want =
        int_of_float (Float.ceil (p *. float_of_int h.Metrics.total))
      in
      let seen = ref 0 and le = ref Float.infinity in
      Array.iteri
        (fun i c ->
          if !seen < want then begin
            seen := !seen + c;
            if !seen >= want && i < Array.length h.Metrics.le then
              le := h.Metrics.le.(i)
          end)
        h.Metrics.counts;
      !le
    end
  in
  let hist name =
    List.assoc_opt name snap.Metrics.histograms
  in
  Printf.fprintf oc
    "  \"obs\": {\n    \"trace\": {\"spans\": %d, \"instants\": %d, \"counters\": %d, \"dropped\": %d},\n"
    tc.Trace.spans tc.Trace.instants tc.Trace.counters tc.Trace.dropped;
  Printf.fprintf oc "    \"chrome\": {\"valid\": %b, \"events\": %d},\n"
    chrome_valid chrome_events;
  Printf.fprintf oc
    "    \"collapsed\": {\"roundtrip\": %b, \"stacks\": %d},\n" roundtrip
    (List.length stacks);
  Printf.fprintf oc "    \"stalls\": %d,\n" (counter "search.stalled");
  Printf.fprintf oc "    \"bytes_per_nest\": {";
  List.iteri
    (fun i scope ->
      let count, p50, p99 =
        match hist ("sim.bytes_per_nest." ^ scope) with
        | Some h -> (h.Metrics.total, hist_quantile h 0.5, hist_quantile h 0.99)
        | None -> (0, Float.nan, Float.nan)
      in
      Printf.fprintf oc
        "%s\"%s\": {\"count\": %d, \"p50_le\": %s, \"p99_le\": %s}"
        (if i = 0 then "" else ", ")
        scope count (json_float p50) (json_float p99))
    [ "global"; "shared"; "local" ];
  Printf.fprintf oc "}\n  },\n";
  Printf.fprintf oc "  \"metrics\": {\n    \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "%s\"%s\": %d" (if i = 0 then "" else ", ") (Json_min.escape name) v)
    snap.Metrics.counters;
  Printf.fprintf oc "},\n    \"gauges\": {";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "%s\"%s\": %s" (if i = 0 then "" else ", ") (Json_min.escape name)
        (json_float v))
    snap.Metrics.gauges;
  Printf.fprintf oc "},\n    \"histograms\": {";
  List.iteri
    (fun i (name, (h : Metrics.hist_snapshot)) ->
      Printf.fprintf oc "%s\"%s\": {\"total\": %d, \"counts\": ["
        (if i = 0 then "" else ", ")
        (Json_min.escape name) h.Metrics.total;
      Array.iteri
        (fun j c -> Printf.fprintf oc "%s%d" (if j = 0 then "" else ", ") c)
        h.Metrics.counts;
      Printf.fprintf oc "]}")
    snap.Metrics.histograms;
  Printf.fprintf oc "}\n  },\n  \"sections\": [";
  List.iteri
    (fun i (name, wall) ->
      Printf.fprintf oc "%s\n    {\"name\": \"%s\", \"wall_s\": %s}"
        (if i = 0 then "" else ",")
        (Json_min.escape name) (json_float wall))
    (List.rev !section_walls);
  Printf.fprintf oc "\n  ],\n  \"results\": [";
  List.iteri
    (fun i (section, name, value, unit_) ->
      Printf.fprintf oc "%s\n    {\"section\": \"%s\", \"name\": \"%s\", \"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ",")
        (Json_min.escape section) (Json_min.escape name) (json_float value) (Json_min.escape unit_))
    (List.rev !results);
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

(* --check gate: every recorded latency must be finite and positive, every
   other metric finite (the bench-smoke target fails otherwise). *)
let check_results () =
  let bad =
    List.filter
      (fun (_, _, v, unit_) ->
        (not (Float.is_finite v)) || (String.equal unit_ "us" && v <= 0.0))
      !results
  in
  List.iter
    (fun (section, name, v, unit_) ->
      Fmt.epr "BAD RESULT: [%s] %s = %g %s@." section name v unit_)
    bad;
  bad = []

let gpu = Target.gpu_tensorcore
let arm = Target.arm_sdot

let hr () = Fmt.pr "%s@." (String.make 78 '-')

let section name title =
  Fmt.pr "@.";
  hr ();
  Fmt.pr "[%s] %s@." name title;
  hr ()

let geomean xs =
  match List.filter (fun x -> x > 0.0 && Float.is_finite x) xs with
  | [] -> 0.0
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Cache single-op tuning results within the bench run. *)
let op_cache : (string, Tune.result) Hashtbl.t = Hashtbl.create 32

let cached name f =
  match Hashtbl.find_opt op_cache name with
  | Some r -> r
  | None ->
      let r = f () in
      Hashtbl.add op_cache name r;
      r

let tensorir_op target (w : W.t) =
  cached
    (Printf.sprintf "tensorir|%s|%s" target.Target.name w.W.name)
    (fun () -> Tune.run Tune.Config.(default |> with_trials (trials 128)) w target)

let tvm_op target (w : W.t) =
  cached
    (Printf.sprintf "tvm|%s|%s" target.Target.name w.W.name)
    (fun () -> B.tvm ~trials:(trials 96) target w)

let amos_op target (w : W.t) =
  cached
    (Printf.sprintf "amos|%s|%s" target.Target.name w.W.name)
    (fun () -> B.amos ~trials:(trials 64) target w)

let vendor_op target (w : W.t) =
  cached
    (Printf.sprintf "vendor|%s|%s" target.Target.name w.W.name)
    (fun () -> B.vendor ~trials:(trials 64) target w)

(* ------------------------------------------------------------------ *)
(* fig8: mechanism                                                      *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "fig8" "automatic tensorization of 64x64x64 matmul with the 4x4x4 intrinsic";
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F32 ~acc_dtype:Tir_ir.Dtype.F32 ~m:64 ~n:64 ~k:64 () in
  match
    Tir_autosched.Candidate.generate w
      (Tir_intrin.Tensor_intrin.lookup "accel.dot_4x4x4")
  with
  | None -> Fmt.pr "no candidate (unexpected)@."
  | Some cand ->
      Fmt.pr "candidate: fused M=%d N=%d K=%d (intrinsic tile 4x4x4)@."
        cand.Tir_autosched.Candidate.fm cand.Tir_autosched.Candidate.fn
        cand.Tir_autosched.Candidate.fk;
      let r =
        Tune.run
          Tune.Config.(
            default
            |> with_trials (trials 32)
            |> with_sketches
                 [ Tir_autosched.Sketch.tensorized_gpu ~use_wmma_scopes:false cand ])
          w gpu
      in
      record_op "fig8" "TensorIR" w r;
      Fmt.pr "tuned latency: %.2f us (%.0f GFLOPS), %d trials, %d invalid filtered@."
        (Tune.latency_us r) (Tune.gflops r) r.Tune.stats.trials r.Tune.stats.invalid;
      (match r.Tune.best with
      | Some best ->
          Fmt.pr "best decisions: %s@."
            (Tir_autosched.Space.key_of best.Tir_autosched.Evolutionary.decisions)
      | None -> ())

(* ------------------------------------------------------------------ *)
(* fig10 / fig11: single operator                                       *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  section "fig10" "single-op vs ML compilers on GPU (fp16, Tensor Cores); latency in us";
  Fmt.pr "%-4s %12s %12s %12s %10s %10s@." "op" "TVM" "AMOS" "TensorIR" "vs TVM" "vs AMOS";
  let speedups_tvm = ref [] and speedups_amos = ref [] in
  List.iter
    (fun (w : W.t) ->
      record_op "fig10" "TensorIR" w (tensorir_op gpu w);
      record_op "fig10" "TVM" w (tvm_op gpu w);
      record_op "fig10" "AMOS" w (amos_op gpu w);
      let tir = Tune.latency_us (tensorir_op gpu w) in
      let tvm = Tune.latency_us (tvm_op gpu w) in
      let amos = Tune.latency_us (amos_op gpu w) in
      speedups_tvm := (tvm /. tir) :: !speedups_tvm;
      speedups_amos := (amos /. tir) :: !speedups_amos;
      Fmt.pr "%-4s %12.1f %12.1f %12.1f %9.2fx %9.2fx@." w.W.tag tvm amos tir
        (tvm /. tir) (amos /. tir))
    (W.gpu_suite ());
  Fmt.pr "geomean speedup: vs TVM %.2fx, vs AMOS %.2fx@." (geomean !speedups_tvm)
    (geomean !speedups_amos)

let fig11 () =
  section "fig11"
    "single-op vs vendor libraries on GPU; TensorIR throughput relative to library";
  Fmt.pr "%-4s %12s %12s %12s %12s %12s@." "op" "CUTLASS" "TensorRT" "TensorIR"
    "vs CUTLASS" "vs TRT";
  List.iter
    (fun (w : W.t) ->
      record_op "fig11" "vendor" w (vendor_op gpu w);
      let tir = Tune.latency_us (tensorir_op gpu w) in
      let vendor = Tune.latency_us (vendor_op gpu w) in
      let cutlass = if B.cutlass_supports w then Some vendor else None in
      let trt = Some vendor in
      let pp_opt ppf = function
        | Some v -> Fmt.pf ppf "%12.1f" v
        | None -> Fmt.pf ppf "%12s" "n/a"
      in
      (* relative throughput of TensorIR = library_latency / tensorir_latency *)
      let rel = function
        | Some v -> Fmt.str "%11.0f%%" (100.0 *. v /. tir)
        | None -> Fmt.str "%12s" "n/a"
      in
      Fmt.pr "%-4s %a %a %12.1f %s %s@." w.W.tag pp_opt cutlass pp_opt trt tir
        (rel cutlass) (rel trt))
    (W.gpu_suite ());
  Fmt.pr "(>100%% means TensorIR is faster than the library)@."

(* ------------------------------------------------------------------ *)
(* fig12 / tab1: end-to-end GPU                                         *)
(* ------------------------------------------------------------------ *)

let fig12_reports : (M.t * C.model_report list) list ref = ref []

let fig12 () =
  section "fig12" "end-to-end models on GPU; latency in us (latency relative to TensorIR)";
  let schedulers =
    [
      C.pytorch ();
      C.tvm ~trials:(trials 32) ();
      C.amos ~trials:(trials 24) ();
      C.tensorrt ~trials:(trials 32) ();
      C.tensorir ~trials:(trials 32) ();
    ]
  in
  Fmt.pr "%-14s" "model";
  List.iter (fun (s : C.scheduler) -> Fmt.pr " %16s" s.C.sname) schedulers;
  Fmt.pr "@.";
  List.iter
    (fun (m : M.t) ->
      let reports = List.map (fun s -> C.compile s gpu m) schedulers in
      fig12_reports := (m, reports) :: !fig12_reports;
      List.iter
        (fun (r : C.model_report) ->
          if r.C.supported then
            record "fig12" (r.C.scheduler ^ ":" ^ m.M.name) r.C.latency_us "us")
        reports;
      let tir =
        (List.find
           (fun (r : C.model_report) -> String.equal r.C.scheduler "TensorIR")
           reports)
          .C.latency_us
      in
      Fmt.pr "%-14s" m.M.name;
      List.iter
        (fun (r : C.model_report) ->
          if not r.C.supported then Fmt.pr " %16s" "n/a"
          else Fmt.pr " %9.0f (%3.0f%%)" r.C.latency_us (100.0 *. r.C.latency_us /. tir))
        reports;
      Fmt.pr "@.")
    M.gpu_models;
  Fmt.pr "(lower is better; 100%% = TensorIR)@."

let tab1 () =
  section "tab1" "tuning time per model (simulated profiling + search overhead), minutes";
  Fmt.pr "%-14s %12s %12s %8s@." "model" "TVM" "TensorIR" "ratio";
  List.iter
    (fun ((m : M.t), reports) ->
      let find name =
        List.find (fun (r : C.model_report) -> String.equal r.C.scheduler name) reports
      in
      let tvm = (find "TVM").C.total_tuning_minutes in
      let tir = (find "TensorIR").C.total_tuning_minutes in
      record "tab1" ("TVM:" ^ m.M.name) tvm "min";
      record "tab1" ("TensorIR:" ^ m.M.name) tir "min";
      Fmt.pr "%-14s %12.2f %12.2f %7.2fx@." m.M.name tvm tir (tvm /. tir))
    (List.rev !fig12_reports)

(* ------------------------------------------------------------------ *)
(* fig13 / fig14: ARM                                                   *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "fig13" "single-op on ARM CPU (int8, sdot); latency in us";
  Fmt.pr "%-4s %12s %12s %12s %10s %12s@." "op" "TVM" "ACL" "TensorIR" "vs TVM" "vs ACL";
  List.iter
    (fun (w : W.t) ->
      record_op "fig13" "TensorIR" w (tensorir_op arm w);
      record_op "fig13" "TVM" w (tvm_op arm w);
      let tir = Tune.latency_us (tensorir_op arm w) in
      let tvm = Tune.latency_us (tvm_op arm w) in
      let acl =
        match B.arm_compute_lib ~trials:(trials 48) arm w with
        | B.Supported r ->
            record_op "fig13" "ACL" w r;
            Some (Tune.latency_us r)
        | B.Not_supported -> None
      in
      let acl_str = match acl with Some v -> Fmt.str "%12.1f" v | None -> "         n/a" in
      let vs_acl =
        match acl with
        | Some v -> Fmt.str "%11.0f%%" (100.0 *. v /. tir)
        | None -> "         n/a"
      in
      Fmt.pr "%-4s %12.1f %s %12.1f %9.2fx %s@." w.W.tag tvm acl_str tir (tvm /. tir) vs_acl)
    (W.arm_suite ())

let fig14 () =
  section "fig14" "end-to-end models on ARM CPU (int8); latency in us";
  let schedulers =
    [ C.pytorch (); C.tvm ~trials:(trials 24) (); C.tensorir ~trials:(trials 24) () ]
  in
  Fmt.pr "%-14s" "model";
  List.iter (fun (s : C.scheduler) -> Fmt.pr " %16s" s.C.sname) schedulers;
  Fmt.pr "@.";
  List.iter
    (fun (m : M.t) ->
      let reports = List.map (fun s -> C.compile s arm m) schedulers in
      List.iter
        (fun (r : C.model_report) ->
          if r.C.supported then
            record "fig14" (r.C.scheduler ^ ":" ^ m.M.name) r.C.latency_us "us")
        reports;
      let tir =
        (List.find
           (fun (r : C.model_report) -> String.equal r.C.scheduler "TensorIR")
           reports)
          .C.latency_us
      in
      Fmt.pr "%-14s" m.M.name;
      List.iter
        (fun (r : C.model_report) ->
          Fmt.pr " %9.0f (%3.0f%%)" r.C.latency_us (100.0 *. r.C.latency_us /. tir))
        reports;
      Fmt.pr "@.")
    M.arm_models

(* ------------------------------------------------------------------ *)
(* ablation                                                             *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "ablation" "design-choice ablations on GPU (GMM and C2D); latency in us";
  let module Sk = Tir_autosched.Sketch in
  let module Cand = Tir_autosched.Candidate in
  Fmt.pr "%-4s %12s %14s %14s %14s@." "op" "full" "no-AutoCopy" "no-costmodel"
    "no-evolution";
  List.iter
    (fun (w : W.t) ->
      let full = Tune.latency_us (tensorir_op gpu w) in
      let intrins = Tune.target_intrinsics gpu in
      let cands = Cand.candidates w intrins in
      let no_autocopy_sketches =
        List.map
          (fun c -> Sk.tensorized_gpu ~use_wmma_scopes:false ~stage_shared:false c)
          cands
        @ [ Sk.scalar_gpu w ]
      in
      let no_autocopy =
        Tune.latency_us
          (Tune.run
             Tune.Config.(
               default |> with_trials (trials 64) |> with_sketches no_autocopy_sketches)
             w gpu)
      in
      let no_cost_model =
        Tune.latency_us
          (Tune.run
             Tune.Config.(default |> with_trials (trials 64) |> with_use_cost_model false)
             w gpu)
      in
      let no_evolve =
        Tune.latency_us
          (Tune.run
             Tune.Config.(
               default
               |> with_trials (trials 64)
               |> with_use_cost_model false
               |> with_evolve false)
             w gpu)
      in
      record "ablation" ("full:" ^ w.W.name) full "us";
      record "ablation" ("no-autocopy:" ^ w.W.name) no_autocopy "us";
      record "ablation" ("no-costmodel:" ^ w.W.name) no_cost_model "us";
      record "ablation" ("no-evolution:" ^ w.W.name) no_evolve "us";
      Fmt.pr "%-4s %12.1f %14.1f %14.1f %14.1f@." w.W.tag full no_autocopy no_cost_model
        no_evolve)
    [ W.gmm (); W.c2d () ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the infrastructure                      *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro" "Bechamel micro-benchmarks of the compiler infrastructure";
  let open Bechamel in
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 () in
  let cand =
    Option.get
      (Tir_autosched.Candidate.generate w
         (Tir_intrin.Tensor_intrin.lookup "wmma.mma_16x16x16"))
  in
  let sk = Tir_autosched.Sketch.tensorized_gpu cand in
  let d =
    List.map
      (fun (k : Tir_autosched.Space.knob) -> (k.Tir_autosched.Space.name, 1))
      sk.Tir_autosched.Sketch.knobs
  in
  let scheduled = Tir_sched.Schedule.func (sk.Tir_autosched.Sketch.apply d) in
  let tests =
    [
      Test.make ~name:"sketch-apply" (Staged.stage (fun () ->
          ignore (sk.Tir_autosched.Sketch.apply d)));
      Test.make ~name:"validate" (Staged.stage (fun () ->
          ignore (Tir_sched.Validate.check_func scheduled)));
      Test.make ~name:"machine-measure" (Staged.stage (fun () ->
          ignore (Tir_sim.Machine.measure_us gpu scheduled)));
      Test.make ~name:"feature-extract" (Staged.stage (fun () ->
          ignore (Tir_autosched.Features.extract gpu scheduled)));
      Test.make ~name:"candidate-gen" (Staged.stage (fun () ->
          ignore
            (Tir_autosched.Candidate.generate w
               (Tir_intrin.Tensor_intrin.lookup "wmma.mma_16x16x16"))));
      Test.make ~name:"print-program" (Staged.stage (fun () ->
          ignore (Tir_ir.Printer.func_to_string scheduled)));
    ]
  in
  List.iter
    (fun test ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) () in
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              record "micro" name est "ns";
              Fmt.pr "%-44s %14.0f ns/run@." name est
          | _ -> Fmt.pr "%-44s %14s@." name "-")
        ols)
    tests

(* ------------------------------------------------------------------ *)
(* hotpath: legacy vs hash-consed/incremental evaluation pipeline       *)
(* ------------------------------------------------------------------ *)

(* The deterministic proposal stream of BENCH_baseline.json: the shape of
   a converging evolutionary search. Each generation proposes mutations of
   a persistent elite set; while the search still explores, one elite is
   refreshed per few generations with that generation's first novel
   proposal, and once it converges (the second half) the frozen
   neighbourhoods are mined so nearly every proposal is a duplicate —
   ~92% here, matching the duplication the motivating run measured. The
   stream keeps the duplicates: evaluating them cheaply is precisely what
   the decision-key memo is for. Always the full stream, even under
   BENCH_FAST — the baseline tallies are per-candidate classification
   references, so the stream must be reproduced exactly. *)
let hotpath_stream (sk : Tir_autosched.Sketch.t) ~gens ~per_gen ~elites:ne =
  let module Sk = Tir_autosched.Sketch in
  let module Space = Tir_autosched.Space in
  let rng = Tir_autosched.Rng.create 42 in
  let knobs = sk.Sk.knobs in
  let elites = Array.init ne (fun _ -> Space.random_decisions rng knobs) in
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  let n_unique = ref 0 in
  for g = 0 to gens - 1 do
    let fresh_pick = ref None in
    for i = 0 to per_gen - 1 do
      let base = elites.(i mod ne) in
      let d = Space.mutate rng knobs base in
      let key = Space.canonical_key knobs d in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        incr n_unique;
        if !fresh_pick = None then fresh_pick := Some d
      end;
      out := d :: !out
    done;
    (match !fresh_pick with
    | Some d when g mod 4 = 0 && 2 * g < gens -> elites.(g / 4 mod ne) <- d
    | _ -> ())
  done;
  (List.rev !out, !n_unique)

(* The pre-refactor hot path, end to end (the committed baseline of
   BENCH_baseline.json): a full schedule application per proposal, then an
   MD5-of-the-printed-program memo key guarding validation, semantic
   analysis and feature extraction. Duplicates pay apply + print + digest
   before the memo can answer; the optimized pipeline answers from the
   canonical decision key before any program exists. *)
let hotpath_legacy_eval (tbl : (string, Tir_autosched.Eval.evaluation) Hashtbl.t)
    ~target (sk : Tir_autosched.Sketch.t) d : Tir_autosched.Eval.evaluation =
  let module Sk = Tir_autosched.Sketch in
  let module CM = Tir_autosched.Eval in
  match sk.Sk.apply d with
  | exception Tir_sched.State.Schedule_error _ -> CM.Inapplicable
  | sch -> (
      let f = Tir_sched.Schedule.func sch in
      let key = Digest.string (Tir_ir.Printer.func_to_script f) in
      match Hashtbl.find_opt tbl key with
      | Some e -> e
      | None ->
          let e =
            match Tir_sched.Validate.check_func f with
            | _ :: _ -> CM.Invalid
            | [] when Tir_analysis.Analysis.errors f <> [] -> CM.Unsound
            | [] -> (
                match Tir_autosched.Features.extract target f with
                | features ->
                    CM.Evaluated
                      {
                        func = f;
                        fp = Tir_ir.Fingerprint.func f;
                        features;
                        trace = Tir_sched.Schedule.instructions sch;
                      }
                | exception Tir_sim.Machine.Unsupported _ -> CM.Unsupported)
          in
          Hashtbl.add tbl key e;
          e)

let hotpath () =
  section "hotpath"
    "search hot path: legacy vs hash-consed/incremental pipeline (same stream, same results)";
  let module Sk = Tir_autosched.Sketch in
  let module Space = Tir_autosched.Space in
  let module CM = Tir_autosched.Eval in
  let module AC = Tir_sched.Apply_cache in
  let module Machine = Tir_sim.Machine in
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 () in
  let cand =
    Option.get
      (Tir_autosched.Candidate.generate w
         (Tir_intrin.Tensor_intrin.lookup "wmma.mma_16x16x16"))
  in
  let sketches = [ Sk.tensorized_gpu cand; Sk.scalar_gpu w ] in
  let gens = 240 and per_gen = 60 and elites = 6 in
  let class_name = function
    | CM.Inapplicable -> "inapplicable"
    | CM.Invalid -> "invalid"
    | CM.Unsound -> "unsound"
    | CM.Unsupported -> "unsupported"
    | CM.Evaluated _ -> "evaluated"
  in
  (* Bit-identity between the two pipelines, per proposal: same
     classification, and for evaluated candidates the same structural
     fingerprint and feature vector. *)
  let same_outcome a b =
    match (a, b) with
    | ( CM.Evaluated { fp = fa; features = xa; _ },
        CM.Evaluated { fp = fb; features = xb; _ } ) ->
        Tir_ir.Fingerprint.equal fa fb && xa = xb
    | _ -> String.equal (class_name a) (class_name b)
  in
  let fresh_caches () =
    CM.clear_caches ();
    AC.clear ();
    Machine.nest_cache_clear ();
    Tir_analysis.Analysis.clear_cache ()
  in
  (* Three repetitions per arm, best (shortest) time kept, heap compacted
     before each: run-to-run GC state is the dominant noise source at
     this scale, and both arms get the same treatment. Each repetition
     starts from cold caches so a rep never feeds its successor. *)
  let best_time f =
    let best = ref infinity and out = ref None in
    for _ = 1 to 3 do
      fresh_caches ();
      Gc.compact ();
      let t0 = Clock.now_us () in
      let r = f () in
      let dt_s = Float.max 1e-9 ((Clock.now_us () -. t0) /. 1e6) in
      if dt_s < !best then best := dt_s;
      out := Some r
    done;
    (!best, Option.get !out)
  in
  (* The caches are cleared before every timed pass, so fold the counters
     up per sketch to report the combined optimized-pass totals. *)
  let ac_hits = ref 0 and ac_misses = ref 0 in
  let key_prefix = CM.cache_prefix gpu in
  let per_sketch =
    List.map
      (fun (sk : Sk.t) ->
        let stream, n_unique = hotpath_stream sk ~gens ~per_gen ~elites in
        let n = List.length stream in
        (* Warm pass outside the clock (page in code paths). *)
        (match stream with
        | d :: _ -> ignore (CM.evaluate ~target:gpu sk d)
        | [] -> ());
        (* The legacy arm predates every cache it could hit: apply cache,
           nest cache, and the fingerprint-keyed analysis memo all stay
           off so it pays the pre-refactor cost per unique candidate. *)
        AC.set_enabled false;
        Machine.set_nest_cache_enabled false;
        let analysis_cache_was = Tir_analysis.Analysis.cache_enabled () in
        Tir_analysis.Analysis.set_cache_enabled false;
        let legacy_s, legacy =
          best_time (fun () ->
              let tbl = Hashtbl.create 1024 in
              List.map (hotpath_legacy_eval tbl ~target:gpu sk) stream)
        in
        Tir_analysis.Analysis.set_cache_enabled analysis_cache_was;
        AC.set_enabled true;
        Machine.set_nest_cache_enabled true;
        let sk_prefix = key_prefix ^ sk.Sk.space_id ^ "|" in
        let opt_s, opt =
          best_time (fun () ->
              List.map
                (fun d ->
                  let key = sk_prefix ^ Space.canonical_key sk.Sk.knobs d in
                  snd (CM.evaluate_cached ~key ~target:gpu sk d))
                stream)
        in
        let h, m = AC.stats () in
        ac_hits := !ac_hits + h;
        ac_misses := !ac_misses + m;
        let identical = List.for_all2 same_outcome legacy opt in
        let tally =
          let t = Hashtbl.create 8 in
          List.iter
            (fun o ->
              let k = class_name o in
              Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k)))
            opt;
          List.filter_map
            (fun k -> Option.map (fun v -> (k, v)) (Hashtbl.find_opt t k))
            [ "evaluated"; "inapplicable"; "invalid"; "unsound"; "unsupported" ]
        in
        let legacy_cps = float_of_int n /. legacy_s in
        let opt_cps = float_of_int n /. opt_s in
        Fmt.pr
          "%-24s proposals=%d unique=%d legacy=%.0f/s optimized=%.0f/s (%.1fx) identical=%b@."
          sk.Sk.name n n_unique legacy_cps opt_cps (opt_cps /. legacy_cps) identical;
        List.iter
          (fun (k, v) -> record "hotpath" (sk.Sk.name ^ ":" ^ k) (float_of_int v) "count")
          tally;
        record "hotpath" (sk.Sk.name ^ ":legacy_cands_per_s") legacy_cps "cps";
        record "hotpath" (sk.Sk.name ^ ":candidates_per_s") opt_cps "cps";
        ( {
            hs_name = sk.Sk.name;
            hs_props = n;
            hs_unique = n_unique;
            hs_legacy_cps = legacy_cps;
            hs_opt_cps = opt_cps;
            hs_tally = tally;
          },
          (n, legacy_s, opt_s, identical, opt) ))
      sketches
  in
  let apply_hits = !ac_hits and apply_misses = !ac_misses in
  let totals = List.map snd per_sketch in
  let total_n = List.fold_left (fun a (n, _, _, _, _) -> a + n) 0 totals in
  let legacy_s = List.fold_left (fun a (_, s, _, _, _) -> a +. s) 0.0 totals in
  let opt_s = List.fold_left (fun a (_, _, s, _, _) -> a +. s) 0.0 totals in
  let identical = List.for_all (fun (_, _, _, i, _) -> i) totals in
  let legacy_cps = float_of_int total_n /. legacy_s in
  let opt_cps = float_of_int total_n /. opt_s in
  let speedup = opt_cps /. legacy_cps in
  (* Per-stage micro timings over a slice of the evaluated programs: the
     uncached cost of each pipeline stage (what the legacy path pays per
     candidate), plus the uncached fingerprint and the retired
     MD5-of-printed-program digest for comparison. *)
  let sample =
    let evaluated =
      List.concat_map
        (fun (_, _, _, _, outs) ->
          List.filter_map
            (function CM.Evaluated { func; _ } -> Some func | _ -> None)
            outs)
        totals
    in
    List.filteri (fun i _ -> i < 64) evaluated
  in
  let stage name f =
    let t0 = Clock.now_us () in
    List.iter f sample;
    let per =
      if sample = [] then 0.0
      else (Clock.now_us () -. t0) *. 1000.0 /. float_of_int (List.length sample)
    in
    record "hotpath" ("stage:" ^ name) per "ns";
    (name, per)
  in
  Machine.set_nest_cache_enabled false;
  let analysis_cache_was = Tir_analysis.Analysis.cache_enabled () in
  Tir_analysis.Analysis.set_cache_enabled false;
  let stages =
    [
      stage "validate" (fun f -> ignore (Tir_sched.Validate.check_func f));
      stage "analysis" (fun f -> ignore (Tir_analysis.Analysis.errors f));
      stage "features" (fun f -> ignore (Tir_autosched.Features.extract gpu f));
      stage "fingerprint-cached" (fun f -> ignore (Tir_ir.Fingerprint.func f));
      stage "digest-md5-print" (fun f ->
          ignore (Digest.string (Tir_ir.Printer.func_to_string f)));
    ]
  in
  Tir_analysis.Analysis.set_cache_enabled analysis_cache_was;
  Machine.set_nest_cache_enabled true;
  Fmt.pr
    "combined: %d proposals, legacy %.0f/s, optimized %.0f/s — %.1fx; apply-cache %d/%d hit/miss@."
    total_n legacy_cps opt_cps speedup apply_hits apply_misses;
  record "hotpath" "combined:legacy_cands_per_s" legacy_cps "cps";
  record "hotpath" "combined:candidates_per_s" opt_cps "cps";
  record "hotpath" "combined:speedup" speedup "x";
  record "hotpath" "identical" (if identical then 1.0 else 0.0) "bool";
  hotpath_headline :=
    Some
      {
        hp_stream = (42, gens, per_gen, elites);
        hp_identical = identical;
        hp_legacy_cps = legacy_cps;
        hp_opt_cps = opt_cps;
        hp_speedup = speedup;
        hp_sketches = List.map fst per_sketch;
        hp_stages_ns = stages;
        hp_apply_cache = (apply_hits, apply_misses);
      };
  if check && not identical then begin
    Fmt.epr "hotpath: optimized pipeline diverged from the legacy pipeline@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* legality: dependence analysis + schedule-legality prover             *)
(* ------------------------------------------------------------------ *)

let legality_bench () =
  section "legality"
    "schedule-legality prover: survey verdicts, static-vs-dynamic agreement, certify memo";
  let module S = Tir_sched.Schedule in
  let module L = Tir_analysis.Legality in
  let module A = Tir_analysis.Analysis in
  let module D = Tir_analysis.Diagnostic in
  (* Corpus: every seed workload (all legal) plus scheduled gmm variants
     on both sides of the line — a parallelized spatial loop (legal) and
     the reduction loop flipped to each parallel kind by tree surgery
     (all three provably racy). *)
  let gmm = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:64 ~n:64 ~k:64 () in
  let reduction_as kind =
    let t = S.create gmm.W.func in
    (match S.get_loops t "C" with
    | [ _; _; _; k ] ->
        let path, r = S.loop_path t k in
        S.replace t path (Tir_ir.Stmt.For { r with kind })
    | _ -> assert false);
    S.func t
  in
  let spatial_parallel =
    let t = S.create gmm.W.func in
    (match S.get_loops t "C" with
    | _ :: i :: _ -> S.parallel t i
    | _ -> assert false);
    S.func t
  in
  let corpus =
    List.map (fun (w : W.t) -> w.W.func) (W.gpu_suite () @ W.arm_suite ())
    @ [
        spatial_parallel;
        reduction_as Tir_ir.Stmt.Parallel;
        reduction_as Tir_ir.Stmt.Vectorized;
        reduction_as (Tir_ir.Stmt.Thread_binding "threadIdx.x");
      ]
  in
  let n_corpus = List.length corpus in
  (* Survey every function and tally item verdicts (advisories included). *)
  let tally = Hashtbl.create 4 in
  List.iter
    (fun f ->
      List.iter
        (fun (it : L.item) ->
          let k = L.verdict_to_string it.L.it_verdict in
          Hashtbl.replace tally k
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
        (L.survey f))
    corpus;
  let survey =
    List.filter_map
      (fun k -> Option.map (fun v -> (k, v)) (Hashtbl.find_opt tally k))
      [ "legal"; "illegal"; "unknown" ]
  in
  (* Function-level agreement: a proven-illegal certificate must coincide
     exactly with an error-severity race diagnostic from the dynamic
     analyzers. The two sides run through different memo tables
     (certify through the race memo, check_func through the full one),
     so this also asserts the tables stay coherent. *)
  let race_error f =
    List.exists
      (fun (d : D.t) -> D.is_error d && d.D.kind = D.Race)
      (A.check_func f)
  in
  let agreed =
    List.fold_left
      (fun acc f ->
        let static_illegal =
          match A.certify f with L.Illegal _ -> true | _ -> false
        in
        if static_illegal = race_error f then acc + 1 else acc)
      0 corpus
  in
  let agreement = float_of_int agreed /. float_of_int n_corpus in
  (* Certify cost per function: cold (memo cleared) vs warm (memo hit). *)
  let certify_pass () =
    let t0 = Clock.now_us () in
    List.iter (fun f -> ignore (A.certify f)) corpus;
    (Clock.now_us () -. t0) /. float_of_int n_corpus
  in
  A.clear_cache ();
  let cold_us = certify_pass () in
  let warm_us = certify_pass () in
  Fmt.pr
    "corpus=%d survey=%a agreement=%.2f certify cold=%.1fus warm=%.1fus@."
    n_corpus
    Fmt.(list ~sep:(any " ") (pair ~sep:(any ":") string int))
    survey agreement cold_us warm_us;
  record "legality" "corpus" (float_of_int n_corpus) "count";
  List.iter
    (fun (k, v) -> record "legality" ("survey:" ^ k) (float_of_int v) "count")
    survey;
  record "legality" "agreement" agreement "ratio";
  record "legality" "certify:cold_us" cold_us "us";
  record "legality" "certify:warm_us" warm_us "us";
  legality_headline :=
    Some
      {
        lg_corpus = n_corpus;
        lg_survey = survey;
        lg_agreement = agreement;
        lg_certify_cold_us = cold_us;
        lg_certify_warm_us = warm_us;
      };
  if check && agreement < 1.0 then begin
    Fmt.epr "legality: static certificates disagree with the dynamic analyzers@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* db: trace replay hit rate                                            *)
(* ------------------------------------------------------------------ *)

let db_bench () =
  section "db"
    "tuning-record database: re-tuning replays serialized traces instead of searching";
  let module DB = Tir_autosched.Database in
  let workloads =
    [
      W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 ();
      W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:256 ~n:128 ~k:64 ();
    ]
  in
  let db = DB.create () in
  let tune_with db w =
    ignore
      (Tune.run
         Tune.Config.(default |> with_trials (trials 24) |> with_database db)
         w gpu)
  in
  List.iter (tune_with db) workloads;
  (* Push the records through the on-disk format, so the replays below run
     from parsed traces, exactly as a warm-start across processes would. *)
  let path = Filename.temp_file "tirdb_bench" ".txt" in
  DB.save db path;
  let db' = DB.load path in
  Sys.remove path;
  (* Replay rate of the warm runs alone: diff the registry's cumulative
     [db.*] counters around them instead of keeping bench-local counters. *)
  let before = Metrics.snapshot () in
  List.iter (tune_with db') workloads;
  let after = Metrics.snapshot () in
  let delta name =
    Option.value ~default:0 (Metrics.find_counter after name)
    - Option.value ~default:0 (Metrics.find_counter before name)
  in
  let found = delta "db.found" and ok = delta "db.replayed" in
  Fmt.pr "records found: %d, replayed from trace alone: %d@." found ok;
  record "db" "records_found" (float_of_int found) "count";
  record "db" "trace_replayed" (float_of_int ok) "count";
  record "db" "trace_replay_hit_rate_pct"
    (if found = 0 then 0.0 else 100.0 *. float_of_int ok /. float_of_int found)
    "pct"

let cache_summary () =
  section "cache" "measurement memoization (duplicate proposals never re-simulate)";
  let snap = Metrics.snapshot () in
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  let hits = counter "memo.eval.hits" + counter "memo.measure.hits" in
  let probes = hits + counter "memo.eval.misses" + counter "memo.measure.misses" in
  let rate = if probes = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int probes in
  Fmt.pr "cache probes: %d, hits: %d (%.1f%%)@." probes hits rate;
  record "cache" "hit_rate_pct" rate "pct";
  record "cache" "hits" (float_of_int hits) "count"

(* ------------------------------------------------------------------ *)
(* obs: causal-trace self-check                                         *)
(* ------------------------------------------------------------------ *)

(* Tracing is enabled for the whole bench run (everything below the
   [with_ctx ~tenant:"bench"] wrapper records), so this section checks
   the full trace: both export formats validate, and the counts land in
   the schema-7 [obs] block of BENCH_results.json. *)
let obs_summary () =
  section "obs" "causal trace: event counts, export validity, stall detection";
  let c = Trace.counts () in
  Fmt.pr "events: %d spans, %d instants, %d counters (%d dropped)@." c.Trace.spans
    c.Trace.instants c.Trace.counters c.Trace.dropped;
  (match Trace.validate_chrome (Trace.export_chrome ()) with
  | Ok n -> Fmt.pr "chrome trace: valid, %d events@." n
  | Error e -> Fmt.pr "chrome trace: INVALID (%s)@." e);
  let collapsed = Trace.export_collapsed () in
  Fmt.pr "collapsed stacks: %d distinct@."
    (List.length (Trace.parse_collapsed collapsed));
  let snap = Metrics.snapshot () in
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  Fmt.pr "stall events: %d@." (counter "search.stalled");
  record "obs" "trace_events"
    (float_of_int (c.Trace.spans + c.Trace.instants + c.Trace.counters))
    "count";
  record "obs" "trace_dropped" (float_of_int c.Trace.dropped) "count"

(* ------------------------------------------------------------------ *)
(* session: crash-safe sessions                                         *)
(* ------------------------------------------------------------------ *)

let session_bench () =
  section "session"
    "crash-safe sessions: kill+resume determinism, fault-injected search completes";
  let module S = Tir_service.Session in
  let module F = Tir_core.Fault in
  let w = W.gmm () in
  let cfg = Tune.Config.(default |> with_trials (trials 24) |> with_seed 42) in
  let best_key (r : Tune.result) =
    match r.Tune.best with
    | Some b -> Tir_sched.Trace.to_string b.Tir_autosched.Evolutionary.trace
    | None -> "<none>"
  in
  (* The measurement memo is process-global; clear it between runs so each
     one exercises the full search, as a fresh process would. *)
  Tir_autosched.Eval.clear_caches ();
  let reference = Tune.run cfg w gpu in
  let path = Filename.temp_file "tir_session" ".wal" in
  Tir_autosched.Eval.clear_caches ();
  let s = S.create ~force:true ~path cfg w gpu in
  let halted = match S.run ~halt_after:1 s with _ -> false | exception S.Halted _ -> true in
  Tir_autosched.Eval.clear_caches ();
  let resumed = S.run (S.resume ~path ()) in
  Sys.remove path;
  let identical = String.equal (best_key reference) (best_key resumed) in
  Fmt.pr "halted after gen 1: %b; resumed best identical to uninterrupted: %b@."
    halted identical;
  record "session" "resume_identical" (if identical then 1.0 else 0.0) "bool";
  record_op "session" "resumed" w resumed;
  (* Under injected faults (simulator, pool and database sites) the retry
     layer must still deliver a measured best. *)
  Tir_autosched.Eval.clear_caches ();
  F.set ~rate:0.2 ~seed:42 ();
  let faulted = Fun.protect ~finally:F.clear (fun () -> Tune.run cfg w gpu) in
  Fmt.pr "under faults 0.2:42 — best %.2f us, %d trials, %d unmeasurable@."
    (Tune.latency_us faulted) faulted.Tune.stats.trials
    faulted.Tune.stats.unmeasurable;
  record_op "session" "faulted" w faulted;
  record "session" "faulted_unmeasurable"
    (float_of_int faulted.Tune.stats.unmeasurable)
    "count"

(* ------------------------------------------------------------------ *)
(* service: multi-tenant scheduler + job-directory queue                *)
(* ------------------------------------------------------------------ *)

let service_bench () =
  section "service"
    "multi-tenant serve: 3 jobs mixed priorities, whole-server kill+resume, \
     cross-tenant database replay";
  let module J = Tir_service.Jobqueue in
  let fresh () = Tir_autosched.Eval.clear_caches () in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let temp_queue tag =
    let d = Filename.temp_file ("tir_serve_" ^ tag) "" in
    Sys.remove d;
    d
  in
  let tr = trials 16 in
  let job name wl seed prio =
    {
      J.j_name = name;
      j_workload = wl;
      j_target = "gpu";
      j_seed = seed;
      j_trials = tr;
      j_priority = prio;
    }
  in
  let base_jobs =
    [ job "gmm-hi" "GMM" 3 2; job "c2d-lo" "C2D" 5 1; job "c1d-lo" "C1D" 7 1 ]
  in
  let submit_all q = List.iter (fun j -> ignore (J.submit ~queue:q j)) base_jobs in
  let serve ?max_steps q = J.serve { (J.default_config q) with J.max_steps } in
  let trace_of q name = List.assoc_opt "trace" (J.read_result ~queue:q ~name) in
  let snap_counter name =
    Option.value ~default:0 (Metrics.find_counter (Metrics.snapshot ()) name)
  in
  (* Uninterrupted reference server. *)
  let q_ref = temp_queue "ref" in
  submit_all q_ref;
  fresh ();
  let o_ref = serve q_ref in
  Fmt.pr "serve: %d tenants completed, %d failed@." o_ref.J.o_completed
    o_ref.J.o_failed;
  record "service" "tenants_completed" (float_of_int o_ref.J.o_completed) "count";
  record "service" "tenants_failed" (float_of_int o_ref.J.o_failed) "count";
  let busy = Metrics.gauge_value (Metrics.gauge "pool.busy_frac") in
  Fmt.pr "pool.busy_frac: %.4f (wall-clock-weighted)@." busy;
  record "service" "pool_busy_frac" busy "frac";
  (* Kill the whole server at a step budget, then resume every tenant
     from its WAL under a fresh server: per-tenant results must be
     byte-identical to the uninterrupted queue. *)
  let q_kill = temp_queue "kill" in
  submit_all q_kill;
  fresh ();
  let o_half = serve ~max_steps:4 q_kill in
  fresh ();
  let o_rest = serve q_kill in
  let identical =
    List.for_all
      (fun (j : J.job) ->
        trace_of q_kill j.J.j_name = trace_of q_ref j.J.j_name)
      base_jobs
  in
  Fmt.pr
    "killed at 4 steps (budget hit: %b); resume completed %d; identical to \
     uninterrupted: %b@."
    o_half.J.o_budget o_rest.J.o_completed identical;
  record "service" "resume_identical" (if identical then 1.0 else 0.0) "bool";
  (* Cross-tenant amortization: a later tenant re-submits an
     already-solved workload and replays the shared database entry
     instead of searching. *)
  let before = snap_counter "db.replayed" in
  ignore (J.submit ~queue:q_ref (job "gmm-again" "GMM" 11 1));
  fresh ();
  let o2 = serve q_ref in
  let replays = snap_counter "db.replayed" - before in
  Fmt.pr "duplicate workload: %d completed, %d cross-tenant replays@."
    o2.J.o_completed replays;
  record "service" "db_replay" (float_of_int replays) "count";
  record "service" "replay_identical"
    (if trace_of q_ref "gmm-again" = trace_of q_ref "gmm-hi" then 1.0 else 0.0)
    "bool";
  rm_rf q_ref;
  rm_rf q_kill

(* ------------------------------------------------------------------ *)
(* costmodel: rank-trained GBDT quality + cross-workload warm start     *)
(* ------------------------------------------------------------------ *)

let costmodel_bench () =
  section "costmodel"
    "learned cost model: held-out rank correlation on mixed workloads, \
     zero-shot transfer, warm-start trials-to-best vs cold";
  let module Model = Tir_autosched.Model in
  let module Sk = Tir_autosched.Sketch in
  let module Space = Tir_autosched.Space in
  let module CM = Tir_autosched.Eval in
  let module Machine = Tir_sim.Machine in
  let module Stat = Tir_obs.Stat in
  (* Dataset: seeded random decision vectors from each workload's default
     sketch set, evaluated through [Eval] and measured on the simulator.
     Decision vectors are deduplicated by canonical key so the held-out
     split never leaks a training point into the test set. *)
  let samples_of ~seed ~n w =
    let sketches = Sk.generate gpu w (Tune.target_intrinsics gpu) in
    let rng = Tir_autosched.Rng.create seed in
    let seen = Hashtbl.create (4 * n) in
    let out = ref [] and got = ref 0 and budget = ref (n * 60) in
    while !got < n && !budget > 0 do
      List.iter
        (fun (sk : Sk.t) ->
          if !got < n && !budget > 0 then begin
            decr budget;
            let d = Space.random_decisions rng sk.Sk.knobs in
            let key = sk.Sk.space_id ^ "|" ^ Space.canonical_key sk.Sk.knobs d in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              match CM.evaluate ~target:gpu sk d with
              | CM.Evaluated { func; features; _ } -> (
                  match Machine.measure_us gpu func with
                  | us when Float.is_finite us && us > 0.0 ->
                      incr got;
                      out := (features, us) :: !out
                  | _ -> ()
                  | exception Machine.Unsupported _ -> ())
              | _ -> ()
            end
          end)
        sketches
    done;
    List.rev !out
  in
  let n = if fast then 48 else 96 in
  let gmm = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 () in
  let c2d = W.c2d () in
  let c1d = W.c1d () in
  let train_tasks =
    [ (gmm.W.name, samples_of ~seed:42 ~n gmm); (c2d.W.name, samples_of ~seed:5 ~n c2d) ]
  in
  let split xs =
    List.partition (fun (i, _) -> i mod 2 = 0) (List.mapi (fun i s -> (i, s)) xs)
    |> fun (a, b) -> (List.map snd a, List.map snd b)
  in
  let model = Model.gbdt () in
  let train_count = ref 0 in
  let held_out =
    List.map
      (fun (group, samples) ->
        let train, test = split samples in
        List.iter
          (fun (features, latency_us) ->
            incr train_count;
            Model.add model ~group ~features ~latency_us)
          train;
        (group, test))
      train_tasks
  in
  Model.retrain model;
  (* Within-task rank quality on the held-out half: Spearman of (score,
     throughput), mean over tasks (equal test counts). *)
  let spearman_on test =
    Stat.spearman
      (Array.of_list
         (List.map (fun (f, us) -> (Model.score model f, 1.0 /. us)) test))
  in
  let per_task = List.map (fun (g, test) -> (g, spearman_on test)) held_out in
  let rank_corr =
    List.fold_left (fun a (_, r) -> a +. r) 0.0 per_task
    /. float_of_int (List.length per_task)
  in
  List.iter (fun (g, r) -> Fmt.pr "held-out rank corr %-28s %+.3f@." g r) per_task;
  Fmt.pr "held-out rank corr (mean over %d tasks): %+.3f@."
    (List.length per_task) rank_corr;
  (* Zero-shot transfer: score a workload the model never trained on. *)
  let transfer = spearman_on (samples_of ~seed:7 ~n c1d) in
  Fmt.pr "zero-shot transfer rank corr %-13s %+.3f@." c1d.W.name transfer;
  record "costmodel" "rank_corr" rank_corr "corr";
  record "costmodel" "transfer_rank_corr" transfer "corr";
  (* Warm start: a donor run's model is absorbed into a store file, then a
     run at a different seed starts from that snapshot. The warm run must
     come within 1% of the cold run's final best inside half the trial
     budget — exact equality would measure last-trial mutation luck (the
     final fractions of a percent), not the model. The budget stays fixed
     under BENCH_FAST: at the smoke-run trial floor the search ends before
     ranking can matter. One small workload — still cheap. *)
  let wl = W.gmm () in
  let budget = 32 in
  let cfg seed = Tune.Config.(default |> with_trials budget |> with_seed seed) in
  CM.clear_caches ();
  let donor = Tune.run (cfg 42) wl gpu in
  let store = Filename.temp_file "tir_bench_model" ".txt" in
  (match donor.Tune.model with
  | Some m -> ignore (Model.Store.absorb ~path:store m)
  | None -> ());
  CM.clear_caches ();
  let cold = Tune.run (cfg 7) wl gpu in
  let warm_cfg =
    match Model.Store.load store with
    | Some m -> Tune.Config.with_model (Model.Warm (Model.save m)) (cfg 7)
    | None -> cfg 7
  in
  Sys.remove store;
  CM.clear_caches ();
  let warm = Tune.run warm_cfg wl gpu in
  let trials_to curve threshold =
    List.fold_left
      (fun acc (trial, best) -> if best <= threshold then min trial acc else acc)
      max_int curve
  in
  let threshold = Tune.latency_us cold *. 1.01 in
  let to_cold = trials_to cold.Tune.stats.Tir_autosched.Evolutionary.best_curve threshold in
  let to_warm = trials_to warm.Tune.stats.Tir_autosched.Evolutionary.best_curve threshold in
  let hit = to_warm <= budget / 2 in
  Fmt.pr
    "warm start: cold best %.2f us (within 1%% at trial %d); warm within 1%% \
     at trial %s (budget %d, hit: %b)@."
    (Tune.latency_us cold) to_cold
    (if to_warm = max_int then "-" else string_of_int to_warm)
    budget hit;
  record_op "costmodel" "cold" wl cold;
  record_op "costmodel" "warm" wl warm;
  record "costmodel" "warm_start_hit" (if hit then 1.0 else 0.0) "bool";
  record "costmodel" "trials_to_best_cold" (float_of_int to_cold) "count";
  record "costmodel" "trials_to_best_warm"
    (float_of_int (if to_warm = max_int then budget else to_warm))
    "count";
  costmodel_headline :=
    Some
      {
        cm_rank_corr = rank_corr;
        cm_transfer_rank_corr = transfer;
        cm_warm_start_hit = hit;
        cm_trials_to_best_cold = to_cold;
        cm_trials_to_best_warm = (if to_warm = max_int then budget else to_warm);
        cm_train_samples = !train_count;
      }

let () =
  (* Monotone clock (never runs backwards under wall-clock adjustment), so
     section walls and the total are always non-negative. *)
  let t0 = Clock.now_s () in
  (* Record the whole run: every event below carries at least the bench
     tenant, which the Chrome-trace validator requires. *)
  Trace.enable ();
  Trace.with_ctx ~tenant:"bench" @@ fun () ->
  Fmt.pr "bench: jobs=%d%s%s@." jobs
    (if fast then " (BENCH_FAST)" else "")
    (if check then " (--check)" else "");
  let timed name f =
    match only with
    | Some names when not (List.mem name names) -> ()
    | _ ->
        let s0 = Clock.now_s () in
        f ();
        section_walls := (name, Clock.now_s () -. s0) :: !section_walls
  in
  timed "fig8" fig8;
  timed "fig10" fig10;
  timed "fig11" fig11;
  timed "fig12" fig12;
  timed "tab1" tab1;
  timed "fig13" fig13;
  timed "fig14" fig14;
  timed "ablation" ablation;
  timed "micro" micro;
  timed "hotpath" hotpath;
  timed "legality" legality_bench;
  timed "db" db_bench;
  timed "session" session_bench;
  timed "service" service_bench;
  timed "costmodel" costmodel_bench;
  cache_summary ();
  obs_summary ();
  let total = Clock.now_s () -. t0 in
  emit_json ~total_wall_s:total "BENCH_results.json";
  Fmt.pr "@.results written to BENCH_results.json@.";
  Fmt.pr "total bench wall time: %.1f s@." total;
  if check && not (check_results ()) then begin
    Fmt.epr "bench --check: non-finite or non-positive results detected@.";
    exit 1
  end

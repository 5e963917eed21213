(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 5) on the simulated hardware, plus ablations and
   end-to-end checks of the search infrastructure.

     dune exec bench/main.exe                 full run
     BENCH_FAST=1 dune exec bench/main.exe    reduced trial counts (smoke)
     TIR_JOBS=n ...                           size of the measurement pool

   BENCH_results.json holds only values the build determines: simulated
   latencies and GFLOPs, tallies, every metrics-registry counter, gauge
   and histogram bucket, and the outcome of each self-check. It is one
   flat list of rows {section, name, value, unit, gate} and is
   byte-identical at any TIR_JOBS. Each row declares its own gate, and
   [tools/bench_check.exe] compares a run with a committed baseline row
   by row. Wall-clock goes to stdout only: perfbench/ times the pipeline.

   Sections:
     [fig8]     auto-tensorization mechanism walk-through
     [fig10]    single-op vs ML compilers (TVM, AMOS) on GPU
     [fig11]    single-op vs vendor libraries (CUTLASS, TensorRT)
     [fig12]    end-to-end GPU models vs PyTorch/TVM/AMOS/TensorRT
     [tab1]     tuning-time comparison TVM vs TensorIR
     [fig13]    ARM single-op vs TVM and ArmComputeLib (int8 sdot)
     [fig14]    ARM end-to-end vs PyTorch and TVM
     [ablation] design-choice ablations (AutoCopy, cost model, evolution)
     [hotpath]  evaluation-pipeline classification of a converging
                proposal stream
     [legality] dependence analysis + schedule-legality prover: survey
                verdicts, static-vs-dynamic agreement
     [db]       tuning-record database: re-tuning replays stored traces
     [session]  crash-safe sessions: kill+resume, fault-injected search
     [service]  multi-tenant serve: mixed priorities, server kill+resume,
                cross-tenant database replay
     [costmodel] rank-trained GBDT: held-out rank correlation, zero-shot
                transfer, warm-start trials-to-best vs a cold run
     [obs]      causal-trace self-check over the whole run *)

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
module R = Bench_results

let () = Tir_intrin.Library.register_all ()

let fast = Sys.getenv_opt "BENCH_FAST" <> None

let trials n = if fast then max 8 (n / 4) else n

(* ------------------------------------------------------------------ *)
(* machine-readable results (BENCH_results.json)                       *)
(* ------------------------------------------------------------------ *)

(* Rows of BENCH_results.json, newest first. A row's gate says how
   tools/bench_check.exe judges it: [Exact] pins a figure to the baseline
   row's value, [Floor b] and [Ceiling b] bound a value that asserts an
   invariant. *)
let rows : R.row list ref = ref []

let record ?(gate = R.Exact) section name value unit_ =
  rows := { R.section; name; value; unit_; gate } :: !rows

let count ?gate section name n = record ?gate section name (float_of_int n) "count"

(* A self-check: 1 when it holds, gated at floor 1. *)
let check section name ok =
  record ~gate:(R.Floor 1.0) section name (if ok then 1.0 else 0.0) "bool"

let record_op section prefix (w : W.t) (r : Tune.result) =
  record section (prefix ^ ":" ^ w.W.name) (Tune.latency_us r) "us";
  record section (prefix ^ ":" ^ w.W.name) (Tune.gflops r) "gflops"

(* One row per registry counter, gauge and non-empty histogram bucket.
   Left out are the two that move with the domain count: the
   [memo.*.pending_waits] counters (a domain found an entry that another
   domain was still computing) and the wall-clock [pool.busy_frac]. *)
let registry_rows () =
  let snap = Metrics.snapshot () in
  let varies name =
    String.equal name "pool.busy_frac"
    || String.starts_with ~prefix:"memo." name
       && String.ends_with ~suffix:".pending_waits" name
  in
  List.iter
    (fun (name, v) -> if not (varies name) then count "counter" name v)
    snap.Metrics.counters;
  List.iter
    (fun (name, v) -> if not (varies name) then record "gauge" name v "value")
    snap.Metrics.gauges;
  List.iter
    (fun (name, (h : Metrics.hist_snapshot)) ->
      count "histogram" (name ^ ":total") h.Metrics.total;
      Array.iteri
        (fun i c ->
          let le =
            if i < Array.length h.Metrics.le then Json_min.number h.Metrics.le.(i) else "inf"
          in
          if c > 0 then count "histogram" (name ^ ":le=" ^ le) c)
        h.Metrics.counts)
    snap.Metrics.histograms;
  check "histogram" "counts_sum_to_totals"
    (List.for_all
       (fun (_, (h : Metrics.hist_snapshot)) ->
         Array.fold_left ( + ) 0 h.Metrics.counts = h.Metrics.total)
       snap.Metrics.histograms)

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
(* hotpath: evaluation pipeline over a converging proposal stream       *)
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
   BENCH_FAST — the tallies are per-candidate classification references,
   so the stream must be reproduced exactly. *)
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

(* One pass of the search's evaluation pipeline (decision-key memo, exact
   pre-filter, apply cache, validate, analyze, featurize) over the stream
   of each sketch, from cold caches as a fresh search starts. The
   per-class tallies equal those of the pre-refactor pipeline recorded in
   BENCH_baseline.json. *)
let hotpath () =
  section "hotpath"
    "search hot path: evaluation-pipeline classification of a converging proposal stream";
  let module Sk = Tir_autosched.Sketch in
  let module Space = Tir_autosched.Space in
  let module CM = Tir_autosched.Eval in
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 () in
  let cand =
    Option.get
      (Tir_autosched.Candidate.generate w
         (Tir_intrin.Tensor_intrin.lookup "wmma.mma_16x16x16"))
  in
  let class_name = function
    | CM.Inapplicable -> "inapplicable"
    | CM.Invalid -> "invalid"
    | CM.Unsound -> "unsound"
    | CM.Unsupported -> "unsupported"
    | CM.Evaluated _ -> "evaluated"
  in
  let key_prefix = CM.cache_prefix gpu in
  let classified =
    List.map
      (fun (sk : Sk.t) ->
        let stream, n_unique = hotpath_stream sk ~gens:240 ~per_gen:60 ~elites:6 in
        CM.clear_caches ();
        Tir_sched.Apply_cache.clear ();
        Tir_analysis.Analysis.clear_cache ();
        let sk_prefix = key_prefix ^ sk.Sk.space_id ^ "|" in
        let t = Hashtbl.create 8 in
        List.iter
          (fun d ->
            let key = sk_prefix ^ Space.canonical_key sk.Sk.knobs d in
            let k = class_name (snd (CM.evaluate_cached ~key ~target:gpu sk d)) in
            Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k)))
          stream;
        let tally =
          List.filter_map
            (fun k -> Option.map (fun v -> (k, v)) (Hashtbl.find_opt t k))
            [ "evaluated"; "inapplicable"; "invalid"; "unsound"; "unsupported" ]
        in
        let n = List.length stream in
        Fmt.pr "%-34s proposals=%d unique=%d %a@." sk.Sk.name n n_unique
          Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string int))
          tally;
        count "hotpath" (sk.Sk.name ^ ":proposals") n;
        count "hotpath" (sk.Sk.name ^ ":unique") n_unique;
        List.iter (fun (k, v) -> count "hotpath" (sk.Sk.name ^ ":" ^ k) v) tally;
        List.fold_left (fun a (_, v) -> a + v) 0 tally = n)
      [ Sk.tensorized_gpu cand; Sk.scalar_gpu w ]
  in
  check "hotpath" "tallies_sum_to_proposals" (List.for_all Fun.id classified)

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
  (* The figure sweeps above ran the search's static pre-filter. *)
  let pruned =
    Option.value ~default:0
      (Metrics.find_counter (Metrics.snapshot ()) "search.pruned_static")
  in
  (* Certify the corpus through a cleared memo, then again from it: the
     memo's hit and miss counters are registry rows. *)
  A.clear_cache ();
  for _ = 1 to 2 do
    List.iter (fun f -> ignore (A.certify f)) corpus
  done;
  Fmt.pr "corpus=%d survey=%a agreement=%.2f pruned statically so far=%d@."
    n_corpus
    Fmt.(list ~sep:(any " ") (pair ~sep:(any ":") string int))
    survey agreement pruned;
  count "legality" "corpus" n_corpus;
  List.iter (fun (k, v) -> count "legality" ("survey:" ^ k) v) survey;
  record ~gate:(R.Floor 1.0) "legality" "agreement" agreement "ratio";
  count ~gate:(R.Floor 1.0) "legality" "pruned_static" pruned

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
  count "db" "records_found" found;
  count "db" "trace_replayed" ok;
  record "db" "trace_replay_hit_rate_pct"
    (if found = 0 then 0.0 else 100.0 *. float_of_int ok /. float_of_int found)
    "pct"

(* ------------------------------------------------------------------ *)
(* obs: causal-trace self-check                                         *)
(* ------------------------------------------------------------------ *)

(* Tracing is enabled for the whole bench run (everything below the
   [with_ctx ~tenant:"bench"] wrapper records), so this section checks
   the full trace: the Chrome export validates and nothing was dropped.
   The event count moves whenever a span does, so its row asserts only
   that the trace is not empty. *)
let obs_summary () =
  section "obs" "causal trace: event counts and export validity";
  let c = Trace.counts () in
  let events = c.Trace.spans + c.Trace.instants + c.Trace.counters in
  Fmt.pr "events: %d spans, %d instants, %d counters (%d dropped)@." c.Trace.spans
    c.Trace.instants c.Trace.counters c.Trace.dropped;
  let chrome_valid =
    match Trace.validate_chrome (Trace.export_chrome ()) with
    | Ok n ->
        Fmt.pr "chrome trace: valid, %d events@." n;
        n >= events
    | Error e ->
        Fmt.pr "chrome trace: INVALID (%s)@." e;
        false
  in
  count ~gate:(R.Floor 1.0) "obs" "trace_events" events;
  count ~gate:(R.Ceiling 0.0) "obs" "trace_dropped" c.Trace.dropped;
  check "obs" "chrome_valid" chrome_valid

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
  check "session" "resume_identical" identical;
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
  count "session" "faulted_unmeasurable" faulted.Tune.stats.unmeasurable

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
  count "service" "tenants_completed" o_ref.J.o_completed;
  count "service" "tenants_failed" o_ref.J.o_failed;
  (* Wall-clock-weighted, so only its sign is deterministic. *)
  let busy = Metrics.gauge_value (Metrics.gauge "pool.busy_frac") in
  Fmt.pr "pool.busy_frac: %.4f (wall-clock-weighted)@." busy;
  check "service" "pool_busy_frac_positive" (busy > 0.0);
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
  check "service" "resume_identical" identical;
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
  count ~gate:(R.Floor 1.0) "service" "db_replay" replays;
  check "service" "replay_identical"
    (trace_of q_ref "gmm-again" = trace_of q_ref "gmm-hi");
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
  (* Each task's correlation is pinned exactly; the mean must also clear
     0.5, or the learned model is not ranking candidates. *)
  List.iter (fun (g, r) -> record "costmodel" ("rank_corr:" ^ g) r "corr") per_task;
  record ~gate:(R.Floor 0.5) "costmodel" "rank_corr" rank_corr "corr";
  record "costmodel" "transfer_rank_corr" transfer "corr";
  count "costmodel" "train_samples" !train_count;
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
  check "costmodel" "warm_start_hit" hit;
  count "costmodel" "trials_to_best_cold" to_cold;
  count "costmodel" "trials_to_best_warm" (if to_warm = max_int then budget else to_warm)

let () =
  (* Monotone clock (never runs backwards under wall-clock adjustment), so
     section walls and the total are always non-negative. *)
  let t0 = Clock.now_s () in
  (* Record the whole run: every event below carries at least the bench
     tenant, which the Chrome-trace validator requires. *)
  Trace.enable ();
  Trace.with_ctx ~tenant:"bench" @@ fun () ->
  Fmt.pr "bench: jobs=%d%s@." (Tir_parallel.Pool.default_jobs ())
    (if fast then " (BENCH_FAST)" else "");
  let timed name f =
    let s0 = Clock.now_s () in
    f ();
    Fmt.pr "[%s] wall %.1f s@." name (Clock.now_s () -. s0)
  in
  timed "fig8" fig8;
  timed "fig10" fig10;
  timed "fig11" fig11;
  timed "fig12" fig12;
  timed "tab1" tab1;
  timed "fig13" fig13;
  timed "fig14" fig14;
  timed "ablation" ablation;
  timed "hotpath" hotpath;
  timed "legality" legality_bench;
  timed "db" db_bench;
  timed "session" session_bench;
  timed "service" service_bench;
  timed "costmodel" costmodel_bench;
  obs_summary ();
  registry_rows ();
  R.write "BENCH_results.json" ~fast (List.rev !rows);
  Fmt.pr "@.%d rows written to BENCH_results.json@." (List.length !rows);
  Fmt.pr "total bench wall time: %.1f s@." (Clock.now_s () -. t0)

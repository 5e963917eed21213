(* Observability subsystem: metrics registry, monotone clock, rank
   correlation, the text codecs (percent escaping and JSON strings)
   every file format shares, the search journal (the [gen.commit]
   record each generation leaves on the trace), and the determinism
   contract (identical journal/counter content at jobs=1 and jobs=4). *)

module Clock = Tir_obs.Clock
module Metrics = Tir_obs.Metrics
module Stat = Tir_obs.Stat
module Percent = Tir_core.Percent
module Json_min = Tir_obs.Json_min
module Trace = Tir_obs.Trace
module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune

let gpu = Tir_sim.Target.gpu_tensorcore

(* --- clock --- *)

let test_clock_monotone () =
  let prev = ref (Clock.now_us ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_us () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done

(* --- metrics --- *)

let test_counter () =
  let c = Metrics.counter "test.obs.counter" in
  let before = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" (before + 42) (Metrics.counter_value c);
  (* find-or-create returns the same underlying cells *)
  Metrics.incr (Metrics.counter "test.obs.counter");
  Alcotest.(check int) "shared handle" (before + 43) (Metrics.counter_value c)

let test_gauge () =
  let gg = Metrics.gauge "test.obs.gauge" in
  Metrics.set gg 2.5;
  Alcotest.(check (float 0.0)) "last write wins" 2.5 (Metrics.gauge_value gg);
  Metrics.set gg (-1.0);
  Alcotest.(check (float 0.0)) "overwritten" (-1.0) (Metrics.gauge_value gg)

let test_histogram () =
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "test.obs.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0; 5.0 ];
  let snap = Metrics.snapshot () in
  let _, hs =
    List.find (fun (n, _) -> String.equal n "test.obs.hist") snap.Metrics.histograms
  in
  Alcotest.(check int) "total" 5 hs.Metrics.total;
  Alcotest.(check (array int)) "bucket counts" [| 1; 2; 1; 1 |] hs.Metrics.counts;
  Alcotest.(check int) "counts sum to total" hs.Metrics.total
    (Array.fold_left ( + ) 0 hs.Metrics.counts)

let test_kind_mismatch () =
  ignore (Metrics.counter "test.obs.kind");
  Alcotest.check_raises "counter reused as gauge"
    (Metrics.Kind_mismatch "test.obs.kind") (fun () ->
      ignore (Metrics.gauge "test.obs.kind"))

let test_reset_keeps_handles () =
  let c = Metrics.counter "test.obs.reset" in
  Metrics.add c 7;
  Metrics.reset ();
  Alcotest.(check int) "zeroed" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "handle still live" 1 (Metrics.counter_value c)

(* --- rank correlation --- *)

let test_spearman () =
  let check name expected pairs =
    Alcotest.(check (float 1e-9)) name expected (Stat.spearman pairs)
  in
  check "perfect" 1.0 [| (1.0, 10.0); (2.0, 20.0); (3.0, 30.0); (4.0, 40.0) |];
  check "inverse" (-1.0) [| (1.0, 40.0); (2.0, 30.0); (3.0, 20.0); (4.0, 10.0) |];
  check "degenerate: constant xs" 0.0 [| (5.0, 1.0); (5.0, 2.0); (5.0, 3.0) |];
  check "degenerate: too few points" 0.0 [| (1.0, 2.0) |];
  check "non-finite pairs dropped" 1.0
    [| (1.0, 10.0); (Float.nan, 0.0); (2.0, 20.0); (3.0, Float.infinity); (3.0, 30.0) |];
  (* ties get average ranks; still positively correlated *)
  let r = Stat.spearman [| (1.0, 10.0); (2.0, 10.0); (3.0, 30.0); (4.0, 40.0) |] in
  Alcotest.(check bool) "ties: 0 < r < 1" true (r > 0.0 && r < 1.0)

(* --- codecs --- *)

(* Every byte 0x00-0xff, through each percent-escaped format and through
   the JSON string escaper and parser. *)
let test_codec_every_byte () =
  let all = String.init 256 Char.chr in
  let inputs = [ all; "plain"; ""; "%"; "%%41"; "a|b,c=d\n" ] in
  (* the database/WAL/job-file set, used directly *)
  List.iter
    (fun s ->
      let e = Percent.escape Tir_autosched.Database.field_chars s in
      String.iter
        (fun c ->
          if String.contains "|\n\r,=" c then
            Alcotest.failf "reserved byte %C left unescaped in %S" c e)
        e;
      Alcotest.(check string) "database field roundtrip" s (Percent.unescape e))
    inputs;
  (* the model store's set, through its own file format *)
  let m = Tir_autosched.Model.gbdt () in
  List.iter
    (fun group -> Tir_autosched.Model.add m ~group ~features:[| 1.0 |] ~latency_us:2.0)
    inputs;
  let groups = ref [] in
  Tir_autosched.Model.iter_samples
    (Tir_autosched.Model.load (Tir_autosched.Model.save m))
    (fun ~group ~features:_ ~latency_us:_ -> groups := group :: !groups);
  Alcotest.(check (list string)) "model group roundtrip" inputs (List.rev !groups);
  (* JSON strings *)
  List.iter
    (fun s ->
      match Json_min.parse ("\"" ^ Json_min.escape s ^ "\"") with
      | Json_min.Str s' -> Alcotest.(check string) "json string roundtrip" s s'
      | _ -> Alcotest.fail "escaped string did not parse as a string")
    inputs;
  Alcotest.check_raises "truncated escape" (Failure "truncated percent escape") (fun () ->
      ignore (Percent.unescape "ab%4"));
  match Percent.unescape "%zz" with
  | _ -> Alcotest.fail "non-hex escape accepted"
  | exception Failure _ -> ()

(* --- gflops edge cases --- *)

let test_gflops_edges () =
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  let r = Util.tune ~seed:11 ~trials:8 gpu w in
  let b = match r.Tune.best with Some b -> b | None -> Alcotest.fail "no best" in
  Alcotest.(check bool) "real result rates > 0" true (Tune.gflops r > 0.0);
  Alcotest.(check (float 0.0)) "no candidate -> 0.0" 0.0
    (Tune.gflops { r with Tune.best = None });
  let with_latency l =
    { r with Tune.best = Some { b with Tir_autosched.Evolutionary.latency_us = l } }
  in
  Alcotest.(check (float 0.0)) "nan latency -> 0.0" 0.0 (Tune.gflops (with_latency Float.nan));
  Alcotest.(check (float 0.0)) "inf latency -> 0.0" 0.0
    (Tune.gflops (with_latency Float.infinity));
  Alcotest.(check (float 0.0)) "zero latency -> 0.0" 0.0 (Tune.gflops (with_latency 0.0));
  Alcotest.(check bool) "all finite" true
    (List.for_all
       (fun l -> Float.is_finite (Tune.gflops (with_latency l)))
       [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -1.0; 5.0 ])

(* --- the search journal, determinism across job counts --- *)

(* What every generation commits to the trace, in this order. *)
let funnel =
  [ "gen"; "proposed"; "deduped"; "invalid"; "unsound"; "inapplicable"; "unsupported";
    "unchecked"; "memo_hits"; "lookups"; "measured"; "unmeasurable"; "mutations";
    "crossovers"; "accepted"; "trials"; "best_us"; "rank_corr" ]

(* The run's [gen.commit] instants in generation order, checked against
   the result they must agree with. *)
let journal (r : Tune.result) =
  let arg e k = List.assoc k e.Trace.e_args in
  let gens =
    List.filter
      (fun e -> e.Trace.e_kind = Trace.Instant && e.Trace.e_name = "gen.commit")
      (Trace.events ())
    |> List.sort (fun a b ->
           compare (int_of_string (arg a "gen")) (int_of_string (arg b "gen")))
  in
  Alcotest.(check bool) "one gen.commit per generation" true (gens <> []);
  List.iter
    (fun e ->
      Alcotest.(check (list string)) "gen.commit carries the full funnel" funnel
        (List.map fst e.Trace.e_args))
    gens;
  ignore
    (List.fold_left
       (fun prev e ->
         let b = float_of_string (arg e "best_us") in
         if Float.is_nan b then prev
         else begin
           if b > prev then Alcotest.failf "best_us rose from %h to %h" prev b;
           b
         end)
       Float.infinity gens);
  let last = List.nth gens (List.length gens - 1) in
  Alcotest.(check int) "last gen.commit trials = stats.trials"
    r.Tune.stats.Tir_autosched.Evolutionary.trials
    (int_of_string (arg last "trials"));
  Alcotest.(check string) "last gen.commit best is bit-equal to the result"
    (Printf.sprintf "%h" (Tune.latency_us r))
    (arg last "best_us");
  List.map (fun e -> e.Trace.e_args) gens

let test_journal_identical_across_jobs () =
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  let run jobs =
    (* fresh process-wide state so neither run coasts on the other *)
    Tir_autosched.Eval.clear_caches ();
    Tir_analysis.Analysis.clear_cache ();
    Metrics.reset ();
    Trace.enable ();
    Trace.reset ();
    let j =
      Fun.protect
        ~finally:(fun () -> Trace.disable (); Trace.reset ())
        (fun () -> journal (Util.tune ~seed:7 ~trials:24 ~jobs gpu w))
    in
    (j, (Metrics.snapshot ()).Metrics.counters)
  in
  let j1, c1 = run 1 in
  let j4, c4 = run 4 in
  Alcotest.(check int) "same journal length" (List.length j1) (List.length j4);
  List.iter2
    (fun a b -> Alcotest.(check (list (pair string string))) "identical gen.commit" a b)
    j1 j4;
  Alcotest.(check (list (pair string int))) "identical counters" c1 c4

(* Every fresh proposal lands in exactly one outcome of its generation's
   [gen.commit]. With a cost model, candidates are checked in rank order
   only until the measurement batch is full, and the rest of the ranking
   is [unchecked]. Without one, every candidate is checked before the
   random draw. The faulted run puts measurements into [unmeasurable]. *)
let test_funnel_sums () =
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  let run ?use_cost_model ?(faults = false) () =
    Tir_autosched.Eval.clear_caches ();
    Tir_analysis.Analysis.clear_cache ();
    if faults then Tir_core.Fault.set ~sites:[ Tir_core.Fault.Measure ] ~rate:0.7 ~seed:42 ();
    Trace.enable ();
    Trace.reset ();
    Fun.protect
      ~finally:(fun () -> Tir_core.Fault.clear (); Trace.disable (); Trace.reset ())
      (fun () ->
        ignore (Util.tune ?use_cost_model ~seed:7 ~trials:40 gpu w);
        let events = Trace.events () in
        let named kind name =
          List.filter (fun e -> e.Trace.e_kind = kind && e.Trace.e_name = name) events
        in
        (named Trace.Instant "gen.commit", List.length (named Trace.Span "eval.check")))
  in
  let total gens keys =
    List.fold_left
      (fun acc e ->
        List.fold_left (fun acc k -> acc + int_of_string (List.assoc k e.Trace.e_args)) acc keys)
      0 gens
  in
  let outcomes =
    [ "inapplicable"; "unsupported"; "invalid"; "unsound"; "unchecked"; "measured"; "unmeasurable" ]
  in
  let sums label gens =
    List.iter
      (fun e ->
        Alcotest.(check int)
          (Printf.sprintf "%s gen %s: proposed = sum of outcomes" label
             (List.assoc "gen" e.Trace.e_args))
          (total [ e ] [ "proposed" ])
          (total [ e ] outcomes))
      gens
  in
  let gens, _ = run () in
  sums "ranked" gens;
  Alcotest.(check bool) "ranked below the cut, never checked" true (total gens [ "unchecked" ] > 0);
  let gens, checks = run ~use_cost_model:false () in
  sums "random" gens;
  Alcotest.(check int) "without a model every candidate is checked"
    (total gens [ "invalid"; "unsound"; "unchecked"; "measured"; "unmeasurable" ])
    checks;
  let gens, _ = run ~faults:true () in
  sums "faulted" gens;
  Alcotest.(check bool) "faults make candidates unmeasurable" true
    (total gens [ "unmeasurable" ] > 0)

let test_rank_corr_gauge_set () =
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  Tir_autosched.Eval.clear_caches ();
  Metrics.reset ();
  ignore (Util.tune ~seed:3 ~trials:12 gpu w);
  let snap = Metrics.snapshot () in
  (match Metrics.find_gauge snap "costmodel.rank_corr" with
  | None -> Alcotest.fail "rank-corr gauge missing"
  | Some v -> Alcotest.(check bool) "rank corr in [-1,1]" true (v >= -1.0 && v <= 1.0));
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  Alcotest.(check bool) "search counters populated" true
    (counter "search.generations" > 0
    && counter "search.trials" = 12
    && counter "sim.measurements" > 0
    && counter "sim.bytes.global" > 0)

let test_memo_hit_rate_gauge_set () =
  (* Regression: the gauge was written per-generation, so the final —
     empty, exhausted — generation always reset it to 0.0. It now reports
     the cumulative eval/measure memo rate and must be positive after a
     run that repeats itself. *)
  let w = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  Tir_autosched.Eval.clear_caches ();
  Metrics.reset ();
  ignore (Util.tune ~seed:3 ~trials:12 gpu w);
  (* Second identical run: every evaluation and measurement memo-hits. *)
  ignore (Util.tune ~seed:3 ~trials:12 gpu w);
  match Metrics.find_gauge (Metrics.snapshot ()) "search.memo_hit_rate" with
  | None -> Alcotest.fail "memo-hit-rate gauge missing"
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "memo rate %.3f in (0,1]" v)
        true
        (v > 0.0 && v <= 1.0)

let test_memo_hit_rate_gauge_matches_counters () =
  (* Regression: the gauge was computed from the memo tables' own counts,
     which [Eval.clear_caches] resets, while the registry counters that
     the same dump reports keep counting — a bench dump showed the gauge
     at 0.0 beside tens of thousands of [memo.eval.hits]. *)
  let gmm = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128 ~k:128 () in
  let other = W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:64 ~n:256 ~k:64 () in
  Tir_autosched.Eval.clear_caches ();
  Metrics.reset ();
  ignore (Util.tune ~seed:3 ~trials:12 gpu gmm);
  ignore (Util.tune ~seed:3 ~trials:12 gpu gmm);
  Tir_autosched.Eval.clear_caches ();
  ignore (Util.tune ~seed:3 ~trials:12 gpu other);
  let snap = Metrics.snapshot () in
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  let hits = counter "memo.eval.hits" + counter "memo.measure.hits" in
  let probes = hits + counter "memo.eval.misses" + counter "memo.measure.misses" in
  Alcotest.(check bool) "the repeated run hit the memo" true (hits > 0);
  match Metrics.find_gauge snap "search.memo_hit_rate" with
  | None -> Alcotest.fail "memo-hit-rate gauge missing"
  | Some v ->
      Alcotest.(check (float 0.0)) "gauge = registry hits / probes"
        (float_of_int hits /. float_of_int probes)
        v

let suite =
  [
    Alcotest.test_case "clock: monotone" `Quick test_clock_monotone;
    Alcotest.test_case "metrics: counter" `Quick test_counter;
    Alcotest.test_case "metrics: gauge" `Quick test_gauge;
    Alcotest.test_case "metrics: histogram" `Quick test_histogram;
    Alcotest.test_case "metrics: kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "metrics: reset keeps handles" `Quick test_reset_keeps_handles;
    Alcotest.test_case "stat: spearman" `Quick test_spearman;
    Alcotest.test_case "codec: every byte roundtrips" `Quick test_codec_every_byte;
    Alcotest.test_case "tune: gflops edge cases" `Quick test_gflops_edges;
    Alcotest.test_case "journal: identical at jobs=1/4" `Quick
      test_journal_identical_across_jobs;
    Alcotest.test_case "journal: every proposal lands in one outcome" `Quick
      test_funnel_sums;
    Alcotest.test_case "metrics: rank-corr gauge after tuning" `Quick
      test_rank_corr_gauge_set;
    Alcotest.test_case "metrics: memo-hit-rate gauge after tuning" `Quick
      test_memo_hit_rate_gauge_set;
    Alcotest.test_case "metrics: memo-hit-rate gauge agrees with counters" `Quick
      test_memo_hit_rate_gauge_matches_counters;
  ]

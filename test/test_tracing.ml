(* Causal tracing layer: context propagation, span nesting, the
   determinism contract (bit-identical event identities at jobs=1 and
   jobs=4), both export formats and their validators, the stall
   watchdog, the telemetry exposition, and the analysis diagnostic
   counters. *)

module Trace = Tir_obs.Trace
module Stall = Tir_obs.Stall
module Telemetry = Tir_obs.Telemetry
module Metrics = Tir_obs.Metrics
module W = Tir_workloads.Workloads

let gpu = Tir_sim.Target.gpu_tensorcore

(* Every test drives the trace explicitly: enable + reset on entry,
   disable on exit so the rest of the suite records nothing. *)
let traced f () =
  Trace.enable ();
  Trace.reset ();
  Fun.protect ~finally:(fun () -> Trace.disable (); Trace.reset ()) f

(* --- context propagation --- *)

let test_ctx_merge () =
  Trace.with_ctx ~tenant:"t" ~job:"j" @@ fun () ->
  Trace.with_ctx ~generation:3 @@ fun () ->
  let c = Trace.ambient () in
  Alcotest.(check (option string)) "tenant inherited" (Some "t") c.Trace.tenant;
  Alcotest.(check (option string)) "job inherited" (Some "j") c.Trace.job;
  Alcotest.(check (option int)) "generation merged" (Some 3) c.Trace.generation;
  Trace.with_ctx ~tenant:"u" (fun () ->
      Alcotest.(check (option string)) "inner override" (Some "u")
        (Trace.ambient ()).Trace.tenant);
  Alcotest.(check (option string)) "restored after scope" (Some "t")
    (Trace.ambient ()).Trace.tenant

let test_events_carry_ctx () =
  Trace.with_ctx ~tenant:"t" ~job:"j" (fun () ->
      Trace.with_span "outer" (fun () -> Trace.instant "ping");
      Trace.counter "gauge" 1.5);
  let evs = Trace.events () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "tenant on event" (Some "t") e.Trace.e_ctx.Trace.tenant;
      Alcotest.(check (option string)) "job on event" (Some "j") e.Trace.e_ctx.Trace.job)
    evs

let test_disabled_records_nothing () =
  Trace.disable ();
  Trace.with_span "s" (fun () -> Trace.instant "i");
  Trace.enable ();
  Alcotest.(check int) "nothing recorded while off" 0
    (List.length (Trace.events ()))

(* --- spans --- *)

let test_span_nesting () =
  let v =
    Trace.with_ctx ~tenant:"t" (fun () ->
        Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> 42)))
  in
  Alcotest.(check int) "value returned" 42 v;
  (* equal timestamps sort by identity, so find the spans by name *)
  let span name = List.find (fun e -> e.Trace.e_name = name) (Trace.events ()) in
  let outer = span "outer" and inner = span "inner" in
  Alcotest.(check int) "two spans" 2 (Trace.counts ()).Trace.spans;
  Alcotest.(check bool) "inner within outer" true (inner.Trace.e_dur_us <= outer.Trace.e_dur_us);
  Alcotest.(check bool) "self time excludes the child" true
    (outer.Trace.e_self_us <= outer.Trace.e_dur_us -. inner.Trace.e_dur_us +. 1e-6)

let test_span_recorded_on_raise () =
  (try Trace.with_span "raising" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Trace.counts ()).Trace.spans

(* --- determinism: identities at jobs=1 vs jobs=4 --- *)

let test_identities_jobs_invariant () =
  let w =
    W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128
      ~n:128 ~k:128 ()
  in
  let run jobs =
    (* fresh process-wide state so neither run coasts on the other *)
    Tir_autosched.Eval.clear_caches ();
    Tir_analysis.Analysis.clear_cache ();
    Metrics.reset ();
    Trace.reset ();
    Trace.with_ctx ~tenant:"test" (fun () ->
        ignore (Util.tune ~seed:7 ~trials:24 ~jobs gpu w));
    Trace.identities ()
  in
  let i1 = run 1 in
  let i4 = run 4 in
  Alcotest.(check bool) "trace is non-empty" true (i1 <> []);
  Alcotest.(check int) "same event count" (List.length i1) (List.length i4);
  List.iter2
    (fun a b -> Alcotest.(check string) "identical event identity" a b)
    i1 i4

(* --- Chrome export + validator --- *)

let test_chrome_export_valid () =
  Trace.with_ctx ~tenant:"test" (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" ~args:[ ("k", "v") ] (fun () -> ());
          Trace.instant "mark");
      Trace.counter "depth" 2.0);
  let src = Trace.export_chrome () in
  match Trace.validate_chrome src with
  | Ok n -> Alcotest.(check int) "4 non-metadata events" 4 n
  | Error e -> Alcotest.failf "export failed validation: %s" e

let reject what src =
  match Trace.validate_chrome src with
  | Ok _ -> Alcotest.failf "validator accepted %s" what
  | Error _ -> ()

let test_chrome_validator_rejects () =
  reject "non-JSON" "not json at all";
  reject "missing envelope" "{}";
  reject "NaN timestamp"
    {|{"traceEvents":[{"ph":"i","name":"a","ts":NaN,"args":{"tenant":"t"}}]}|};
  reject "null timestamp"
    {|{"traceEvents":[{"ph":"i","name":"a","ts":null,"args":{"tenant":"t"}}]}|};
  reject "negative timestamp"
    {|{"traceEvents":[{"ph":"i","name":"a","ts":-1.0,"args":{"tenant":"t"}}]}|};
  reject "unsorted timestamps"
    {|{"traceEvents":[{"ph":"i","name":"a","ts":5.0,"args":{"tenant":"t"}},{"ph":"i","name":"b","ts":1.0,"args":{"tenant":"t"}}]}|};
  reject "negative duration"
    {|{"traceEvents":[{"ph":"X","name":"a","ts":0.0,"dur":-2.0,"args":{"tenant":"t"}}]}|};
  reject "unknown phase"
    {|{"traceEvents":[{"ph":"Z","name":"a","ts":0.0,"args":{"tenant":"t"}}]}|};
  reject "missing context"
    {|{"traceEvents":[{"ph":"i","name":"a","ts":0.0,"args":{"color":"red"}}]}|};
  (* counters carry their context under args.ctx — accepted *)
  match
    Trace.validate_chrome
      {|{"traceEvents":[{"ph":"C","name":"c","ts":0.0,"args":{"value":1.0,"ctx":{"job":"j"}}}]}|}
  with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 event, got %d" n
  | Error e -> Alcotest.failf "counter ctx rejected: %s" e

(* --- stall watchdog --- *)

let test_stall_threshold_edges () =
  let t = Stall.create ~threshold:3 () in
  Alcotest.(check bool) "fresh: not stalled" false (Stall.is_stalled t);
  (* first observation improves from infinity *)
  Alcotest.(check bool) "first best improves" true
    (Stall.observe t ~best_us:100.0 = Stall.Improved);
  (* N-1 flat generations: still ok *)
  Alcotest.(check bool) "flat 1" true (Stall.observe t ~best_us:100.0 = Stall.Ok);
  Alcotest.(check bool) "flat 2" true (Stall.observe t ~best_us:100.0 = Stall.Ok);
  Alcotest.(check bool) "not stalled at N-1" false (Stall.is_stalled t);
  (* Nth flat generation crosses the threshold exactly once *)
  Alcotest.(check bool) "stalls at N" true
    (Stall.observe t ~best_us:100.0 = Stall.Stalled);
  Alcotest.(check bool) "stalled flag set" true (Stall.is_stalled t);
  Alcotest.(check bool) "stays stalled, no re-fire" true
    (Stall.observe t ~best_us:100.0 = Stall.Still_stalled);
  Alcotest.(check int) "age counts flat generations" 4 (Stall.age t);
  (* an improvement clears the stall and resets the age *)
  Alcotest.(check bool) "improvement recovers" true
    (Stall.observe t ~best_us:50.0 = Stall.Improved);
  Alcotest.(check bool) "recovered" false (Stall.is_stalled t);
  Alcotest.(check int) "age reset" 0 (Stall.age t);
  (* a worse result is not an improvement *)
  Alcotest.(check bool) "worse is flat" true
    (Stall.observe t ~best_us:60.0 = Stall.Ok);
  (* NaN never improves (NaN < x is false) *)
  let n = Stall.create ~threshold:1 () in
  Alcotest.(check bool) "nan does not improve" true
    (Stall.observe n ~best_us:Float.nan = Stall.Stalled);
  (* threshold clamps to >= 1 *)
  Alcotest.(check int) "threshold clamped" 1
    (Stall.threshold (Stall.create ~threshold:0 ()))

(* --- telemetry exposition --- *)

let test_telemetry_roundtrip () =
  Metrics.reset ();
  Metrics.add (Metrics.counter "test.tm.requests") 42;
  Metrics.set (Metrics.gauge "tenant.alice.best_us") 12.5;
  Metrics.set (Metrics.gauge "tenant.bob.2.best_us") 7.0;
  Metrics.observe (Metrics.histogram "test.tm.lat") 3.0;
  let text = Telemetry.render (Metrics.snapshot ()) in
  let samples = Telemetry.parse text in
  Alcotest.(check (option (float 0.0))) "counter survives" (Some 42.0)
    (Telemetry.find samples "tir_test_tm_requests");
  Alcotest.(check (list string)) "tenants found (dots allowed)"
    [ "alice"; "bob.2" ] (Telemetry.tenants samples);
  Alcotest.(check (option (float 0.0))) "tenant gauge" (Some 12.5)
    (Telemetry.tenant_value samples "best_us" "alice");
  Alcotest.(check (option (float 0.0))) "dotted tenant gauge" (Some 7.0)
    (Telemetry.tenant_value samples "best_us" "bob.2");
  (* histograms parse back as cumulative buckets plus a count *)
  Alcotest.(check (option (float 0.0))) "histogram count" (Some 1.0)
    (Telemetry.find samples "tir_test_tm_lat_count");
  Metrics.reset ()

(* --- analysis counters (flagged vs warned vs diagnostics) --- *)

let test_analysis_counters () =
  Metrics.reset ();
  let count name =
    Option.value ~default:0 (Metrics.find_counter (Metrics.snapshot ()) name)
  in
  (* a clean function: checked, nothing flagged or warned *)
  ignore (Tir_analysis.Analysis.check_func (Util.elementwise_chain ()));
  Alcotest.(check int) "clean: checked" 1 (count "analysis.checked");
  Alcotest.(check int) "clean: not flagged" 0 (count "analysis.flagged");
  Alcotest.(check int) "clean: not warned" 0 (count "analysis.warned");
  Alcotest.(check int) "clean: no diagnostics" 0 (count "analysis.diagnostics");
  (* an unscheduled reduction carries warning-level diagnostics (the
     unsynchronized-reduction note) but no errors: warned, not flagged *)
  let ds = Tir_analysis.Analysis.check_func (Util.matmul ()) in
  let errors = List.filter Tir_analysis.Diagnostic.is_error ds in
  Alcotest.(check int) "flagged counts error funcs" (min 1 (List.length errors))
    (count "analysis.flagged");
  Alcotest.(check int) "warned counts warning-only funcs"
    (if errors = [] && ds <> [] then 1 else 0)
    (count "analysis.warned");
  Alcotest.(check int) "diagnostics counts every diagnostic" (List.length ds)
    (count "analysis.diagnostics");
  Alcotest.(check bool) "flagged + warned <= checked" true
    (count "analysis.flagged" + count "analysis.warned"
    <= count "analysis.checked");
  Metrics.reset ()

let suite =
  [
    Alcotest.test_case "ctx: merge + restore" `Quick (traced test_ctx_merge);
    Alcotest.test_case "ctx: events carry context" `Quick (traced test_events_carry_ctx);
    Alcotest.test_case "disabled: records nothing" `Quick
      (traced test_disabled_records_nothing);
    Alcotest.test_case "span: nesting + self time" `Quick (traced test_span_nesting);
    Alcotest.test_case "span: recorded on raise" `Quick (traced test_span_recorded_on_raise);
    Alcotest.test_case "identities: bit-identical at jobs=1/4" `Quick
      (traced test_identities_jobs_invariant);
    Alcotest.test_case "chrome: export validates" `Quick (traced test_chrome_export_valid);
    Alcotest.test_case "chrome: validator rejects bad traces" `Quick
      test_chrome_validator_rejects;
    Alcotest.test_case "stall: threshold edges" `Quick test_stall_threshold_edges;
    Alcotest.test_case "telemetry: render/parse roundtrip" `Quick
      test_telemetry_roundtrip;
    Alcotest.test_case "analysis: flagged/warned/diagnostics" `Quick
      test_analysis_counters;
  ]

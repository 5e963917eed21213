(** Crash-safe sessions, fault injection, the Config API and the unified
    error surface. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Evo = Tir_autosched.Evolutionary
module Session = Tir_service.Session
module Wal = Tir_service.Wal
module Error = Tir_core.Error
module Fault = Tir_core.Fault
module Retry = Tir_parallel.Retry

let gpu = Tir_sim.Target.gpu_tensorcore

let small_gmm () =
  W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128
    ~k:128 ()

let tiny_gmm () =
  W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:32 ~n:32
    ~k:32 ()

(* Every run in these tests must behave like a fresh process: the
   measurement memo is process-global, and determinism claims are about
   full searches. *)
let fresh () = Tir_autosched.Eval.clear_caches ()

let best_key (r : Tune.result) =
  match r.Tune.best with
  | Some b -> Tir_sched.Trace.to_string b.Evo.trace
  | None -> "<none>"

let temp_wal () =
  let path = Filename.temp_file "tir_test_session" ".wal" in
  Sys.remove path;
  path

(* --- Config API ---------------------------------------------------- *)

let test_config_default_and_setters () =
  let open Tune.Config in
  Alcotest.(check int) "default seed" 42 default.seed;
  Alcotest.(check int) "default trials" 64 default.trials;
  Alcotest.(check bool) "cost model on" true default.use_cost_model;
  Alcotest.(check bool) "evolution on" true default.evolve;
  Alcotest.(check bool) "no database" true (default.database = None);
  Alcotest.(check bool) "shared pool" true (default.jobs = None);
  let cfg =
    default |> with_seed 7 |> with_trials 12 |> with_use_cost_model false
    |> with_evolve false |> with_jobs 2
  in
  Alcotest.(check int) "seed set" 7 cfg.seed;
  Alcotest.(check int) "trials set" 12 cfg.trials;
  Alcotest.(check bool) "cost model off" false cfg.use_cost_model;
  Alcotest.(check bool) "evolution off" false cfg.evolve;
  Alcotest.(check bool) "jobs set" true (cfg.jobs = Some 2)

(* Driving the steppable engine by hand must agree with [run]: one
   [Tune.step] per generation, [Finished] carrying the same result. *)
let test_stepper_matches_run () =
  let w = small_gmm () in
  let cfg = Tune.Config.(default |> with_seed 5 |> with_trials 12) in
  fresh ();
  let a = Tune.run cfg w gpu in
  fresh ();
  let d = Tune.prepare cfg w gpu in
  let steps = ref 0 in
  let rec drive () =
    match Tune.step d with
    | Tune.Stepped { gen; _ } ->
        Alcotest.(check int) "generations arrive in order" !steps gen;
        incr steps;
        drive ()
    | Tune.Finished r -> r
  in
  let b = drive () in
  Alcotest.(check bool) "took at least one step" true (!steps > 0);
  Alcotest.(check string) "same best trace" (best_key a) (best_key b);
  Alcotest.(check (float 0.0)) "same latency" (Tune.latency_us a)
    (Tune.latency_us b);
  Alcotest.(check int) "same trials" a.Tune.stats.Evo.trials
    b.Tune.stats.Evo.trials;
  (* Idempotent past the end. *)
  match Tune.step d with
  | Tune.Finished r ->
      Alcotest.(check string) "step past Finished rereads result" (best_key b)
        (best_key r)
  | Tune.Stepped _ -> Alcotest.fail "stepped past Finished"

(* --- error surface -------------------------------------------------- *)

let test_error_kinds_and_exit_codes () =
  let kinds = Error.[ Parse; Io; Corrupt; Fault ] in
  let codes = List.map Error.exit_code kinds in
  Alcotest.(check (list int)) "distinct stable exit codes" [ 3; 4; 5; 7 ]
    codes;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Error.kind_name k ^ " name nonempty")
        true
        (String.length (Error.kind_name k) > 0))
    kinds

let test_result_constructors () =
  (match Tir_sched.Trace.of_string_result "not a trace !!" with
  | Error e ->
      Alcotest.(check string) "trace parse kind" "parse"
        (Error.kind_name e.Error.kind)
  | Ok _ -> Alcotest.fail "bad trace parsed");
  (* A missing database file is an empty database, not an error... *)
  (match Tir_autosched.Database.load_result "/nonexistent/dir/db.txt" with
  | Ok db -> Alcotest.(check int) "missing db empty" 0 (Tir_autosched.Database.size db)
  | Error _ -> Alcotest.fail "missing db should load empty");
  (* ...but newline-terminated garbage is corruption. *)
  let path = Filename.temp_file "tir_test_db" ".txt" in
  let oc = open_out path in
  output_string oc "tensorir-db-v2\nthis is |not| a record\n";
  close_out oc;
  (match Tir_autosched.Database.load_result path with
  | Error e ->
      Alcotest.(check string) "corrupt db kind" "corrupt"
        (Error.kind_name e.Error.kind)
  | Ok _ -> Alcotest.fail "corrupt db loaded");
  Sys.remove path

(* --- WAL ------------------------------------------------------------ *)

let test_wal_roundtrip_and_torn_tail () =
  let path = temp_wal () in
  let w = Wal.open_append ~path ~start_index:0 in
  Wal.append w "alpha";
  Wal.append w "beta|with|fields";
  Alcotest.(check int) "index advanced" 2 (Wal.index w);
  Wal.close w;
  let lines, torn = Wal.read ~path in
  Alcotest.(check (list string)) "records" [ "alpha"; "beta|with|fields" ] lines;
  Alcotest.(check bool) "no torn tail" true (torn = None);
  (* Simulate a crash mid-append: bytes with no trailing newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "gamma-torn";
  close_out oc;
  let lines, torn = Wal.read ~path in
  Alcotest.(check (list string)) "complete records only" [ "alpha"; "beta|with|fields" ] lines;
  Alcotest.(check (option string)) "torn tail returned" (Some "gamma-torn") torn;
  Wal.rewrite ~path [ "one"; "two" ];
  let lines, torn = Wal.read ~path in
  Alcotest.(check (list string)) "rewrite replaced all" [ "one"; "two" ] lines;
  Alcotest.(check bool) "rewrite is clean" true (torn = None);
  Sys.remove path

(* --- kill + resume determinism -------------------------------------- *)

(* The acceptance property: a session halted after its first committed
   generation and resumed in a "fresh process" (cleared caches) converges
   to the bit-identical best trace of an uninterrupted same-seed run. *)
let kill_and_resume ~jobs () =
  let w = small_gmm () in
  let cfg =
    Tune.Config.(default |> with_seed 42 |> with_trials 48 |> with_jobs jobs)
  in
  fresh ();
  let reference = Tune.run cfg w gpu in
  let path = temp_wal () in
  fresh ();
  let s = Session.create ~path cfg w gpu in
  (match Session.run ~halt_after:1 s with
  | _ -> Alcotest.fail "expected Halted after one generation"
  | exception Session.Halted { gen; _ } ->
      Alcotest.(check int) "halted at gen 0" 0 gen);
  fresh ();
  let s = Session.resume ~workload:w ~jobs ~path () in
  let resumed = Session.run s in
  Alcotest.(check string) "bit-identical best trace" (best_key reference)
    (best_key resumed);
  Alcotest.(check (float 0.0)) "same latency" (Tune.latency_us reference)
    (Tune.latency_us resumed);
  Alcotest.(check int) "same trials" reference.Tune.stats.Evo.trials
    resumed.Tune.stats.Evo.trials;
  Alcotest.(check int) "same proposals" reference.Tune.stats.Evo.proposed
    resumed.Tune.stats.Evo.proposed;
  (* A completed session reconstructs the result from the log alone. *)
  let s = Session.resume ~workload:w ~path () in
  let reread = Session.run s in
  Alcotest.(check string) "done session rereads best" (best_key reference)
    (best_key reread);
  Sys.remove path

let test_kill_and_resume_jobs1 () = kill_and_resume ~jobs:1 ()
let test_kill_and_resume_jobs4 () = kill_and_resume ~jobs:4 ()

(* A warm-started session records its full model snapshot in the WAL meta
   record, so kill+resume is bit-identical to an uninterrupted warm run
   even though the live model store may have moved on. *)
let test_warm_start_survives_resume () =
  let module Model = Tir_autosched.Model in
  let w = small_gmm () in
  (* Build a warm snapshot from a first tuning run on another seed. *)
  fresh ();
  let donor = Tune.run Tune.Config.(default |> with_seed 9 |> with_trials 16) w gpu in
  let snapshot =
    match donor.Tune.model with
    | Some m -> Model.save m
    | None -> Alcotest.fail "donor run returned no model"
  in
  let cfg =
    Tune.Config.(
      default |> with_seed 42 |> with_trials 32
      |> with_model (Model.Warm snapshot))
  in
  fresh ();
  let reference = Tune.run cfg w gpu in
  let path = temp_wal () in
  fresh ();
  let s = Session.create ~path cfg w gpu in
  (match Session.run ~halt_after:1 s with
  | _ -> Alcotest.fail "expected Halted after one generation"
  | exception Session.Halted _ -> ());
  fresh ();
  (* Resume without re-passing the config: the warm spec must come back
     from the meta record alone. *)
  let resumed = Session.run (Session.resume ~workload:w ~path ()) in
  Alcotest.(check string) "warm kill+resume bit-identical"
    (best_key reference) (best_key resumed);
  Alcotest.(check (float 0.0)) "same latency" (Tune.latency_us reference)
    (Tune.latency_us resumed);
  Sys.remove path

let test_session_status_lifecycle () =
  let w = small_gmm () in
  let cfg = Tune.Config.(default |> with_trials 24) in
  let path = temp_wal () in
  fresh ();
  let s = Session.create ~path cfg w gpu in
  (try ignore (Session.run ~halt_after:1 s) with Session.Halted _ -> ());
  let st = Session.status ~path in
  Alcotest.(check bool) "resumable" false st.Session.completed;
  Alcotest.(check int) "one generation committed" 1 st.Session.generations;
  Alcotest.(check int) "trial budget recorded" 24 st.Session.trials_target;
  Alcotest.(check bool) "progress recorded" true (st.Session.trials_done > 0);
  (* create refuses to clobber a resumable log... *)
  (match Session.create ~path cfg w gpu with
  | _ -> Alcotest.fail "create over existing session should fail"
  | exception Error.Error e ->
      Alcotest.(check string) "io error" "io" (Error.kind_name e.Error.kind));
  fresh ();
  ignore (Session.run (Session.resume ~workload:w ~path ()));
  let st = Session.status ~path in
  Alcotest.(check bool) "completed" true st.Session.completed;
  Alcotest.(check bool) "best recorded" true (st.Session.best_us <> None);
  Sys.remove path

(* --- WAL recovery under damage -------------------------------------- *)

let test_resume_discards_torn_write () =
  let w = small_gmm () in
  let cfg = Tune.Config.(default |> with_trials 48) in
  fresh ();
  let reference = Tune.run cfg w gpu in
  let path = temp_wal () in
  fresh ();
  let s = Session.create ~path cfg w gpu in
  (try ignore (Session.run ~halt_after:1 s) with Session.Halted _ -> ());
  (* Crash mid-append: a half-written measure record with no newline.
     Resume must drop it (it cannot parse) and still converge. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "measure|1|half-writ";
  close_out oc;
  fresh ();
  let resumed = Session.run (Session.resume ~workload:w ~path ()) in
  Alcotest.(check string) "torn tail dropped, still bit-identical"
    (best_key reference) (best_key resumed);
  Sys.remove path

let test_resume_discards_uncommitted_records () =
  let w = small_gmm () in
  let cfg = Tune.Config.(default |> with_trials 48) in
  fresh ();
  let reference = Tune.run cfg w gpu in
  let path = temp_wal () in
  fresh ();
  let s = Session.create ~path cfg w gpu in
  (try ignore (Session.run ~halt_after:1 s) with Session.Halted _ -> ());
  (* Records of a generation that never reached its commit marker: the
     next generation re-runs, so these must be discarded, not replayed. *)
  let lines, _ = Wal.read ~path in
  let seen_line =
    List.find (fun l -> String.length l > 5 && String.sub l 0 5 = "seen|") lines
  in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc
    (String.concat "" [ String.map (fun c -> c) seen_line; "\n" ]);
  close_out oc;
  fresh ();
  let st = Session.status ~path in
  Alcotest.(check int) "still one committed generation" 1 st.Session.generations;
  let resumed = Session.run (Session.resume ~workload:w ~path ()) in
  Alcotest.(check string) "uncommitted records discarded, bit-identical"
    (best_key reference) (best_key resumed);
  Sys.remove path

let test_corrupt_log_raises_corrupt () =
  let w = small_gmm () in
  let cfg = Tune.Config.(default |> with_trials 16) in
  let path = temp_wal () in
  fresh ();
  let s = Session.create ~path cfg w gpu in
  (try ignore (Session.run ~halt_after:1 s) with Session.Halted _ -> ());
  (* Newline-terminated garbage is corruption, not a torn write. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "!!! garbage record !!!\n";
  close_out oc;
  (match Session.resume ~workload:w ~path () with
  | _ -> Alcotest.fail "corrupt log resumed"
  | exception Error.Error e ->
      Alcotest.(check string) "corrupt kind" "corrupt"
        (Error.kind_name e.Error.kind));
  Sys.remove path

(* --- fault injection ------------------------------------------------- *)

(* Injected failures are keyed hashes of (seed, site, content), so the
   whole degraded search is bit-identical at any job count. *)
let faulted_run ~jobs () =
  fresh ();
  Fault.set ~rate:0.2 ~seed:42 ();
  Fun.protect ~finally:Fault.clear (fun () ->
      Tune.run
        Tune.Config.(
          default |> with_seed 42 |> with_trials 24 |> with_jobs jobs)
        (small_gmm ()) gpu)

let test_fault_injection_deterministic_across_jobs () =
  let r1 = faulted_run ~jobs:1 () in
  let r4 = faulted_run ~jobs:4 () in
  Alcotest.(check bool) "search completed with a measured best" true
    (r1.Tune.best <> None);
  Alcotest.(check string) "same best trace at jobs=1 and jobs=4"
    (best_key r1) (best_key r4);
  Alcotest.(check (float 0.0)) "same latency" (Tune.latency_us r1)
    (Tune.latency_us r4);
  Alcotest.(check int) "same trials" r1.Tune.stats.Evo.trials
    r4.Tune.stats.Evo.trials;
  Alcotest.(check int) "same unmeasurable count" r1.Tune.stats.Evo.unmeasurable
    r4.Tune.stats.Evo.unmeasurable

let test_fault_env_parse () =
  (match Fault.parse_env "0.25:97" with
  | Some (rate, seed) ->
      Alcotest.(check (float 0.0)) "rate parsed" 0.25 rate;
      Alcotest.(check int) "seed parsed" 97 seed
  | None -> Alcotest.fail "valid TIR_FAULTS rejected");
  Alcotest.(check bool) "garbage rejected" true (Fault.parse_env "lots" = None);
  Alcotest.(check bool) "rate clamped into [0, 1]" true
    (Fault.parse_env "1.5:3" = Some (1.0, 3))

(* --- graceful degradation -------------------------------------------- *)

(* With every measurement failing, retries exhaust on each candidate: the
   search degrades to zero trials, commits nothing to the database, and
   leaves the memo unpoisoned for a later healthy run. *)
let test_retry_exhaustion_never_commits () =
  let w = tiny_gmm () in
  let db = Tir_autosched.Database.create () in
  fresh ();
  Fault.set ~sites:[ Fault.Measure ] ~rate:1.0 ~seed:7 ();
  let degraded =
    Fun.protect ~finally:Fault.clear (fun () ->
        Tune.run
          Tune.Config.(default |> with_trials 8 |> with_database db)
          w gpu)
  in
  Alcotest.(check bool) "no best under total failure" true
    (degraded.Tune.best = None);
  Alcotest.(check int) "zero measured trials" 0 degraded.Tune.stats.Evo.trials;
  Alcotest.(check bool) "candidates recorded as unmeasurable" true
    (degraded.Tune.stats.Evo.unmeasurable > 0);
  Alcotest.(check int) "nothing committed to the database" 0
    (Tir_autosched.Database.size db);
  (* The memo must not have cached the injected failures: the same
     process, faults cleared, memo NOT cleared, finds a measured best. *)
  let healthy =
    Tune.run Tune.Config.(default |> with_trials 8 |> with_database db) w gpu
  in
  Alcotest.(check bool) "memo not poisoned" true (healthy.Tune.best <> None);
  Alcotest.(check bool) "healthy run commits" true
    (Tir_autosched.Database.size db > 0)

let test_backoff_deterministic () =
  let p = Retry.default in
  Alcotest.(check (float 0.0)) "first attempt immediate" 0.0
    (Retry.backoff_us p ~attempt:1);
  Alcotest.(check (float 0.0)) "second attempt base" p.Retry.backoff_base_us
    (Retry.backoff_us p ~attempt:2);
  Alcotest.(check (float 0.0)) "third attempt doubled"
    (p.Retry.backoff_base_us *. p.Retry.backoff_mult)
    (Retry.backoff_us p ~attempt:3)

let suite =
  [
    ("config default and setters", `Quick, test_config_default_and_setters);
    ("stepped driver matches run", `Quick, test_stepper_matches_run);
    ("error kinds map to exit codes", `Quick, test_error_kinds_and_exit_codes);
    ("result-returning parsers", `Quick, test_result_constructors);
    ("wal roundtrip and torn tail", `Quick, test_wal_roundtrip_and_torn_tail);
    ("kill+resume bit-identical (jobs=1)", `Quick, test_kill_and_resume_jobs1);
    ("kill+resume bit-identical (jobs=4)", `Quick, test_kill_and_resume_jobs4);
    ("warm start survives kill+resume", `Quick, test_warm_start_survives_resume);
    ("session status lifecycle", `Quick, test_session_status_lifecycle);
    ("resume drops torn write", `Quick, test_resume_discards_torn_write);
    ("resume discards uncommitted records", `Quick, test_resume_discards_uncommitted_records);
    ("corrupt log raises Corrupt", `Quick, test_corrupt_log_raises_corrupt);
    ("fault injection deterministic across jobs", `Quick, test_fault_injection_deterministic_across_jobs);
    ("TIR_FAULTS parsing", `Quick, test_fault_env_parse);
    ("retry exhaustion never commits", `Quick, test_retry_exhaustion_never_commits);
    ("deterministic exponential backoff", `Quick, test_backoff_deterministic);
  ]

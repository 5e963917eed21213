(** Multi-tenant scheduler and the job-directory queue.

    The acceptance surface: N interleaved sessions produce per-tenant
    results bit-identical to running each standalone — at any pool size,
    and across killing the whole scheduler and resuming every tenant
    from its WAL; priorities weight generations proportionally; a tenant
    submitting an already-solved workload replays the shared database
    instead of searching; malformed jobs dead-letter with a typed
    diagnostic. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Evo = Tir_autosched.Evolutionary
module Session = Tir_service.Session
module Scheduler = Tir_service.Scheduler
module Jobqueue = Tir_service.Jobqueue
module Error = Tir_core.Error
module Metrics = Tir_obs.Metrics
module Pool = Tir_parallel.Pool

let gpu = Tir_sim.Target.gpu_tensorcore

let small_gmm () =
  W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128
    ~k:128 ()

let tiny_gmm () =
  W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:32 ~n:32
    ~k:32 ()

let small_c2d () =
  W.c2d ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~h:28 ~w:28
    ~ci:32 ~co:32 ()

let fresh () = Tir_autosched.Eval.clear_caches ()

let best_key (r : Tune.result) =
  match r.Tune.best with
  | Some b -> Tir_sched.Trace.to_string b.Evo.trace
  | None -> "<none>"

let temp_wal () =
  let path = Filename.temp_file "tir_test_sched" ".wal" in
  Sys.remove path;
  path

let temp_dir () =
  let path = Filename.temp_file "tir_test_queue" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* The three tenants used by the parity tests: distinct workloads and
   seeds, so each has its own search trajectory. *)
let tenants () =
  [
    ("alpha", small_gmm (), 3, 24);
    ("beta", small_c2d (), 5, 24);
    ("gamma", tiny_gmm (), 7, 16);
  ]

let cfg_of ~seed ~trials =
  Tune.Config.(default |> with_seed seed |> with_trials trials)

(* Standalone references, each as if in a fresh process. *)
let references () =
  List.map
    (fun (name, w, seed, trials) ->
      fresh ();
      (name, Tune.run (cfg_of ~seed ~trials) w gpu))
    (tenants ())

let completed_exn name = function
  | Some (Scheduler.Completed r) -> r
  | Some (Scheduler.Failed e) ->
      Alcotest.failf "tenant %s failed: %s" name (Error.to_string e)
  | None -> Alcotest.failf "tenant %s has no outcome" name

(* --- interleaved = standalone, at any pool size ---------------------- *)

let scheduled_matches_standalone ~jobs () =
  let refs = references () in
  fresh ();
  let pool = Pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let sch = Scheduler.create ~pool () in
      let wals =
        List.map
          (fun (name, w, seed, trials) ->
            let path = temp_wal () in
            let s = Session.create ~path (cfg_of ~seed ~trials) w gpu in
            Scheduler.submit sch ~name s;
            path)
          (tenants ())
      in
      Alcotest.(check int) "all tenants live" 3 (Scheduler.active sch);
      (match Scheduler.run sch with
      | Scheduler.Idle -> ()
      | Scheduler.Budget -> Alcotest.fail "no budget was set");
      Alcotest.(check int) "no tenants live" 0 (Scheduler.active sch);
      List.iter
        (fun (name, reference) ->
          let r =
            completed_exn name (List.assoc_opt name (Scheduler.outcomes sch))
          in
          Alcotest.(check string)
            (name ^ ": bit-identical best trace")
            (best_key reference) (best_key r);
          Alcotest.(check (float 0.0))
            (name ^ ": same latency")
            (Tune.latency_us reference) (Tune.latency_us r);
          Alcotest.(check int)
            (name ^ ": same trials")
            reference.Tune.stats.Evo.trials r.Tune.stats.Evo.trials)
        refs;
      List.iter Sys.remove wals)

let test_scheduled_matches_standalone_jobs1 () =
  scheduled_matches_standalone ~jobs:1 ()

let test_scheduled_matches_standalone_jobs4 () =
  scheduled_matches_standalone ~jobs:4 ()

(* --- whole-server kill + resume -------------------------------------- *)

(* Kill the scheduler after a handful of steps (every WAL committed
   through its last generation marker), then resume every tenant under a
   brand-new scheduler in a "fresh process": per-tenant results must
   still be bit-identical to the standalone references. *)
let test_kill_and_resume_whole_server () =
  let refs = references () in
  fresh ();
  let sch = Scheduler.create () in
  let wals =
    List.map
      (fun (name, w, seed, trials) ->
        let path = temp_wal () in
        let s = Session.create ~path (cfg_of ~seed ~trials) w gpu in
        Scheduler.submit sch ~name s;
        (name, w, path))
      (tenants ())
  in
  (match Scheduler.run ~max_steps:4 sch with
  | Scheduler.Budget -> ()
  | Scheduler.Idle -> Alcotest.fail "finished before the kill point");
  Alcotest.(check int) "4 steps taken" 4 (Scheduler.steps_taken sch);
  Alcotest.(check bool) "work remains" true (Scheduler.active sch > 0);
  (* "New process": new scheduler, cleared caches, sessions reopened
     from their logs. *)
  fresh ();
  let sch2 = Scheduler.create () in
  List.iter
    (fun (name, w, path) ->
      Scheduler.submit sch2 ~name (Session.resume ~workload:w ~path ()))
    wals;
  (match Scheduler.run sch2 with
  | Scheduler.Idle -> ()
  | Scheduler.Budget -> Alcotest.fail "no budget was set");
  List.iter
    (fun (name, reference) ->
      let r =
        completed_exn name (List.assoc_opt name (Scheduler.outcomes sch2))
      in
      Alcotest.(check string)
        (name ^ ": bit-identical after server kill+resume")
        (best_key reference) (best_key r);
      Alcotest.(check int)
        (name ^ ": same trials")
        reference.Tune.stats.Evo.trials r.Tune.stats.Evo.trials)
    refs;
  List.iter (fun (_, _, path) -> Sys.remove path) wals

(* --- weighted fairness ----------------------------------------------- *)

(* Deficit round-robin with priorities 2:1 and a mid-run step budget:
   while both tenants are live, the high-priority one gets exactly twice
   the generations. Budgets land mid-search (large trial counts) so
   completion never skews the ratio. *)
let test_priority_weights_generations () =
  fresh ();
  let sch = Scheduler.create () in
  let submit name priority =
    let path = temp_wal () in
    let s =
      Session.create ~path
        (cfg_of ~seed:11 ~trials:10_000)
        (small_gmm ()) gpu
    in
    Scheduler.submit ~priority sch ~name s;
    path
  in
  let hi = submit "hi" 2 in
  let lo = submit "lo" 1 in
  (match Scheduler.run ~max_steps:6 sch with
  | Scheduler.Budget -> ()
  | Scheduler.Idle -> Alcotest.fail "searches completed under budget");
  let gens = Scheduler.generations sch in
  Alcotest.(check int) "hi got 2/3 of the steps" 4 (List.assoc "hi" gens);
  Alcotest.(check int) "lo got 1/3 of the steps" 2 (List.assoc "lo" gens);
  (* Clean up the half-run sessions. *)
  List.iter
    (fun (name, _) ->
      ignore name)
    gens;
  Sys.remove hi;
  Sys.remove lo

(* --- cross-tenant database replay ------------------------------------ *)

let test_cross_tenant_replay () =
  fresh ();
  let db = Tir_autosched.Database.create () in
  let w = small_gmm () in
  let cfg =
    Tune.Config.(
      default |> with_seed 3 |> with_trials 16 |> with_database db)
  in
  let sch = Scheduler.create () in
  let wal_a = temp_wal () in
  Scheduler.submit sch ~name:"first" (Session.create ~path:wal_a cfg w gpu);
  (match Scheduler.run sch with
  | Scheduler.Idle -> ()
  | Scheduler.Budget -> Alcotest.fail "no budget was set");
  let first =
    completed_exn "first" (List.assoc_opt "first" (Scheduler.outcomes sch))
  in
  (* A second tenant submits the same (target, workload) against the
     shared database: its result replays — no search, no generations. *)
  let replayed_before = Metrics.counter_value (Metrics.counter "db.replayed") in
  let wal_b = temp_wal () in
  Scheduler.submit sch ~name:"second" (Session.create ~path:wal_b cfg w gpu);
  (match Scheduler.run sch with
  | Scheduler.Idle -> ()
  | Scheduler.Budget -> Alcotest.fail "no budget was set");
  let second =
    completed_exn "second" (List.assoc_opt "second" (Scheduler.outcomes sch))
  in
  Alcotest.(check string) "replayed the stored trace" (best_key first)
    (best_key second);
  Alcotest.(check int) "db.replayed incremented"
    (replayed_before + 1)
    (Metrics.counter_value (Metrics.counter "db.replayed"));
  Alcotest.(check int) "replay did not search" 0
    (List.assoc "second" (Scheduler.generations sch));
  Sys.remove wal_a;
  Sys.remove wal_b

(* --- per-tenant telemetry -------------------------------------------- *)

let test_tenant_rank_corr_gauge () =
  fresh ();
  let sch = Scheduler.create () in
  let path = temp_wal () in
  Scheduler.submit sch ~name:"ranked"
    (Session.create ~path (cfg_of ~seed:3 ~trials:16) (small_gmm ()) gpu);
  (match Scheduler.run sch with
  | Scheduler.Idle -> ()
  | Scheduler.Budget -> Alcotest.fail "no budget was set");
  (match
     Metrics.find_gauge (Metrics.snapshot ()) "tenant.ranked.rank_corr"
   with
  | None -> Alcotest.fail "tenant rank-corr gauge missing"
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "rank corr %.3f in [-1,1]" v)
        true
        (v >= -1.0 && v <= 1.0 && Float.is_finite v));
  Sys.remove path

(* A tenant's last step ([Done]) commits no generation, so a tenant that
   finished under this scheduler has taken one step more than it has
   generations, and a tenant cut at the step budget has not. `tensorir top`
   tells finished tenants from running ones by this. *)
let test_finished_tenant_steps_once_more () =
  fresh ();
  let names = [ "fin.a"; "fin.b" ] in
  let counter tn metric =
    Metrics.counter_value (Metrics.counter (Printf.sprintf "tenant.%s.%s" tn metric))
  in
  let check_steps label extra =
    List.iter
      (fun tn ->
        Alcotest.(check int)
          (Printf.sprintf "%s %s: steps = generations + %d" label tn extra)
          (counter tn "generations" + extra)
          (counter tn "steps"))
      names
  in
  let sch = Scheduler.create () in
  let wals =
    List.map
      (fun name ->
        let path = temp_wal () in
        Scheduler.submit sch ~name
          (Session.create ~path (cfg_of ~seed:7 ~trials:16) (tiny_gmm ()) gpu);
        path)
      names
  in
  (match Scheduler.run ~max_steps:2 sch with
  | Scheduler.Budget -> ()
  | Scheduler.Idle -> Alcotest.fail "finished before the cut");
  check_steps "cut" 0;
  (match Scheduler.run sch with
  | Scheduler.Idle -> ()
  | Scheduler.Budget -> Alcotest.fail "no budget was set");
  check_steps "finished" 1;
  List.iter Sys.remove wals

let test_duplicate_tenant_rejected () =
  let sch = Scheduler.create () in
  let path = temp_wal () in
  let s =
    Session.create ~path (cfg_of ~seed:1 ~trials:8) (tiny_gmm ()) gpu
  in
  Scheduler.submit sch ~name:"dup" s;
  (match Scheduler.submit sch ~name:"dup" s with
  | () -> Alcotest.fail "duplicate tenant accepted"
  | exception Invalid_argument _ -> ());
  Session.close s;
  Sys.remove path

(* --- job files ------------------------------------------------------- *)

let test_job_parse_roundtrip () =
  let j =
    {
      Jobqueue.j_name = "demo-1";
      j_workload = "GMM";
      j_target = "gpu";
      j_seed = 9;
      j_trials = 32;
      j_priority = 2;
    }
  in
  let j' = Jobqueue.parse_job ~name:"demo-1" (Jobqueue.job_to_string j) in
  Alcotest.(check bool) "roundtrips" true (j = j');
  (* Defaults, comments, and blank lines. *)
  let j'' =
    Jobqueue.parse_job ~name:"d2" "# a comment\n\nworkload=C2D\n"
  in
  Alcotest.(check string) "workload" "C2D" j''.Jobqueue.j_workload;
  Alcotest.(check string) "default target" "gpu" j''.Jobqueue.j_target;
  Alcotest.(check int) "default seed" 42 j''.Jobqueue.j_seed;
  Alcotest.(check int) "default priority" 1 j''.Jobqueue.j_priority;
  let parse_kind text =
    match Jobqueue.parse_job ~name:"bad" text with
    | _ -> "no-error"
    | exception Error.Error e -> Error.kind_name e.Error.kind
  in
  Alcotest.(check string) "unknown key" "parse" (parse_kind "workload=GMM\nx=1");
  Alcotest.(check string) "bad integer" "parse" (parse_kind "workload=GMM\nseed=zz");
  Alcotest.(check string) "missing workload" "parse" (parse_kind "seed=1");
  Alcotest.(check string) "no equals" "parse" (parse_kind "workload");
  (match Jobqueue.parse_job ~name:"../evil" "workload=GMM" with
  | _ -> Alcotest.fail "path-escaping name accepted"
  | exception Error.Error e ->
      Alcotest.(check string) "bad name is parse error" "parse"
        (Error.kind_name e.Error.kind))

(* --- serve end-to-end: completion, dead-letter, metrics dump --------- *)

let test_serve_completes_and_dead_letters () =
  let q = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf q)
    (fun () ->
      let ok =
        {
          Jobqueue.j_name = "good";
          j_workload = "GMM";
          j_target = "gpu";
          j_seed = 3;
          j_trials = 6;
          j_priority = 1;
        }
      in
      ignore (Jobqueue.submit ~queue:q ok);
      (* Duplicate names are refused at submission time. *)
      (match Jobqueue.submit ~queue:q ok with
      | _ -> Alcotest.fail "duplicate job accepted"
      | exception Error.Error e ->
          Alcotest.(check string) "duplicate is io error" "io"
            (Error.kind_name e.Error.kind));
      (* A malformed job dropped straight into pending/ (bypassing
         submit's validation, as a broken client would). *)
      Out_channel.with_open_bin
        (Jobqueue.job_file q Jobqueue.Pending "broken")
        (fun oc -> Out_channel.output_string oc "workload=NOSUCH\n");
      let metrics_path = Filename.concat q "metrics.json" in
      fresh ();
      let outcome =
        Jobqueue.serve
          {
            (Jobqueue.default_config q) with
            Jobqueue.metrics_out = Some metrics_path;
          }
      in
      Alcotest.(check int) "one job completed" 1 outcome.Jobqueue.o_completed;
      Alcotest.(check int) "one job dead-lettered" 1 outcome.Jobqueue.o_failed;
      Alcotest.(check bool) "not a budget stop" false outcome.Jobqueue.o_budget;
      Alcotest.(check (option (of_pp Fmt.nop)))
        "good job is done"
        (Some Jobqueue.Done)
        (Jobqueue.find_job q "good");
      Alcotest.(check (option (of_pp Fmt.nop)))
        "broken job is failed"
        (Some Jobqueue.Failed)
        (Jobqueue.find_job q "broken");
      let result = Jobqueue.read_result ~queue:q ~name:"good" in
      Alcotest.(check (option string))
        "result status" (Some "ok")
        (List.assoc_opt "status" result);
      Alcotest.(check bool) "result has a trace" true
        (List.assoc_opt "trace" result <> None);
      (* The stored latency is a hex float that round-trips exactly. *)
      (match List.assoc_opt "latency_us" result with
      | Some h ->
          Alcotest.(check bool) "hex latency parses" true
            (match float_of_string_opt h with
            | Some f -> Float.is_finite f && f > 0.0
            | None -> false)
      | None -> Alcotest.fail "no latency in result");
      let diag = Jobqueue.read_error ~queue:q ~name:"broken" in
      Alcotest.(check (option string))
        "diagnostic kind" (Some "parse")
        (List.assoc_opt "kind" diag);
      Alcotest.(check (option string))
        "diagnostic exit code" (Some "3")
        (List.assoc_opt "exit_code" diag);
      Alcotest.(check bool) "diagnostic message nonempty" true
        (match List.assoc_opt "message" diag with
        | Some m -> String.length m > 0
        | None -> false);
      (* The metrics dump is the JSON scrape payload. *)
      let dump =
        In_channel.with_open_bin metrics_path In_channel.input_all
      in
      Alcotest.(check bool) "metrics dump mentions serve counters" true
        (let has needle =
           let n = String.length needle and l = String.length dump in
           let rec go i =
             i + n <= l && (String.sub dump i n = needle || go (i + 1))
           in
           go 0
         in
         has "\"serve.jobs_done\":1" && has "\"serve.jobs_failed\":1");
      (* The completed job folded its trained model into the shared
         warm-start store. *)
      Alcotest.(check bool) "model store written" true
        (Sys.file_exists (Jobqueue.model_file q));
      (match Tir_autosched.Model.Store.load (Jobqueue.model_file q) with
      | None -> Alcotest.fail "model store unreadable"
      | Some m ->
          let st = Tir_autosched.Model.stats m in
          Alcotest.(check bool) "store has samples" true
            (st.Tir_autosched.Model.samples > 0));
      (* Shared db persisted: a second serve of the same workload under a
         different name replays instead of searching. *)
      let replayed_before =
        Metrics.counter_value (Metrics.counter "db.replayed")
      in
      ignore
        (Jobqueue.submit ~queue:q { ok with Jobqueue.j_name = "good-again" });
      let outcome2 = Jobqueue.serve (Jobqueue.default_config q) in
      Alcotest.(check int) "second job completed" 1 outcome2.Jobqueue.o_completed;
      Alcotest.(check int) "cross-serve replay hit"
        (replayed_before + 1)
        (Metrics.counter_value (Metrics.counter "db.replayed"));
      let r1 = Jobqueue.read_result ~queue:q ~name:"good" in
      let r2 = Jobqueue.read_result ~queue:q ~name:"good-again" in
      Alcotest.(check (option string))
        "replayed trace identical"
        (List.assoc_opt "trace" r1) (List.assoc_opt "trace" r2))

(* --- the shared files: appended, equal to the old full rewrites ------- *)

module Model = Tir_autosched.Model
module Database = Tir_autosched.Database

let job ?(target = "gpu") ?(trials = 6) name workload seed =
  {
    Jobqueue.j_name = name;
    j_workload = workload;
    j_target = target;
    j_seed = seed;
    j_trials = trials;
    j_priority = 1;
  }

(* The reference queue files: every search completion re-renders the
   whole database and rewrites the store by read, merge and rewrite, as
   the server did before it appended. A search's model and best are
   those of a standalone run warm-started from the store the server
   read. *)
type reference = { store : string; mutable records : Database.record list }

let complete_search rf (j : Jobqueue.job) =
  let target, w = Jobqueue.resolve ~name:j.Jobqueue.j_name j in
  let spec =
    match Model.Store.load rf.store with
    | Some m -> Model.Warm (Model.save m)
    | None -> Model.Gbdt
  in
  fresh ();
  let r =
    Tune.run
      Tune.Config.(
        default |> with_seed j.Jobqueue.j_seed |> with_trials j.Jobqueue.j_trials
        |> with_model spec)
      w target
  in
  let b = match r.Tune.best with Some b -> b | None -> Alcotest.fail "no best" in
  rf.records <-
    rf.records
    @ [
        {
          Database.target_name = target.Tir_sim.Target.name;
          workload_name = w.W.name;
          sketch_name = b.Evo.sketch_name;
          base = b.Evo.base;
          decisions = b.Evo.decisions;
          latency_us = b.Evo.latency_us;
          trace = Some b.Evo.trace;
        };
      ];
  ignore (Util.rewrite_absorb ~path:rf.store (Option.get r.Tune.model))

let check_files ~what q rf =
  Alcotest.(check string) (what ^ ": db.txt = full rewrite")
    (Util.database_text rf.records)
    (Util.read_file (Jobqueue.db_file q));
  Alcotest.(check string) (what ^ ": model.txt = read, merge, rewrite")
    (Util.read_file rf.store)
    (Util.read_file (Jobqueue.model_file q))

let serve_drain ?max_steps q =
  fresh ();
  Jobqueue.serve { (Jobqueue.default_config q) with Jobqueue.jobs = Some 2; max_steps }

(* Three waves into one queue — searches, a database replay and a cut
   wave adopted by the next serve: after each serve, db.txt and
   model.txt hold what rewriting them at every completion held. *)
let test_serve_appends_as_rewrite () =
  let q = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf q) @@ fun () ->
  let rf = { store = Filename.concat q "reference-model.txt"; records = [] } in
  let a = job "a-gmm" "GMM" 3 in
  ignore (Jobqueue.submit ~queue:q a);
  Alcotest.(check int) "wave 1 done" 1 (serve_drain q).Jobqueue.o_completed;
  complete_search rf a;
  check_files ~what:"wave 1" q rf;
  let b = job "b-c1d" "C1D" 5 and c = job "c-gmm-again" "GMM" 9 in
  ignore (Jobqueue.submit ~queue:q b);
  ignore (Jobqueue.submit ~queue:q c);
  let replayed = Metrics.counter_value (Metrics.counter "db.replayed") in
  Alcotest.(check int) "wave 2 done" 2 (serve_drain q).Jobqueue.o_completed;
  Alcotest.(check int) "one replay" (replayed + 1)
    (Metrics.counter_value (Metrics.counter "db.replayed"));
  complete_search rf b;
  check_files ~what:"wave 2" q rf;
  let d = job ~trials:20 "d-c2d" "C2D" 7 in
  ignore (Jobqueue.submit ~queue:q d);
  Alcotest.(check bool) "cut" true (serve_drain ~max_steps:1 q).Jobqueue.o_budget;
  check_files ~what:"cut wave" q rf;
  Alcotest.(check int) "adopted and done" 1 (serve_drain q).Jobqueue.o_completed;
  complete_search rf d;
  check_files ~what:"adopted wave" q rf

(* Half a record at the end of db.txt and half a sample line at the end
   of model.txt: the next serve keeps every complete line, counts both
   fragments and rewrites each file whole at its first write. *)
let test_serve_drops_torn_tails () =
  let q = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf q) @@ fun () ->
  let rf = { store = Filename.concat q "reference-model.txt"; records = [] } in
  let a = job "a-gmm" "GMM" 3 in
  ignore (Jobqueue.submit ~queue:q a);
  ignore (serve_drain q);
  complete_search rf a;
  let half path n =
    let text = Util.read_file path in
    let line = List.nth (String.split_on_char '\n' text) n in
    Util.write_file path (text ^ String.sub line 0 (String.length line / 2))
  in
  half (Jobqueue.db_file q) 1;
  half (Jobqueue.model_file q) 1;
  let counter = Metrics.counter "db.torn_dropped" in
  let dropped = Metrics.counter_value counter in
  let b = job "b-c1d" "C1D" 5 in
  ignore (Jobqueue.submit ~queue:q b);
  Alcotest.(check int) "done" 1 (serve_drain q).Jobqueue.o_completed;
  Alcotest.(check int) "both fragments counted" (dropped + 2)
    (Metrics.counter_value counter);
  complete_search rf b;
  check_files ~what:"after the torn tails" q rf

(* A malformed percent escape in a job file is that job's parse error,
   never the server's. *)
let test_bad_escape_dead_letters () =
  let q = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf q) @@ fun () ->
  ignore (Jobqueue.submit ~queue:q (job "good" "GMM" 3));
  Jobqueue.ensure_queue q;
  Util.write_file (Jobqueue.job_file q Jobqueue.Pending "escape") "workload=GMM%4\n";
  let o = serve_drain q in
  Alcotest.(check int) "good job done" 1 o.Jobqueue.o_completed;
  Alcotest.(check int) "bad job dead-lettered" 1 o.Jobqueue.o_failed;
  Alcotest.(check (option (of_pp Fmt.nop))) "in failed/" (Some Jobqueue.Failed)
    (Jobqueue.find_job q "escape");
  let diag = Jobqueue.read_error ~queue:q ~name:"escape" in
  Alcotest.(check (option string)) "parse kind" (Some "parse") (List.assoc_opt "kind" diag);
  Alcotest.(check (option string)) "exit code 3" (Some "3") (List.assoc_opt "exit_code" diag)

(* Serve calls share one pool of their size: only the first spawns its
   worker domains (none if the pool exists already), and no call joins
   one. *)
let test_serve_reuses_pool () =
  let q = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf q) @@ fun () ->
  (* Domain ids are handed out in spawn order: the gap between two
     probes counts the domains spawned in between. *)
  let probe () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  let spawned since = probe () - since - 1 in
  ignore (Jobqueue.submit ~queue:q (job "a-gmm" "GMM" 3));
  let p0 = probe () in
  ignore (serve_drain q);
  Alcotest.(check bool) "first serve: at most one pool" true (spawned p0 <= 1);
  ignore (Jobqueue.submit ~queue:q (job "b-c1d" "C1D" 5));
  let p1 = probe () in
  ignore (serve_drain q);
  Alcotest.(check int) "second serve spawns nothing" 0 (spawned p1)

let suite =
  [
    ( "scheduled = standalone (jobs=1)",
      `Quick,
      test_scheduled_matches_standalone_jobs1 );
    ( "scheduled = standalone (jobs=4)",
      `Quick,
      test_scheduled_matches_standalone_jobs4 );
    ("whole-server kill+resume", `Quick, test_kill_and_resume_whole_server);
    ("2:1 priority gives 2:1 generations", `Quick, test_priority_weights_generations);
    ("cross-tenant database replay", `Quick, test_cross_tenant_replay);
    ("tenant rank-corr gauge", `Quick, test_tenant_rank_corr_gauge);
    ( "finished tenant steps once more than it generates",
      `Quick,
      test_finished_tenant_steps_once_more );
    ("duplicate tenant rejected", `Quick, test_duplicate_tenant_rejected);
    ("job file parse roundtrip", `Quick, test_job_parse_roundtrip);
    ( "serve completes and dead-letters",
      `Quick,
      test_serve_completes_and_dead_letters );
    ("serve appends as a full rewrite would", `Quick, test_serve_appends_as_rewrite);
    ("serve drops torn tails of shared files", `Quick, test_serve_drops_torn_tails);
    ("bad escape in a job dead-letters", `Quick, test_bad_escape_dead_letters);
    ("serve calls share one pool", `Quick, test_serve_reuses_pool);
  ]

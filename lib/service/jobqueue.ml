(** Job-directory protocol behind [tensorir serve]/[submit]/[jobs].

    A queue directory holds four state subdirectories; a job is one
    [<name>.job] file that moves through them atomically (same-filesystem
    renames), so any observer — including a second [jobs] CLI process —
    always sees a consistent state:

    {v
    queue/
      pending/NAME.job     submitted, not yet picked up
      running/NAME.job     adopted by the server (+ NAME.wal session log)
      done/NAME.job        completed (+ NAME.result, NAME.wal kept)
      failed/NAME.job      rejected or errored (+ NAME.error diagnostic)
      db.txt               shared trace database (cross-tenant replay)
      model.txt            shared cost-model store (cross-workload warm start)
    v}

    Job files are line-oriented [key=value] (values percent-escaped with
    the database escaping; plain alphanumerics pass through untouched, so
    hand-written files work). Keys: [workload] (tag, required), [target]
    (default [gpu]), [seed] (default 42), [trials] (default 64),
    [priority] (default 1). Unknown keys, missing [workload], or
    non-numeric fields are [Parse] errors; a malformed job moves to
    [failed/] with a [NAME.error] diagnostic carrying the shared
    [Error.t] kind and exit code — the serve loop never wedges on bad
    input.

    The server kills cleanly at any generation boundary: every running
    tenant's WAL is committed, the job file stays in [running/], and the
    next [serve] adopts it via [Session.resume] — per-tenant results are
    bit-identical to an uninterrupted run. Completed jobs append to the
    shared database, so a later tenant submitting an already-solved
    workload replays the stored trace instead of searching
    ([db.replayed]). *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Model = Tir_autosched.Model
module Database = Tir_autosched.Database
module Error = Tir_core.Error
module Metrics = Tir_obs.Metrics

let esc = Tir_core.Percent.escape Database.field_chars
let unesc ~context = Tir_core.Percent.decode ~context Error.Parse
let fl = Printf.sprintf "%h"

type job = {
  j_name : string;
  j_workload : string;  (** workload tag (resolved per target kind) *)
  j_target : string;
  j_seed : int;
  j_trials : int;
  j_priority : int;
}

type state = Pending | Running | Done | Failed

let state_dir = function
  | Pending -> "pending"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"

let dir queue st = Filename.concat queue (state_dir st)
let job_file queue st name = Filename.concat (dir queue st) (name ^ ".job")
let wal_file queue st name = Filename.concat (dir queue st) (name ^ ".wal")
let result_file queue name = Filename.concat (dir queue Done) (name ^ ".result")
let error_file queue name = Filename.concat (dir queue Failed) (name ^ ".error")
let db_file queue = Filename.concat queue "db.txt"
let model_file queue = Filename.concat queue "model.txt"

let parse_err ~name fmt =
  Printf.ksprintf (fun m -> Error.raise_error ~context:name Error.Parse m) fmt

(* Names become file paths: keep them to one conservative charset. *)
let check_name name =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = '.'
  in
  if
    name = "" || name.[0] = '.'
    || not (String.for_all ok name)
    || String.length name > 128
  then
    parse_err ~name "invalid job name %S (want [A-Za-z0-9._-]+, max 128)" name

(* --- job files ---------------------------------------------------------- *)

let job_to_string j =
  String.concat "\n"
    [
      "workload=" ^ esc j.j_workload;
      "target=" ^ esc j.j_target;
      "seed=" ^ string_of_int j.j_seed;
      "trials=" ^ string_of_int j.j_trials;
      "priority=" ^ string_of_int j.j_priority;
      "";
    ]

let parse_job ~name text =
  check_name name;
  let j =
    ref
      {
        j_name = name;
        j_workload = "";
        j_target = "gpu";
        j_seed = 42;
        j_trials = 64;
        j_priority = 1;
      }
  in
  let num ~lineno ~key v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> parse_err ~name "line %d: %s wants an integer, got %S" lineno key v
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line '=' with
        | None -> parse_err ~name "line %d: expected key=value, got %S" lineno line
        | Some eq ->
            let key = String.trim (String.sub line 0 eq) in
            let v =
              unesc ~context:name
                (String.trim
                   (String.sub line (eq + 1) (String.length line - eq - 1)))
            in
            let cur = !j in
            j :=
              (match key with
              | "workload" -> { cur with j_workload = v }
              | "target" -> { cur with j_target = v }
              | "seed" -> { cur with j_seed = num ~lineno ~key v }
              | "trials" ->
                  let t = num ~lineno ~key v in
                  if t <= 0 then
                    parse_err ~name "line %d: trials must be positive" lineno;
                  { cur with j_trials = t }
              | "priority" ->
                  { cur with j_priority = max 1 (num ~lineno ~key v) }
              | k -> parse_err ~name "line %d: unknown key %S" lineno k))
    (String.split_on_char '\n' text);
  if !j.j_workload = "" then parse_err ~name "missing required key: workload";
  !j

(* Resolve a (target, workload-tag) pair the way the tuner expects it:
   GPU targets take the tag's default shape, CPU targets swap the
   float conv/gemm shapes for their int8 counterparts. Unknown names are
   [Parse] errors so a bad job file fails, not the server. *)
let resolve ~name (j : job) =
  let target =
    match Tir_sim.Target.by_name j.j_target with
    | t -> t
    | exception _ -> parse_err ~name "unknown target %S" j.j_target
  in
  let by_tag tag =
    match W.by_tag tag with
    | w -> w
    | exception _ -> parse_err ~name "unknown workload tag %S" tag
  in
  let w =
    match target.Tir_sim.Target.kind with
    | Tir_sim.Target.Gpu -> by_tag j.j_workload
    | Tir_sim.Target.Cpu -> (
        match String.uppercase_ascii j.j_workload with
        | "C2D" -> W.c2d ~in_dtype:Tir_ir.Dtype.I8 ~acc_dtype:Tir_ir.Dtype.I32 ()
        | "GMM" ->
            W.gmm ~in_dtype:Tir_ir.Dtype.I8 ~acc_dtype:Tir_ir.Dtype.I32 ~m:512
              ~n:512 ~k:512 ()
        | _ -> by_tag j.j_workload)
  in
  (target, w)

(* --- filesystem helpers ------------------------------------------------- *)

let mkdir_p path =
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      match Unix.mkdir p 0o755 with
      | () -> ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
          Error.raise_error ~context:p Error.Io
            ("cannot create directory: " ^ Unix.error_message e)
    end
  in
  mk path

let ensure_queue queue =
  List.iter (fun st -> mkdir_p (dir queue st)) [ Pending; Running; Done; Failed ]

(* Atomic publish: a reader never sees a half-written file. *)
let write_file_atomic path content =
  Tir_core.File.write_atomic path (fun oc -> output_string oc content)

let move src dst =
  match Sys.rename src dst with
  | () -> ()
  | exception Sys_error m -> Error.raise_error ~context:src Error.Io m

let jobs_in queue st =
  match Sys.readdir (dir queue st) with
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".job" f)
      |> List.sort String.compare
  | exception Sys_error _ -> []

let find_job queue name =
  List.find_opt
    (fun st -> Sys.file_exists (job_file queue st name))
    [ Pending; Running; Done; Failed ]

(* --- client side -------------------------------------------------------- *)

let submit ~queue (j : job) =
  check_name j.j_name;
  ensure_queue queue;
  (match find_job queue j.j_name with
  | Some st ->
      Error.raise_error ~context:j.j_name Error.Io
        (Printf.sprintf "job already exists (%s)" (state_dir st))
  | None -> ());
  let path = job_file queue Pending j.j_name in
  write_file_atomic path (job_to_string j);
  path

let list_jobs ~queue =
  List.concat_map
    (fun st -> List.map (fun n -> (n, st)) (jobs_in queue st))
    [ Pending; Running; Done; Failed ]
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Parsed key=value file (results and diagnostics share the format). *)
let read_kv path =
  Tir_core.File.read path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line '=' with
           | None -> None
           | Some eq ->
               Some
                 ( String.sub line 0 eq,
                   unesc ~context:path
                     (String.sub line (eq + 1) (String.length line - eq - 1))
                 ))

let read_result ~queue ~name = read_kv (result_file queue name)
let read_error ~queue ~name = read_kv (error_file queue name)

(* --- server side -------------------------------------------------------- *)

type config = {
  queue : string;
  jobs : int option;
      (** the process's pool of this size; [None] = the [TIR_JOBS] one *)
  drain : bool;  (** exit once pending and running are empty *)
  max_steps : int option;
      (** total session-step budget; the kill point for crash testing *)
  metrics_out : string option;
      (** dump the registry as JSON here (atomic rewrite) on every
          scheduler event, after every scheduler run, and on every idle
          poll tick — external scrapers always see live data *)
  trace_out : string option;
      (** enable causal tracing and snapshot the Chrome trace-event JSON
          here, same cadence and atomicity as [metrics_out] *)
  poll_interval_s : float;
      (** pending/ poll cadence when not draining — also the telemetry
          snapshot cadence while idle *)
}

let default_config queue =
  {
    queue;
    jobs = None;
    drain = true;
    max_steps = None;
    metrics_out = None;
    trace_out = None;
    poll_interval_s = 0.2;
  }

type outcome = {
  o_completed : int;
  o_failed : int;
  o_budget : bool;  (** stopped on [max_steps]; resumable work remains *)
}

let m_jobs_adopted = Metrics.counter "serve.jobs_adopted"
let m_jobs_started = Metrics.counter "serve.jobs_started"
let m_jobs_done = Metrics.counter "serve.jobs_done"
let m_jobs_failed = Metrics.counter "serve.jobs_failed"
let m_q_pending = Metrics.gauge "serve.queue.pending"
let m_q_running = Metrics.gauge "serve.queue.running"
let m_q_done = Metrics.gauge "serve.queue.done"
let m_q_failed = Metrics.gauge "serve.queue.failed"

let sample_queue_depth queue =
  let count st = float_of_int (List.length (jobs_in queue st)) in
  Metrics.set m_q_pending (count Pending);
  Metrics.set m_q_running (count Running);
  Metrics.set m_q_done (count Done);
  Metrics.set m_q_failed (count Failed)

(* One telemetry tick: queue-depth gauges, then every configured snapshot
   through the same atomic tmp+rename publish. Called at server start, on
   every scheduler event, after every scheduler run, and on every idle
   poll tick. *)
let dump_metrics cfg =
  if cfg.metrics_out <> None || cfg.trace_out <> None then
    sample_queue_depth cfg.queue;
  Option.iter
    (fun path ->
      write_file_atomic path (Metrics.snapshot_json (Metrics.snapshot ()) ^ "\n"))
    cfg.metrics_out;
  Option.iter
    (fun path -> write_file_atomic path (Tir_obs.Trace.export_chrome ()))
    cfg.trace_out

(* Job lifecycle instants, carrying the job (and its tenant identity) in
   the propagated context. *)
let job_instant ~name kind =
  Tir_obs.Trace.with_ctx ~job:name ~tenant:name (fun () ->
      Tir_obs.Trace.instant kind)

(* Result files are deterministic renderings of the tuning result (no
   timestamps): byte-identical results across server restarts and job
   counts are part of the test surface. *)
let render_result (j : job) (r : Tune.result) =
  let base =
    [
      ("workload", r.Tune.workload.W.name);
      ("target", r.Tune.target.Tir_sim.Target.name);
      ("seed", string_of_int j.j_seed);
      ("trials", string_of_int j.j_trials);
      ("trials_done", string_of_int r.Tune.stats.Tir_autosched.Evolutionary.trials);
      ("gflops", Printf.sprintf "%.6f" (Tune.gflops r));
    ]
  in
  let tail =
    match r.Tune.best with
    | Some b ->
        [
          ("status", "ok");
          ("latency_us", fl b.Tir_autosched.Evolutionary.latency_us);
          ("sketch", b.Tir_autosched.Evolutionary.sketch_name);
          ("trace", Tir_sched.Trace.to_string b.Tir_autosched.Evolutionary.trace);
        ]
    | None -> [ ("status", "none") ]
  in
  String.concat "\n"
    (List.map (fun (k, v) -> k ^ "=" ^ esc v) (("name", j.j_name) :: base @ tail))
  ^ "\n"

let render_error ~name (e : Error.t) =
  String.concat "\n"
    [
      "name=" ^ esc name;
      "status=failed";
      "kind=" ^ Error.kind_name e.Error.kind;
      "exit_code=" ^ string_of_int (Error.exit_code e.Error.kind);
      "message=" ^ esc e.Error.message;
      "";
    ]

(* Move a job (wherever it currently is) to failed/ with a diagnostic. *)
let fail_job ~queue ~name ~from (e : Error.t) =
  write_file_atomic (error_file queue name) (render_error ~name e);
  (match from with
  | Some st when Sys.file_exists (job_file queue st name) ->
      move (job_file queue st name) (job_file queue Failed name)
  | _ -> ());
  (match from with
  | Some Running when Sys.file_exists (wal_file queue Running name) ->
      move (wal_file queue Running name) (wal_file queue Failed name)
  | _ -> ());
  (* A job that never ran (malformed, or lost before adoption) is a
     dead-letter; a running job that errored is a plain failure. *)
  job_instant ~name
    (match from with Some Running -> "job.failed" | _ -> "job.dead_letter");
  Metrics.incr m_jobs_failed

let serve (cfg : config) : outcome =
  ensure_queue cfg.queue;
  if cfg.trace_out <> None then Tir_obs.Trace.enable ();
  let queue = cfg.queue in
  let db =
    match Database.load_result (db_file queue) with
    | Ok db -> db
    | Error e -> raise (Error.Error e)
  in
  (* The store is read once per serve call: the warm-start snapshot
     comes from that read, and completions append to it through the same
     handle. The snapshot is baked into each fresh session's config (and
     hence its WAL meta record) as a [Model.Warm] spec: a session's model
     is pinned at creation, so kill+resume stays bit-identical even while
     completions keep adding to the live store. A missing or corrupt
     store degrades to cold starts. *)
  let store = Model.Store.open_ (model_file queue) in
  let warm_spec =
    Option.map (fun m -> Model.Warm (Model.save m)) (Model.Store.fit store)
  in
  let sch = Scheduler.create ~pool:(Tir_parallel.Pool.global ?jobs:cfg.jobs ()) () in
  let jobs_tbl : (string, job) Hashtbl.t = Hashtbl.create 16 in
  let completed = ref 0 and failed = ref 0 in
  let finish_ok name (r : Tune.result) =
    Tir_obs.Trace.with_span "jobqueue.complete" (fun () ->
        let j = Hashtbl.find jobs_tbl name in
        write_file_atomic (result_file queue name) (render_result j r);
        move (job_file queue Running name) (job_file queue Done name);
        if Sys.file_exists (wal_file queue Running name) then
          move (wal_file queue Running name) (wal_file queue Done name);
        (* Persist the shared database after every completion: the next
           tenant (or the next server process) replays this result for
           free. A replay adds no record, so it writes nothing. *)
        Database.save db (db_file queue);
        (* And fold the run's cost-model samples into the shared store —
           the next server process fits it once and warm-starts every
           fresh session from it (database replays return
           [model = None]: nothing new learned). *)
        Option.iter (Model.Store.add store) r.Tune.model);
    job_instant ~name "job.done";
    Metrics.incr m_jobs_done;
    incr completed
  in
  let finish_fail name err =
    fail_job ~queue ~name ~from:(Some Running) err;
    incr failed
  in
  let on_event ev =
    (match ev with
    | Scheduler.Step _ -> ()
    | Scheduler.Complete { tenant; result } -> finish_ok tenant result
    | Scheduler.Fail { tenant; error } -> finish_fail tenant error);
    dump_metrics cfg
  in
  (* Adopt orphans first — jobs a killed server left in running/. Their
     WALs are committed through the last generation marker; resuming
     them before scanning pending/ preserves the original submission
     order (running jobs were necessarily submitted before pending
     ones). *)
  let enqueue ~st name =
    Tir_obs.Trace.with_span "jobqueue.enqueue" @@ fun () ->
    match
      let j = parse_job ~name (Tir_core.File.read (job_file queue st name)) in
      let target, w = resolve ~name j in
      if Hashtbl.mem jobs_tbl name then
        Error.raise_error ~context:name Error.Io "duplicate job name";
      let session =
        if st = Running && Sys.file_exists (wal_file queue Running name) then begin
          Metrics.incr m_jobs_adopted;
          job_instant ~name "job.adopted";
          Session.resume ~workload:w ~database:db
            ~path:(wal_file queue Running name) ()
        end
        else begin
          (* Fresh job (or a job killed before its WAL was created). *)
          if st = Pending then
            move (job_file queue Pending name) (job_file queue Running name);
          Metrics.incr m_jobs_started;
          job_instant ~name "job.started";
          let scfg =
            Tune.Config.(
              default |> with_seed j.j_seed |> with_trials j.j_trials
              |> with_database db
              |>
              match warm_spec with
              | Some spec -> with_model spec
              | None -> Fun.id)
          in
          Session.create ~path:(wal_file queue Running name) scfg w target
        end
      in
      (j, session)
    with
    | j, session ->
        Hashtbl.replace jobs_tbl name j;
        Scheduler.submit ~priority:j.j_priority sch ~name session
    | exception Error.Error e ->
        (* The job may already have moved pending -> running (e.g. the
           session WAL failed to open after the move): dead-letter it
           from wherever it actually is. *)
        let from =
          match find_job queue name with
          | Some (Pending | Running) as st -> st
          | _ -> None
        in
        fail_job ~queue ~name ~from e;
        incr failed
  in
  let steps_used = ref 0 in
  let budget_left () =
    Option.map (fun m -> max 0 (m - !steps_used)) cfg.max_steps
  in
  (* Everything the server records carries at least tenant="server";
     tenant slices and job lifecycle sites override it with the real
     identity. *)
  Tir_obs.Trace.with_ctx ~tenant:"server" @@ fun () ->
  dump_metrics cfg;
  let rec loop first =
    if first then
      List.iter (fun name -> enqueue ~st:Running name) (jobs_in queue Running);
    List.iter (fun name -> enqueue ~st:Pending name) (jobs_in queue Pending);
    let before = Scheduler.steps_taken sch in
    let stop = Scheduler.run ?max_steps:(budget_left ()) ~on_event sch in
    steps_used := !steps_used + (Scheduler.steps_taken sch - before);
    dump_metrics cfg;
    match stop with
    | Scheduler.Budget ->
        { o_completed = !completed; o_failed = !failed; o_budget = true }
    | Scheduler.Idle ->
        if jobs_in queue Pending <> [] then loop false
        else if cfg.drain then
          { o_completed = !completed; o_failed = !failed; o_budget = false }
        else begin
          Unix.sleepf (Float.max 0.01 cfg.poll_interval_s);
          (* Periodic snapshots while idle: the poll tick is the
             telemetry cadence, so scrapers and `tensorir top` see live
             data even when no scheduler event fires. *)
          dump_metrics cfg;
          loop false
        end
  in
  loop true

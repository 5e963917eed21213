(** Job-directory protocol behind [tensorir serve]/[submit]/[jobs].

    A queue directory holds four state subdirectories; a job is a single
    [<name>.job] file moved between them by same-filesystem renames, so
    observers always see a consistent state:

    {v
    queue/
      pending/NAME.job     submitted, not yet picked up
      running/NAME.job     adopted by the server (+ NAME.wal session log)
      done/NAME.job        completed (+ NAME.result, NAME.wal kept)
      failed/NAME.job      rejected or errored (+ NAME.error diagnostic)
      db.txt               shared trace database (cross-tenant replay)
      model.txt            shared cost-model store (cross-workload warm start)
    v}

    Job files are line-oriented [key=value] (values percent-escaped;
    plain alphanumerics pass through, so hand-written files work):
    [workload] (required tag), [target] (default [gpu]), [seed]
    (default 42), [trials] (default 64), [priority] (default 1, clamped
    to [>= 1]). Blank lines and [#] comments are skipped. A malformed
    job — unknown key, bad integer, malformed percent escape, unknown
    workload or target — moves to [failed/] with a [NAME.error] file
    carrying the shared {!Tir_core.Error.t} kind, exit code, and
    message; the server never wedges on bad input.

    The server can be killed at any generation boundary: WALs are
    committed, job files stay in [running/], and the next {!serve}
    adopts them via [Session.resume] — per-tenant results are
    bit-identical to an uninterrupted run. Each completion persists the
    shared database, appending the record it added
    ({!Tir_autosched.Database.save}; a replay adds none and writes
    nothing), so a later job with an already-solved workload replays
    the stored trace ([db.replayed]) instead of searching.

    Completed searches also fold their cost model's samples into
    [model.txt], which holds samples only and is not retrained per job.
    Each [serve] call reads the store once
    ({!Tir_autosched.Model.Store.open_}): that read fits it once, for
    the warm start of every fresh session ([Model.Warm] spec, recorded
    in the session's WAL meta — so kill+resume never depends on the
    moving store file), and each completion appends the samples it adds
    through the same handle. Both files stay byte-identical to a full
    rewrite after every completion; one this server did not write (or
    a torn one) is rewritten once, atomically.

    Metrics: [serve.jobs_started], [serve.jobs_adopted],
    [serve.jobs_done], [serve.jobs_failed]. Spans: [jobqueue.enqueue]
    (reading a job and creating or resuming its session) and
    [jobqueue.complete] (result file, renames, [db.txt] and [model.txt]
    writes). *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune

type job = {
  j_name : string;  (** filesystem-safe: [A-Za-z0-9._-]+, max 128 *)
  j_workload : string;  (** workload tag, resolved per target kind *)
  j_target : string;
  j_seed : int;
  j_trials : int;
  j_priority : int;
}

type state = Pending | Running | Done | Failed

val state_dir : state -> string

(** [parse_job ~name text] parses a job file body. Raises
    [Tir_core.Error.Error] with kind [Parse] on any malformed input. *)
val parse_job : name:string -> string -> job

val job_to_string : job -> string

(** Resolve the job's (target, workload): GPU targets take the tag's
    default shape, CPU targets substitute the int8 conv/gemm variants.
    [Parse] error for unknown names. *)
val resolve : name:string -> job -> Tir_sim.Target.t * W.t

(** Create the queue directory layout (idempotent). *)
val ensure_queue : string -> unit

(** Atomically drop a job into [pending/]; returns the job-file path.
    [Io] error if a job of that name exists in any state. *)
val submit : queue:string -> job -> string

(** All jobs and their current states, sorted by name. *)
val list_jobs : queue:string -> (string * state) list

val find_job : string -> string -> state option

(** Parsed [key=value] pairs of a completed job's result file
    ([status], [workload], [target], [seed], [trials], [trials_done],
    [gflops], and for [status=ok]: [latency_us] (hex float), [sketch],
    [trace]). *)
val read_result : queue:string -> name:string -> (string * string) list

(** Parsed [key=value] pairs of a failed job's diagnostic
    ([status=failed], [kind], [exit_code], [message]). *)
val read_error : queue:string -> name:string -> (string * string) list

val job_file : string -> state -> string -> string
val wal_file : string -> state -> string -> string
val result_file : string -> string -> string
val error_file : string -> string -> string
val db_file : string -> string

(** The shared cost-model store maintained next to {!db_file}. *)
val model_file : string -> string

type config = {
  queue : string;
  jobs : int option;
      (** pool size: [Some j] selects the process's pool of [j] domains
          ([Tir_parallel.Pool.global ~jobs:j]), [None] the one sized by
          [TIR_JOBS]. Either is created on first use and shared by every
          later [serve] call of the process; none is joined. *)
  drain : bool;  (** exit once pending and running are empty *)
  max_steps : int option;
      (** total session-step budget across all tenants — the
          deterministic kill point for crash testing *)
  metrics_out : string option;
      (** dump {!Tir_obs.Metrics.snapshot_json} here (atomic tmp+rename)
          on every scheduler event, after every scheduler run, and on
          every idle poll tick — the snapshot [tensorir top] reads *)
  trace_out : string option;
      (** enable {!Tir_obs.Trace} and snapshot the Chrome trace-event
          JSON here, same cadence and atomicity *)
  poll_interval_s : float;
      (** pending/ poll cadence when not draining — also the telemetry
          snapshot cadence while idle *)
}

(** Drain mode, the [TIR_JOBS] pool, no step budget, no metrics dump. *)
val default_config : string -> config

type outcome = {
  o_completed : int;
  o_failed : int;
  o_budget : bool;
      (** stopped on [max_steps]; committed work remains in [running/]
          and a later {!serve} resumes it *)
}

(** Run the server: adopt orphans from [running/], scan [pending/],
    interleave all jobs through a {!Scheduler} (priorities weight the
    round-robin), and publish results. Returns on [max_steps]
    exhaustion, or — in drain mode — when the queue is empty; otherwise
    polls [pending/] forever. *)
val serve : config -> outcome

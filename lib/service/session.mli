(** Crash-safe resumable tuning sessions (the service layer).

    A session wraps one tuning run ([Tir_autosched.Tune.run]) with a
    write-ahead checkpoint log: every generation's dedup keys, every
    measured candidate, and a per-generation commit marker are appended
    to a WAL file (percent-escaped line records, flushed per append — the
    same serialization discipline as the trace and database formats).
    A killed process {!resume}s from the last committed generation and,
    for a fixed seed, converges to the {e bit-identical} best schedule
    trace an uninterrupted run finds: generation randomness derives from
    [(seed, gen)] alone, measurements are pure functions of the program,
    and fault-injection decisions are keyed hashes — nothing depends on
    where the crash fell.

    Record grammar (fields percent-escaped, [|]-separated):
    {v
    meta|tag|workload|target|seed|trials|use_cost_model|evolve|model
    seen|gen|key...              (fresh dedup keys, slot order)
    measure|gen|sketch|base|latency|trace
    gen|gen|<cumulative stats>|best_us          (the commit marker)
    done|<cumulative stats>|best_us|has|sketch|base|latency|trace
    v}
    Records after the last [gen] marker belong to an uncommitted
    generation: {!resume} discards them (the generation re-runs
    bit-identically) and compacts the log atomically (write temporary,
    rename) so stale records never accumulate. A torn trailing line —
    crash mid-append, no final newline — is dropped without being
    parsed (counted in [wal.torn_tail]): a record cut inside a field or
    an escape could parse as a different one. That is safe, because a
    torn record belongs to an uncommitted generation, which re-runs
    bit-identically, or is the [done] record, which the next step
    appends again. Newline-terminated garbage, a malformed percent
    escape included, raises [Corrupt]. Floats are serialized in hex
    ([%h]) so every latency round-trips exactly.

    The [model] meta field is the escaped [Tir_autosched.Model.spec_to_string]
    of the session's cost-model spec — a [Warm] spec embeds the full
    warm-start snapshot, so resume never depends on a live model store
    file that may have moved on.

    Metrics: [session.resumes], [session.generations],
    [session.discarded], [session.compactions]; trace spans
    [session.run], [session.resume], [session.start]. *)

module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune

type t

(** Raised by {!run} when [halt_after] generations completed this run —
    the WAL is flushed and committed through generation [gen], and the
    process can exit; a later {!resume} continues the search. *)
exception Halted of { path : string; gen : int }

(** Start a fresh session logging to [path]. Fails with an [Io] error if
    a non-empty file is already there (resume it instead), unless
    [force] truncates it. [cfg.sketches] must be [None] — sketch
    overrides are not serializable. *)
val create : ?force:bool -> path:string -> Tune.Config.t -> W.t -> Tir_sim.Target.t -> t

(** Re-open a session from its WAL. The workload, target, seed, trial
    budget and search flags come from the [meta] record; [workload]
    must be passed explicitly for non-default shapes (the default
    reconstruction goes through [W.by_tag] and is verified against the
    stored name). [jobs]/[database] re-attach the non-serializable
    configuration. Discards uncommitted records and compacts the log
    atomically before reopening it for append.

    Raises [Tir_core.Error.Error] — [Corrupt] for a malformed or
    inconsistent log, [Io] for filesystem failures. *)
val resume :
  ?workload:W.t ->
  ?jobs:int ->
  ?database:Tir_autosched.Database.t ->
  path:string ->
  unit ->
  t

(** Run (or continue) the session's tuning search to completion, append
    the [done] record, and return the result. On an already-completed
    session the stored result is reconstructed from the log without any
    search. [halt_after] stops after that many generations committed
    {e in this run} by raising {!Halted}. *)
val run : ?halt_after:int -> t -> Tune.result

(** A session being driven one generation at a time — the scheduler's
    unit of preemption. *)
type stepper

type step_result = [ `Stepped of int | `Done of Tune.result ]

(** Attach a stepper to the session: builds the WAL checkpoint hooks and
    the underlying [Tune.driver]. [pool] runs the search's fan-outs on an
    externally owned (typically shared) pool; without it, [Config.jobs]
    applies as in [Tune.run]. On an already-completed session every
    {!step} returns the reconstructed stored result. *)
val start : ?pool:Tir_parallel.Pool.t -> t -> stepper

(** Advance one generation. [`Stepped gen]: generation [gen] is committed
    to the WAL (durable — the process can be killed and {!resume}d from
    here). [`Done r]: the search finished; the [done] record is appended
    and the writer closed. Idempotent past [`Done]. *)
val step : stepper -> step_result

(** Best latency seen so far (µs), live after every step; NaN until
    something has been measured. The scheduler reads this for the
    per-tenant [tenant.<name>.best_us] gauge and stall detection. *)
val best_us : stepper -> float

(** Cumulative model rank correlation ([Engine.rank_corr]) after the last
    step; 0.0 until two candidates measured this run. The scheduler reads
    this for the per-tenant [tenant.<name>.rank_corr] gauge. *)
val rank_corr : stepper -> float

(** Stop driving a stepper without completing it: closes the WAL writer
    (the log stays committed through the last [gen] marker) and joins any
    driver-owned private pool. Used on exception paths; {!resume} picks
    the session back up. *)
val abort : stepper -> unit

(** Session inspection without running anything. *)
type status = {
  workload : string;
  target : string;
  seed : int;
  trials_target : int;
  trials_done : int;
  generations : int;  (** committed generations *)
  completed : bool;
  best_us : float option;
}

val status : path:string -> status

(** Parse the log and atomically rewrite it with only committed records
    (what {!resume} does internally). *)
val compact : path:string -> unit

val path : t -> string

(** Close the WAL writer without completing the session. *)
val close : t -> unit

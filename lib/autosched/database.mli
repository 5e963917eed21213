(** Tuning-record database (paper §5.2): caching search records so "no
    search is needed to build a model for an operator already tuned".

    Records carry the full instruction trace of the winning schedule, so
    [replay] works from the trace alone — no sketch regeneration — and
    records stay portable across search-space versions. On-disk format v2
    is line-oriented with percent-escaped fields (names containing the
    field separator cannot inject fields); headerless v1 files
    ([target|workload|sketch|decisions|latency_us]) still load, yielding
    traceless records that replay through the sketch path. *)

type record = {
  target_name : string;
  workload_name : string;
  sketch_name : string;
  base : string;  (** [Sketch.base]: intrinsic name of the tensorization
                      candidate the schedule starts from, or [""] *)
  decisions : Space.decisions;
  latency_us : float;
  trace : Tir_sched.Trace.t option;
      (** [None] only for records loaded from v1 files *)
}

type t

val create : unit -> t

(** Best record for a (target, workload), if any. *)
val find : t -> target_name:string -> workload_name:string -> record option

val add : t -> record -> unit
val size : t -> int

(** Bring the file at [path] up to date with [t] in the v2 format (with
    version header). When the file holds exactly the v2 rendering of
    [t]'s first records — [t] was loaded from [path] or last saved to
    it — the records added since are appended, and nothing is written
    when there are none. Otherwise (another path, or a file that is
    missing, torn, v1 or spelled differently) the whole database is
    written atomically ([Tir_core.File.write_atomic]): a crash or a
    failed write mid-save leaves the previous file intact. Either way
    the file ends byte-identical to a full rewrite, since records are
    only ever added, in order. A failed write raises
    [Tir_core.Error.Error] with kind [Io]; after a failed append the
    next save rewrites the file whole. Under fault injection (site
    [Db_write] of [Tir_core.Fault]) each record written retries
    injected failures, all decided before an append writes anything;
    exhaustion raises [Tir_core.Error.Error] with kind [Fault]. Only
    the records a save writes are exposed, so a save with nothing to
    append cannot fail. *)
val save : t -> string -> unit

(** Load from disk; a missing file yields an empty database. Reads v2
    (version header present) and v1 (headerless) files. An unterminated
    final line (crash mid-append) is dropped without being parsed and
    counted ([db.torn_dropped]); newline-terminated garbage still raises
    — that is corruption, not a torn write. A file that cannot be read
    raises [Tir_core.Error.Error] with kind [Io]. *)
val load : string -> t

(** [load] through the unified error surface: [Io] when the filesystem
    refuses, [Corrupt] when a complete line violates the format. *)
val load_result : string -> (t, Tir_core.Error.t) result

(** {2 Line codec}

    The v2 serialization discipline, shared with the session WAL and the
    job queue's files: every field percent-escapes ['%'], ['|'],
    newlines, [','] and ['='] ({!Tir_core.Percent}). *)

val field_chars : Tir_core.Percent.reserved

(** One v2 record line (no trailing newline). *)
val record_to_line : record -> string

(** Parse one v2 record line; raises [Failure] (or
    [Tir_sched.Trace.Parse_error] for a bad trace field) on malformed
    input. *)
val record_of_line_v2 : string -> record

(** The function a record's trace was applied to: the workload's func for
    scalar sketches, or the tensorization candidate's canonical program
    for [base = <intrinsic name>]. [None] if the intrinsic is unknown or
    yields no candidate — the session resume path and [replay] both
    rebuild programs through this. *)
val base_func : Tir_workloads.Workloads.t -> string -> Tir_ir.Primfunc.t option

(** Record the best result of a tuning run, trace included. *)
val commit :
  t -> Tir_sim.Target.t -> Tir_workloads.Workloads.t -> Evolutionary.measured -> unit

(** Replay a stored record: trace-first (rebuild the start function from
    the workload and the record's [base], re-apply every instruction,
    re-validate, measure once), falling back to re-applying the recorded
    decisions through [sketches] for traceless v1 records. [None] if
    neither path yields a valid, measurable schedule. Registry counters:
    [db.found] counts attempts, [db.replayed] the ones that succeeded from
    the trace alone. *)
val replay :
  Tir_sim.Target.t ->
  workload:Tir_workloads.Workloads.t ->
  sketches:Sketch.t list ->
  record ->
  Evolutionary.measured option

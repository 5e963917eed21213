(** Line-oriented write-ahead log file: the durability primitive under
    [Session].

    A WAL is a plain text file of newline-terminated records. Appends are
    flushed per record, so after a crash the file holds every record that
    was ever acknowledged plus at most one torn (newline-less) tail, which
    {!read} hands back separately ([Tir_core.File.read_lines]); the
    session layer drops it unparsed.
    {!rewrite} replaces the whole file atomically (write to a temporary,
    then rename), which is how snapshots/compaction discard stale records
    without a window where the log is missing or half-written.

    Appends run under the fault-injection harness (site [Db_write] of
    [Tir_core.Fault]), keyed by the record's absolute line index — a pure
    function of the log's content, so injected WAL failures reproduce
    across resumed processes. Injected failures are retried
    ([Tir_parallel.Retry]); exhaustion raises [Tir_core.Error.Error] with
    kind [Fault] {e before} anything is written (a failed append never
    tears the file).

    Metrics: [wal.appends], [wal.rewrites], [wal.torn_tail]. *)

type writer

(** Open [path] for appending. [start_index] is the number of records
    already in the file — the fault key of the next append. *)
val open_append : path:string -> start_index:int -> writer

(** Append one record ([line] must not contain newlines), flushed before
    returning. *)
val append : writer -> string -> unit

(** Absolute index of the next record to be appended. *)
val index : writer -> int

val close : writer -> unit

(** [read ~path] returns [(records, torn_tail)]: every complete
    (newline-terminated) record in order, plus the trailing newline-less
    fragment left by a crash mid-append, if any ([None] for a cleanly
    terminated file). A missing file reads as [([], None)]. *)
val read : path:string -> string list * string option

(** Atomically replace the log with exactly [records]
    ([Tir_core.File.write_atomic]). *)
val rewrite : path:string -> string list -> unit

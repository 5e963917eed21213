(** Whole-file reads and atomic publishes: the one path by which the
    durable artifacts (tuning database, cost-model store, WAL
    compaction, job-queue files) reach the filesystem. Failures of the
    filesystem surface as [Error.Io] with the path as context. *)

(** The whole file. Raises [Error.Error] with kind [Io] when it cannot
    be read. *)
val read : string -> string

(** [write_atomic path write] runs [write] on a fresh [path ^ ".tmp"],
    closes it (so a failed final flush is seen) and renames it over
    [path]: a reader sees the old file or the whole new one, never a torn
    one. When any step fails, the temporary is removed, [path] keeps its
    old contents and the failure propagates — a [Sys_error] as [Io],
    anything [write] raises as itself. *)
val write_atomic : string -> (out_channel -> unit) -> unit

(** Whole-file reads and atomic publishes: the one path by which the
    durable artifacts (tuning database, cost-model store, WAL
    compaction, job-queue files) reach the filesystem. Failures of the
    filesystem surface as [Error.Io] with the path as context. *)

(** The whole file. Raises [Error.Error] with kind [Io] when it cannot
    be read. *)
val read : string -> string

(** [read_lines path] reads a line-oriented file that is written by
    appends: every complete (newline-terminated) line in order, without
    its newline, plus the unterminated fragment after the last newline
    that a crash mid-append leaves, if any ([None] for an empty or
    cleanly terminated file). Raises like {!read}. *)
val read_lines : string -> string list * string option

(** [write_atomic path write] runs [write] on a fresh [path ^ ".tmp"],
    closes it (so a failed final flush is seen) and renames it over
    [path]: a reader sees the old file or the whole new one, never a torn
    one. When any step fails, the temporary is removed, [path] keeps its
    old contents and the failure propagates — a [Sys_error] as [Io],
    anything [write] raises as itself. *)
val write_atomic : string -> (out_channel -> unit) -> unit

(** [append path ~size write] runs [write] on [path] opened for
    appending when the file exists and is [size] bytes long — the length
    the caller last left it at — and returns [true]; otherwise it writes
    nothing and returns [false], so the caller rewrites the file whole
    (with {!write_atomic}) instead of appending to a file it no longer
    knows. A [Sys_error] while writing surfaces as [Io]; unlike
    {!write_atomic}, such a failure can leave a torn final line, which
    {!read_lines} hands back as the fragment. *)
val append : string -> size:int -> (out_channel -> unit) -> bool

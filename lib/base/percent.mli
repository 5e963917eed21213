(** Percent escaping for the line-oriented text formats (trace database,
    session WAL, job and result files, model store).

    Each format declares the characters that carry structure in it (field
    and record separators); {!escape} writes those, and ['%'] itself, as
    [%XX] with upper-case hex, and copies every other byte. {!unescape}
    decodes any [%XX] (either hex case), so one decoder serves every
    format. *)

(** A format's reserved byte set. *)
type reserved

(** [reserved chars]: the bytes of [chars] plus ['%']. *)
val reserved : string -> reserved

(** Returns its argument unchanged (no copy) when nothing needs
    escaping. *)
val escape : reserved -> string -> string

(** Inverse of [escape] for any reserved set. Raises [Failure] on a
    truncated or non-hex escape. *)
val unescape : string -> string

(** [decode ?context kind s] is [unescape s] for a format whose
    malformed text is a classified error: a truncated or non-hex escape
    raises [Error.Error] of [kind] (a job file's [Parse], a WAL's
    [Corrupt]) with [context] (the file) instead of [Failure]. *)
val decode : ?context:string -> Error.kind -> string -> string

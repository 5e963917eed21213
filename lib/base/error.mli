(** The unified error surface.

    Every load/parse path in the system reports failures through one typed
    error value instead of ad-hoc exceptions: [kind] classifies the
    failure, [context] names the artifact (a file path, a database key, a
    fault site), [message] carries the detail. [result]-returning API
    variants ([Database.load_result], [Trace.of_string_result]) return
    [Error.t] directly; exception-based paths raise {!Error} carrying the
    same value, and the CLI maps each [kind] to a distinct process exit
    code ({!exit_code}). *)

type kind =
  | Parse  (** malformed input text (scripts, schedule traces, trace files) *)
  | Io  (** the operating system refused (missing file, permissions) *)
  | Corrupt  (** a stored artifact violates its own format (database /
                 WAL structure, failed integrity checks) *)
  | Fault  (** an injected or unrecoverable fault exhausted its retries *)

type t = {
  kind : kind;
  context : string option;  (** artifact: file path, key, site *)
  message : string;
}

exception Error of t

val make : ?context:string -> kind -> string -> t

(** [raise_error ?context kind message] raises {!Error}. *)
val raise_error : ?context:string -> kind -> string -> 'a

(** Printf-style constructor: [errorf ?context kind fmt ...]. *)
val errorf : ?context:string -> kind -> ('a, unit, string, t) format4 -> 'a

val kind_name : kind -> string

(** Distinct CLI exit code per kind: Parse 3, Io 4, Corrupt 5, Fault 7
    (0 = success, 1 = findings, 2 = usage). *)
val exit_code : kind -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Run [f], catching [Sys_error]/[End_of_file] as [Io] and {!Error} as
    itself — the standard wrapper for [_result] load paths. *)
val guard : ?context:string -> (unit -> 'a) -> ('a, t) result

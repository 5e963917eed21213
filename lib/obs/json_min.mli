(** Minimal stdlib-only JSON codec shared by every JSON writer (trace
    export, metrics snapshots, bench results, [lint --json]), the
    validators and the tests. {!parse} raises {!Invalid} on malformed
    input, and {!num} on non-finite numbers (our writers emit
    NaN/infinity as [null], which validation rejects). *)

(** The body of a JSON string literal for [s] (no surrounding quotes):
    ['"'] and ['\\'] are backslash-escaped, newline, tab and carriage
    return get their short escapes, and every other byte below 0x20 is
    written as [\u00XX]. Other bytes pass through. *)
val escape : string -> string

(** A JSON number for [f] with 17 significant digits, so it reads back as
    the same double; [null] when [f] is NaN or infinite. *)
val number : float -> string

exception Invalid of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Invalid} with a formatted message. *)

type v =
  | Obj of (string * v) list
  | Arr of v list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

val parse : string -> v
val parse_file : string -> v

(** Typed accessors; [what] names the location for error messages. *)

val obj : string -> v -> (string * v) list
val arr : string -> v -> v list
val field : string -> (string * v) list -> string -> v
val str : string -> v -> string
val num : string -> v -> float
val int_ : string -> v -> int
val nonneg_int : string -> v -> int
val ratio : string -> v -> float

(** Causal tracing: wide structured events carrying a propagated context
    (tenant / job / session / generation / candidate), with monotone
    timestamps, per-domain sharded buffers, and deterministic
    aggregation. This is the one event recorder: phase spans, the
    search's per-generation [gen.commit] record, and counter samples all
    land here, and [tensorir report] reads the Chrome export back.

    Determinism contract: an event's {e identity} is its kind, name,
    context, args, and counter value. Timestamps, durations, self-times,
    the recording domain (track) and the enclosing span stack are time-
    and placement-derived and excluded — a deterministic workload records
    a bit-identical multiset of identities at any [TIR_JOBS].
    Recording is disabled by default; every site is one atomic load when
    off. *)

type ctx = {
  tenant : string option;
  job : string option;
  session : string option;
  generation : int option;
  candidate : string option;
}

val empty_ctx : ctx

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Cap on total recorded events (default one million); past it events
    are counted in [trace.dropped] instead of buffered. *)
val set_capacity : int -> unit

(** [with_ctx ?tenant ... f] runs [f] with the given fields merged over
    the ambient context (dynamically scoped, per domain). *)
val with_ctx :
  ?tenant:string ->
  ?job:string ->
  ?session:string ->
  ?generation:int ->
  ?candidate:string ->
  (unit -> 'a) ->
  'a

(** The ambient context, and running under an exact context — used by
    the pool to propagate the submitter's context into worker domains. *)
val ambient : unit -> ctx

val with_ambient : ctx -> (unit -> 'a) -> 'a

(** [with_span name f] records a complete-span event around [f]
    (duration and self-time measured; exceptions propagate, the span is
    still recorded). [instant] records a point event, [counter] a
    counter sample (non-finite values are dropped; the Chrome export
    keeps a counter's [args] beside its context). [args] become part of
    the event identity — only pass deterministic values. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

val instant : ?args:(string * string) list -> string -> unit
val counter : ?args:(string * string) list -> string -> float -> unit

val reset : unit -> unit

type kind = Span | Instant | Counter

type event = {
  e_kind : kind;
  e_name : string;
  e_ctx : ctx;
  e_args : (string * string) list;
  e_value : float;
  e_ts_us : float;
  e_dur_us : float;
  e_self_us : float;
  e_track : int;
  e_stack : string list;
}

(** All recorded events in a stable total order: timestamp, then
    identity. *)
val events : unit -> event list

(** The deterministic view: sorted multiset of event identities. *)
val identities : unit -> string list

type counts = { spans : int; instants : int; counters : int; dropped : int }

val counts : unit -> counts

(** Chrome trace-event JSON (open in Perfetto or [chrome://tracing]):
    pool domains as named tracks, spans as "X" complete events, instants
    as "i", counters as "C" counter tracks; timestamps normalized to the
    trace start. *)
val export_chrome : unit -> string

(** Validate an exported Chrome trace string: well-formed JSON, known
    phases, finite non-negative sorted timestamps, and tenant/job
    context on every non-metadata event. Returns the event count. *)
val validate_chrome : string -> (int, string) result

(** Flamegraph collapsed-stacks dump: one ["outer;inner self_us"] line
    per distinct span stack, sorted. [parse_collapsed] inverts it
    (raises [Failure] on a malformed line). *)
val export_collapsed : unit -> string

val parse_collapsed : string -> (string * int) list

(** Process-wide metrics registry: named counters, gauges, and fixed
    log-scale histograms.

    Thread-safe without lock contention on the write side: counters and
    histogram buckets shard per domain and aggregate on read. Counters and
    histogram counts are integers, so their aggregation is
    order-independent — deterministic workloads record bit-identical values
    at any [TIR_JOBS]. Gauges are last-write-wins floats, deterministic
    only when written from sequential code. *)

type counter
type gauge
type histogram

(** Raised when a name is reused with a different metric kind. *)
exception Kind_mismatch of string

(** Find-or-create. Cheap enough for call sites to look handles up once
    and keep them. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** [histogram ?buckets name] — [buckets] are the upper bounds of the
    fixed log-scale buckets (default powers of two, 1 .. 2^39); an
    implicit +infinity overflow bucket is appended. Bounds are only
    consulted when the histogram is first created. *)
val histogram : ?buckets:float array -> string -> histogram

val observe : histogram -> float -> unit

type hist_snapshot = {
  le : float array;  (** bucket upper bounds (no overflow entry) *)
  counts : int array;  (** per-bucket counts; last entry is the overflow *)
  total : int;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

(** Aggregate every registered metric (sorted by name per kind). *)
val snapshot : unit -> snapshot

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> float option

(** Zero every metric; registrations (and held handles) stay valid. *)
val reset : unit -> unit

(** Render a snapshot as one JSON object:
    [{"counters":{..},"gauges":{..},"histograms":{..}}], maps sorted by
    name, non-finite gauges as [null] — the scrape payload behind
    [tensorir serve --metrics-out]. *)
val snapshot_json : snapshot -> string

(** Inverse of {!snapshot_json}: [snapshot_json (snapshot_of_json j) = j]
    for every [j] it wrote. A [null] gauge reads back as NaN. Raises
    [Json_min.Invalid] on anything else. *)
val snapshot_of_json : string -> snapshot

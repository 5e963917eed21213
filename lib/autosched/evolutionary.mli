(** Evolutionary search over program sketches (paper §4.4): mutate and
    cross the elite decision vectors, filter by applicability and the §3.3
    validator, rank with the learned cost model, measure the top batch.

    The loop itself is {!Engine} (an explicit [step]-per-generation state
    machine); this module re-exports its types under their historical
    names. *)

open Tir_ir

type measured = Engine.measured = {
  sketch_name : string;
  base : string;  (** [Sketch.base] — start-function recipe for replay *)
  decisions : Space.decisions;
      (** extracted from [trace] ([Trace.decisions]) — kept as a field for
          cache keys and reporting *)
  trace : Tir_sched.Trace.t;
      (** full instruction trace of the winning schedule; serialized into
          database records so they replay without sketch regeneration *)
  func : Primfunc.t;
  latency_us : float;
}

type stats = Engine.stats = {
  mutable trials : int;  (** programs measured *)
  mutable proposed : int;  (** programs proposed *)
  mutable invalid : int;  (** rejected by validation *)
  mutable unsound : int;  (** rejected by the semantic analyzer *)
  mutable inapplicable : int;  (** rejected by the sketch *)
  mutable unmeasurable : int;
      (** dropped after measurement faults exhausted their retries or the
          per-candidate budget expired *)
  mutable best_curve : (int * float) list;  (** (trial, best latency) *)
  mutable profiling_us : float;  (** simulated measurement time *)
  mutable cache_hits : int;  (** evaluation/measurement memo hits *)
  mutable cache_lookups : int;  (** evaluation/measurement memo probes *)
}

val new_stats : unit -> stats

(** [cache_hits / cache_lookups] (0 when nothing was probed). *)
val cache_hit_rate : stats -> float

type result = Engine.result = { best : measured option; stats : stats }

(** Write-ahead checkpoint hooks, called synchronously from the search's
    sequential reduces (never from pool domains): [on_seen] receives the
    fresh dedup keys of each generation in slot order, [on_measured] each
    measured candidate in measurement order, and [on_generation] — the
    commit marker — the cumulative stats once a generation completes. *)
type checkpoint = Engine.checkpoint = {
  on_seen : gen:int -> string list -> unit;
  on_measured : gen:int -> measured -> unit;
  on_generation : gen:int -> stats -> best_us:float -> unit;
}

(** State rebuilt from a checkpoint log: re-enters the search at
    generation [r_gen] with the dedup set, the measured history (original
    order) and the committed counter snapshot ([r_stats.best_curve] is
    ignored — the curve is rebuilt from [r_measured]). *)
type resume = Engine.resume = {
  r_gen : int;
  r_seen : string list;
  r_measured : measured list;
  r_stats : stats;
}

(** Fixed per-measurement overhead (compilation, transfer). *)
val measurement_overhead_us : float

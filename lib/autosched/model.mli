(** The learned cost model (paper §4.4): a rank-trained GBDT, plus a
    versioned on-disk store for cross-workload warm starts.

    The search only consumes the order a model induces over a population,
    so the GBDT trains on a pairwise rank loss with labels normalized per
    group (one group per tuning task): a sample's label is
    [best_group_latency / latency], relative throughput against the best
    program of its own task. Workloads with incomparable latency scales
    can therefore share one dataset — the transfer-learning foundation of
    the warm-start path. *)

type stats = {
  samples : int;  (** measurement samples accumulated *)
  groups : int;  (** distinct tuning tasks contributing samples *)
  trained : bool;  (** an ensemble has been fitted *)
}

exception Parse_error of string

(** The model: per-group throughput labels, signed log1p feature
    squashing, [Gbdt.fit_rank] pairwise training. A group's sample count
    is capped (512); deterministic first-come retention. *)
type t

(** A fresh, untrained model. *)
val gbdt : unit -> t

(** Record one measurement under [group] (labels are only compared
    within a group). *)
val add : t -> group:string -> features:float array -> latency_us:float -> unit

(** The explicit fit: refit the ensemble on every sample, whether or
    not any were added since the last fit. The readers need no call to
    it: [score], [score_batch], and [save] of a model that holds an
    ensemble fit first when samples were added since the last fit (a
    [model.retrain] span), and {!Store.load} fits once. Adds refused at
    the group cap change nothing, so they never cause a fit. *)
val retrain : t -> unit

(** Rank a feature vector (higher = predicted faster), after fitting the
    samples added since the last fit. A model with no samples scores by
    an analytic prior that prefers tensorized, high-occupancy programs. *)
val score : t -> float array -> float

(** Same values as mapping [score]; one fit check, one ensemble pass. *)
val score_batch : t -> float array array -> float array

(** Visit every sample in insertion order (the store's merge path). *)
val iter_samples :
  t -> (group:string -> features:float array -> latency_us:float -> unit) -> unit

(** Serialized snapshot (versioned, percent-escaped text; [%h] floats):
    the full sample set plus the fitted ensemble, if any. A model that
    holds an ensemble fits the samples added since its last fit first; a
    model without one (a store merge) saves its samples only, without
    fitting. [save -> load -> save] is bit-identical, and a loaded model
    can keep training. *)
val save : t -> string

(** Inverse of [save]; a loaded ensemble counts as the fit of the loaded
    samples. Raises {!Parse_error} on malformed input. *)
val load : string -> t

val stats : t -> stats

(** How a tuning config (or a WAL meta record) names its model: a fresh
    GBDT, or a warm start from a serialized snapshot. [Warm] embeds
    the full snapshot text — the session WAL records it verbatim, which is
    what keeps kill+resume bit-identical while the live store file keeps
    absorbing other runs. *)
type spec = Gbdt | Warm of string

val of_spec : spec -> t

(** One-line round-trip for WAL meta records ([Warm] embeds the snapshot;
    the WAL layer escapes it). [spec_of_string] raises {!Parse_error} on
    unknown input. *)
val spec_to_string : spec -> string

val spec_of_string : string -> spec

(** The persisted model store: one sample file maintained alongside a
    trace database. [absorb] merges a finished run's samples into the
    store and atomically republishes it (tmp + rename) without
    training; [load] fits the stored samples once. This is the
    cross-workload transfer loop of [tensorir serve]. The ensemble is a
    function of the ordered samples alone, so a loaded store is the
    model an eager refit after every absorb would have produced. *)
module Store : sig
  (** Parse the store and fit it once. [None] when the file does not
      exist or does not parse (a corrupt store degrades to a cold start,
      never a crash). A file that cannot be read raises
      [Tir_core.Error.Error] with kind [Io]. *)
  val load : string -> t option

  (** Publish atomically ([Tir_core.File.write_atomic]): a failed write
      raises [Tir_core.Error.Error] with kind [Io] and leaves the old
      file in place. *)
  val save : path:string -> t -> unit

  (** Merge [model]'s samples into the samples stored at [path] and save
      the result, untrained, so the file holds samples only; returns
      that untrained merged model. Exact-duplicate samples are dropped,
      so absorbing a model that was itself warm-started from this store
      never double-counts the store's own history. *)
  val absorb : path:string -> t -> t
end

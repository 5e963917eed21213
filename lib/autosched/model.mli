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

(** Refit the ensemble on every sample. *)
val retrain : t -> unit

(** Rank a feature vector (higher = predicted faster). Before the first
    [retrain] this is an analytic prior that prefers tensorized,
    high-occupancy programs. *)
val score : t -> float array -> float

(** Same values as mapping [score]; one ensemble pass. *)
val score_batch : t -> float array array -> float array

(** Visit every sample in insertion order (the store's merge path). *)
val iter_samples :
  t -> (group:string -> features:float array -> latency_us:float -> unit) -> unit

(** Serialized snapshot (versioned, percent-escaped text; [%h] floats):
    the full sample set plus the fitted ensemble, if any.
    [save -> load -> save] is bit-identical, and a loaded model can keep
    training. *)
val save : t -> string

(** Inverse of [save]. Raises {!Parse_error} on malformed input. *)
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
      never a crash). *)
  val load : string -> t option

  val save : path:string -> t -> unit

  (** Merge [model]'s samples into the samples stored at [path] and save
      the result, untrained, so the file holds samples only; returns
      that untrained merged model. Exact-duplicate samples are dropped,
      so absorbing a model that was itself warm-started from this store
      never double-counts the store's own history. *)
  val absorb : path:string -> t -> t
end

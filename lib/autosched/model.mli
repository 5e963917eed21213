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

(** The readers' fit, ahead of the read: fit now, in a [model.retrain]
    span, when samples were added since the last fit; otherwise
    nothing. The ensemble is a function of the ordered samples, so the
    next read scores exactly as if it had fitted itself. The engine
    calls it while the pool prepares a generation. *)
val refresh : t -> unit

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
    trace database. Completions append the samples they add ({!add}),
    so the file only grows; it stays byte-identical to an untrained
    [save] of every sample merged so far, the file the old
    read-merge-rewrite per completion left. [load] fits the stored
    samples once. This is the cross-workload transfer loop of
    [tensorir serve]. The ensemble is a function of the ordered samples
    alone, so a loaded store is the model an eager refit after every
    merge would have produced.

    Every reader drops an unterminated final line (a crash
    mid-append) without parsing it, counting it in [db.torn_dropped]. *)
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

  (** A store opened for merging: its samples, their exact-dedup keys
      and whether the file is exactly what an untrained [save] of them
      writes, all from one read. *)
  type handle

  (** Read the store at [path] once. A missing or unparseable file
      opens empty (and is rewritten by the first {!add}). Raises like
      {!load}. *)
  val open_ : string -> handle

  (** The samples read (and added) so far, fitted once: the warm-start
      model {!load} gives for the same file. [None] when the file was
      missing or did not parse. *)
  val fit : handle -> t option

  (** Merge [model]'s samples: keep each one not seen before (exact
      duplicates are dropped, so a model warm-started from this store
      never double-counts the store's history) and not refused at the
      group cap, and append the kept ones' lines to the file. A file
      this code did not write (another spelling, an ensemble line, a
      torn or missing file, samples past the cap) is instead rewritten
      whole, atomically, once — also when nothing new was kept. A
      failed write raises [Tir_core.Error.Error] with kind [Io]; the
      next [add] rewrites the file. *)
  val add : handle -> t -> unit

  (** [open_], then [add]: returns the untrained merged model, which
      the file now holds. *)
  val absorb : path:string -> t -> t
end

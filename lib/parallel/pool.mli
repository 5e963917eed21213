(** Fixed-size Domain pool with chunked, order-preserving parallel
    combinators.

    OCaml 5 multicore primitives only, plus the in-tree [Tir_obs]
    observability layer (itself stdlib + unix). Output order is always the
    input order, and exception propagation is deterministic (the
    lowest-index failure is the one re-raised), so callers get bit-identical
    behaviour at any job count.

    Every [parallel_iteri] — on any code path, including the jobs=1 and
    nested sequential fallbacks — bumps the [pool.regions]/[pool.tasks]
    counters and the [pool.region_size] histogram, so those metrics are
    job-count independent; the [pool.busy_frac] and [pool.queue_depth]
    gauges are time-derived and are not. *)

type t

(** [create ?jobs ()] spawns [jobs - 1] worker domains (the caller's domain
    participates in every region). [jobs] defaults to [TIR_JOBS] from the
    environment, falling back to [Domain.recommended_domain_count ()];
    values are clamped to [1, 64]. [jobs = 1] runs everything sequentially
    in the caller with no domains spawned. *)
val create : ?jobs:int -> unit -> t

(** Worker count (including the caller's domain). *)
val jobs : t -> int

(** Resolved default job count ([TIR_JOBS] or the hardware's). *)
val default_jobs : unit -> int

(** Wall-clock-weighted busy fraction: busy domain-seconds (task execution
    time sampled inside the claim loops, sequential fallbacks included)
    over total domain-seconds (Σ jobs × elapsed lifetime of every pool
    ever created, [create] to [shutdown] or now). Domains idling between
    fan-outs count as unused capacity, so one offline tune reads low and a
    saturated multi-tenant scheduler reads near 1.0. [0.0] before the
    first pool. Mirrors the [pool.busy_frac] gauge (refreshed as each
    region drains). *)
val busy_frac : unit -> float

(** Callers currently queued on (or holding) a pool's region lock — the
    scheduler's backlog signal. Mirrors the [pool.queue_depth] gauge. *)
val queue_depth : unit -> int

(** The process-wide shared pool, created on first use and sized by
    [TIR_JOBS]. *)
val global : unit -> t

(** Join the worker domains. The pool must not be used afterwards. The
    global pool never needs this. *)
val shutdown : t -> unit

(** [parallel_iteri t n f] runs [f i] for [0 <= i < n] across the pool in
    dynamically claimed chunks. If any [f i] raises, the exception of the
    smallest failing index is re-raised in the caller after the region
    drains.

    Safe under concurrency: the pool runs one region at a time, so
    concurrent callers (e.g. two searches sharing [global ()]) queue up
    rather than corrupting each other's region, and a nested call from
    inside [f] degrades to a plain sequential loop instead of
    deadlocking. *)
val parallel_iteri : t -> int -> (int -> unit) -> unit

(** Order-preserving parallel map over an array. *)
val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array

(** Order-preserving parallel map over a list. *)
val parallel_map_list : t -> ('a -> 'b) -> 'a list -> 'b list

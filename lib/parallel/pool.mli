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

(** [global ?jobs ()] is the process's pool of [jobs] domains (default:
    [TIR_JOBS], as {!create}; clamped the same way), created on first
    use and never joined — its workers idle between regions, so callers
    that come and go (each [Jobqueue.serve] call) share one set of
    domains instead of spawning and joining their own. *)
val global : ?jobs:int -> unit -> t

(** Join the worker domains. The pool must not be used afterwards. A
    {!global} pool must never be shut down. *)
val shutdown : t -> unit

(** [parallel_iteri t n f] runs [f i] for [0 <= i < n] across the pool in
    dynamically claimed chunks. If any [f i] raises, the exception of the
    smallest failing index is re-raised in the caller after the region
    drains.

    [alongside] is work for the calling domain that reads nothing the
    tasks write: it runs exactly once, on the caller, after the region
    is published (so the workers start on the tasks at once) and before
    the caller joins them — at [jobs = 1], and on the other sequential
    paths, it simply runs first. An empty region ([n <= 0]) runs
    nothing, [alongside] included. It is not a task: the [pool.*]
    counters, the region-size histogram and the busy time do not count
    it. Its exception is re-raised after the region drains, in
    preference to a task's.

    Safe under concurrency: the pool runs one region at a time, so
    concurrent callers (e.g. two searches sharing [global ()]) queue up
    rather than corrupting each other's region, and a nested call from
    inside [f] or [alongside] degrades to a plain sequential loop
    instead of deadlocking. *)
val parallel_iteri : ?alongside:(unit -> unit) -> t -> int -> (int -> unit) -> unit

(** Order-preserving parallel map over an array. *)
val parallel_map : ?alongside:(unit -> unit) -> t -> ('a -> 'b) -> 'a array -> 'b array

(** Order-preserving parallel map over a list. *)
val parallel_map_list :
  ?alongside:(unit -> unit) -> t -> ('a -> 'b) -> 'a list -> 'b list

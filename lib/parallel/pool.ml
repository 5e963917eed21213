(** Fixed-size Domain pool with chunked parallel iteration.

    OCaml 5 multicore primitives only (Domain/Atomic/Mutex/Condition) — no
    external dependencies. A pool owns [jobs - 1] worker domains that sleep
    on a condition variable between parallel regions; the caller's domain
    participates in every region, so [jobs = 1] degenerates to a plain
    sequential loop with no domain traffic at all.

    Work inside a region is distributed dynamically: workers repeatedly
    claim chunks of indices from a shared atomic cursor, so uneven
    per-element cost (e.g. sketches whose validation fails early vs. full
    simulator runs) load-balances without any up-front partitioning.
    Results land in a pre-allocated slot per index, which makes every
    combinator *deterministic in its output order* regardless of the
    execution interleaving — the property the auto-scheduler relies on for
    bit-identical tuning results at any [TIR_JOBS]. *)

type region = {
  run : int -> unit;  (** claim-and-execute loop, shared by all workers *)
  seq : int;  (** region sequence number (wake-up edge detection) *)
}

(* One entry per pool ever created: the basis of the wall-clock-weighted
   [pool.busy_frac] denominator. A pool's capacity accrues from [create]
   to [shutdown] (or "now" while it lives) — so domains idling between
   fan-outs are charged as capacity, which is exactly the utilization gap
   a multi-tenant scheduler exists to close. *)
type lifetime = {
  l_jobs : int;
  l_start : float;
  mutable l_stop : float option;
}

type t = {
  jobs : int;
  lifetime : lifetime;
  submit : Mutex.t;
      (** serializes regions: held by the orchestrating domain for the whole
          region, so concurrent [parallel_iteri] callers (e.g. two searches
          sharing the global pool) queue up instead of clobbering
          [region]/[finished] *)
  mutex : Mutex.t;
  wake : Condition.t;  (** caller -> workers: a new region is available *)
  done_ : Condition.t;  (** workers -> caller: a worker finished a region *)
  mutable region : region option;
  mutable next_seq : int;  (** monotonic region counter (never reused) *)
  mutable finished : int;  (** workers done with the current region *)
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
  submitted : int Atomic.t;
      (** logical region counter, bumped on every [parallel_iteri] call on
          any code path (including the jobs=1 and nested sequential
          fallbacks) — the basis of job-count-independent fault-injection
          keys *)
}

let max_jobs = 64

(* Clamp to a sane range: at least 1, at most [max_jobs] (the pool is for
   coarse candidate-level parallelism; hundreds of domains only add GC
   pressure). *)
let clamp_jobs n = max 1 (min max_jobs n)

let default_jobs () =
  match Sys.getenv_opt "TIR_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> clamp_jobs n
      | None -> clamp_jobs (Domain.recommended_domain_count ()))
  | None -> clamp_jobs (Domain.recommended_domain_count ())

let jobs t = t.jobs

let worker t =
  let last_seq = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    let rec wait () =
      if t.shutdown then None
      else
        match t.region with
        | Some r when r.seq <> !last_seq ->
            last_seq := r.seq;
            Some r
        | _ ->
            Condition.wait t.wake t.mutex;
            wait ()
    in
    let r = wait () in
    Mutex.unlock t.mutex;
    match r with
    | None -> ()
    | Some r ->
        (* [run] never raises: exceptions are captured per index. *)
        r.run r.seq;
        Mutex.lock t.mutex;
        t.finished <- t.finished + 1;
        Condition.broadcast t.done_;
        Mutex.unlock t.mutex;
        loop ()
  in
  loop ()

let lifetimes : lifetime list ref = ref []
let lifetimes_mu = Mutex.create ()

let create ?jobs () =
  let jobs = match jobs with Some n -> clamp_jobs n | None -> default_jobs () in
  let lifetime =
    { l_jobs = jobs; l_start = Tir_obs.Clock.now_us (); l_stop = None }
  in
  Mutex.lock lifetimes_mu;
  lifetimes := lifetime :: !lifetimes;
  Mutex.unlock lifetimes_mu;
  let t =
    {
      jobs;
      lifetime;
      submit = Mutex.create ();
      mutex = Mutex.create ();
      wake = Condition.create ();
      done_ = Condition.create ();
      region = None;
      next_seq = 1;
      finished = 0;
      shutdown = false;
      domains = [];
      submitted = Atomic.make 0;
    }
  in
  if jobs > 1 then
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  (* Freeze this pool's capacity contribution (idempotent), even for
     jobs=1 pools that never spawned a domain. *)
  Mutex.lock lifetimes_mu;
  if t.lifetime.l_stop = None then
    t.lifetime.l_stop <- Some (Tir_obs.Clock.now_us ());
  Mutex.unlock lifetimes_mu;
  if t.domains <> [] then begin
    Mutex.lock t.mutex;
    t.shutdown <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* The process-wide pool, sized by TIR_JOBS. Created on first use; worker
   domains live for the rest of the process (they are idle between tuning
   rounds and cost nothing but their stacks). *)
let global_pool : t option Atomic.t = Atomic.make None

let global () =
  match Atomic.get global_pool with
  | Some p -> p
  | None ->
      let p = create () in
      if Atomic.compare_and_set global_pool None (Some p) then p
      else begin
        (* Lost the race (two domains initializing concurrently): discard. *)
        shutdown p;
        Option.get (Atomic.get global_pool)
      end

let default_chunk n jobs =
  (* Small chunks load-balance; cap the chunk count at ~8 per worker. *)
  max 1 (n / (jobs * 8))

(* Set while the current domain is executing inside a region, so a nested
   [parallel_iteri] on any pool runs sequentially instead of deadlocking on
   [submit] (or, from a worker, stalling the region it is part of). *)
let in_region : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Observability. The counters and the region-size histogram fire on every
   code path of [parallel_iteri] — including the jobs=1 and nested
   sequential fallbacks — so their values depend only on the work
   submitted, never on the job count (the determinism contract).
   [pool.busy_frac] is a time-derived gauge and, like span durations, is
   exempt from that contract. *)
let m_regions = Tir_obs.Metrics.counter "pool.regions"
let m_tasks = Tir_obs.Metrics.counter "pool.tasks"
let m_region_size = Tir_obs.Metrics.histogram "pool.region_size"
let m_busy_frac = Tir_obs.Metrics.gauge "pool.busy_frac"
let m_queue_depth = Tir_obs.Metrics.gauge "pool.queue_depth"

(* Wall-clock-weighted utilization behind [pool.busy_frac]. Each task's
   execution time is sampled inside the claim loop and accumulates into
   [busy_us_total]; the denominator is the domain-seconds every pool has
   existed for (Σ jobs × lifetime from the registry above), NOT the sum
   of region wall times — so time the domains sit idle *between* regions
   counts as unused capacity. A single offline tune therefore reads low
   (one fan-out, long gaps), and a saturated multi-tenant scheduler reads
   close to 1.0; the old region-only denominator could not tell those
   apart. *)
let busy_us_total = Atomic.make 0

let capacity_us () =
  let now = Tir_obs.Clock.now_us () in
  Mutex.lock lifetimes_mu;
  let c =
    List.fold_left
      (fun acc l ->
        let stop = match l.l_stop with Some s -> s | None -> now in
        acc +. (float_of_int l.l_jobs *. Float.max 0.0 (stop -. l.l_start)))
      0.0 !lifetimes
  in
  Mutex.unlock lifetimes_mu;
  c

(** Busy domain-seconds over total domain-seconds, across every pool ever
    created (0 before the first pool). *)
let busy_frac () =
  let c = capacity_us () in
  if c <= 0.0 then 0.0 else float_of_int (Atomic.get busy_us_total) /. c

let busy_frac_sample ~busy_us =
  ignore (Atomic.fetch_and_add busy_us_total busy_us);
  Tir_obs.Metrics.set m_busy_frac (busy_frac ())

(* Callers blocked on (or holding) the submit mutex: the scheduler's
   backlog signal. Sampled into [pool.queue_depth] on every transition. *)
let queue_waiters = Atomic.make 0
let queue_depth () = Atomic.get queue_waiters

(** [parallel_iteri t n f] runs [f i] for [0 <= i < n] across the pool.
    Any exception from [f] is re-raised in the caller; when several
    indices fail, the one with the smallest index wins. Regions are
    serialized: concurrent callers queue, and a nested call from inside
    a running region degrades to a sequential loop. *)
let parallel_iteri t n (f : int -> unit) =
  if n <= 0 then ()
  else begin
  Tir_obs.Metrics.incr m_regions;
  Tir_obs.Metrics.add m_tasks n;
  Tir_obs.Metrics.observe m_region_size (float_of_int n);
  (* The logical region id is bumped on every code path (jobs=1, nested,
     parallel), so fault keys below depend only on the sequence of regions
     submitted — never on the job count. *)
  let region_id = Atomic.fetch_and_add t.submitted 1 in
  let task =
    if not (Tir_core.Fault.enabled Tir_core.Fault.Pool_task) then f
    else fun i ->
      (* Inject *before* running [f]: injected failures are absorbed by
         bounded retries and the task then runs exactly once, so pool
         faults perturb the metrics, never the results. *)
      ignore
        (Retry.absorb ~site:Tir_core.Fault.Pool_task
           ~key:(Printf.sprintf "r%d:%d" region_id i) ());
      f i
  in
  (* Capture the submitter's trace context here and install it in the
     execution loop: tasks that land on worker domains keep the
     submitting tenant/session/generation identity, and the event
     multiset matches the jobs=1 inline path exactly (the recording
     domain is a non-identity field). *)
  let trace_ctx = Tir_obs.Trace.ambient () in
  Tir_obs.Trace.instant "pool.region" ~args:[ ("tasks", string_of_int n) ];
  (* Per-task busy sampling for the cumulative [pool.busy_frac] gauge:
     time each task inside the execution loop (both code paths share
     [timed]), then fold the region's busy/capacity pair into the
     process-lifetime totals when the region drains. *)
  let region_busy = Atomic.make 0 in
  let timed i =
    let t0 = Tir_obs.Clock.now_us () in
    Fun.protect
      ~finally:(fun () ->
        ignore
          (Atomic.fetch_and_add region_busy
             (int_of_float (Float.max 0.0 (Tir_obs.Clock.now_us () -. t0)))))
      (fun () ->
        Tir_obs.Trace.with_span "pool.task"
          ~args:[ ("i", string_of_int i) ]
          (fun () -> task i))
  in
  if t.jobs = 1 || n = 1 || Domain.DLS.get in_region then
    Fun.protect
      ~finally:(fun () -> busy_frac_sample ~busy_us:(Atomic.get region_busy))
      (fun () ->
        for i = 0 to n - 1 do
          timed i
        done)
  else begin
    let chunk = default_chunk n t.jobs in
    let cursor = Atomic.make 0 in
    let failure : (int * exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let record_failure i e bt =
      let rec retry () =
        let cur = Atomic.get failure in
        let better = match cur with None -> true | Some (j, _, _) -> i < j in
        if better && not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then
          retry ()
      in
      retry ()
    in
    let run _seq =
      Domain.DLS.set in_region true;
      let rec claim () =
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo < n then begin
          let hi = min n (lo + chunk) in
          for i = lo to hi - 1 do
            try timed i with e -> record_failure i e (Printexc.get_raw_backtrace ())
          done;
          claim ()
        end
      in
      Tir_obs.Trace.with_ambient trace_ctx claim;
      Domain.DLS.set in_region false
    in
    (* One region at a time: hold [submit] from publish to drain. The
       waiter count (callers queued on or holding [submit]) is the
       scheduler's backlog signal. *)
    Tir_obs.Metrics.set m_queue_depth
      (float_of_int (Atomic.fetch_and_add queue_waiters 1 + 1));
    Mutex.lock t.submit;
    (* Publish the region, wake the workers, participate, then wait. *)
    Mutex.lock t.mutex;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.region <- Some { run; seq };
    t.finished <- 0;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    run seq;
    Mutex.lock t.mutex;
    while t.finished < t.jobs - 1 do
      Condition.wait t.done_ t.mutex
    done;
    t.region <- None;
    Mutex.unlock t.mutex;
    Mutex.unlock t.submit;
    Tir_obs.Metrics.set m_queue_depth
      (float_of_int (Atomic.fetch_and_add queue_waiters (-1) - 1));
    busy_frac_sample ~busy_us:(Atomic.get region_busy);
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
  end

(** Order-preserving parallel map over an array. *)
let parallel_map t (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_iteri t n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map Option.get out
  end

(** Order-preserving parallel map over a list. *)
let parallel_map_list t (f : 'a -> 'b) (xs : 'a list) : 'b list =
  Array.to_list (parallel_map t f (Array.of_list xs))

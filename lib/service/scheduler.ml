(** Multi-tenant fair-share scheduler over steppable sessions.

    Many concurrent tuning sessions — each with a priority and its own
    WAL — share one domain pool, one measurement memo, one apply cache,
    and one trace database. The scheduler interleaves them one
    generation at a time ({!Session.step}) with a deficit round-robin:
    every round each live tenant's deficit grows by its priority, and
    the tenant takes one step per whole unit of deficit. Over N rounds a
    priority-2 tenant therefore gets ~2× the generations of a
    priority-1 tenant — and because the loop is cooperative (exactly one
    tenant steps at a time; parallelism lives {e inside} a step, in the
    engine's pool fan-outs) the interleaving is a pure function of the
    submission order, the priorities, and each tenant's own
    deterministic search. Preemption happens only at generation
    boundaries, where the engine has already committed its WAL records —
    so killing the whole server and resuming every tenant from its WAL
    reproduces each tenant's result bit-identically, exactly as for a
    standalone session.

    Shared-cache keying keeps tenants independent: the measurement memo
    keys on (target fingerprint, program fingerprint), the apply cache
    on (parent trace node, instruction), and the database on (target,
    workload) — all pure functions of the work itself, never of the
    tenant — so sharing changes hit counters, never results. The payoff
    is cross-tenant amortization: a tenant submitting a workload another
    tenant already solved replays the stored trace instead of searching
    ([db.replayed]). *)

module Tune = Tir_autosched.Tune
module Error = Tir_core.Error
module Metrics = Tir_obs.Metrics
module Pool = Tir_parallel.Pool
module Trace = Tir_obs.Trace
module Stall = Tir_obs.Stall

type outcome = Completed of Tune.result | Failed of Error.t

type event =
  | Step of { tenant : string; gen : int }
  | Complete of { tenant : string; result : Tune.result }
  | Fail of { tenant : string; error : Error.t }

type stop = Idle | Budget

type tenant = {
  tn_name : string;
  tn_priority : int;
  tn_session : Session.t;
  mutable tn_stepper : Session.stepper option;  (** created at first step *)
  mutable tn_deficit : int;
  mutable tn_gens : int;
  mutable tn_outcome : outcome option;
  tn_m_steps : Metrics.counter;
  tn_m_gens : Metrics.counter;
  tn_m_best : Metrics.gauge;
  tn_m_rank : Metrics.gauge;
  tn_m_stalled : Metrics.gauge;
  tn_stall : Stall.t;
      (** declared stalled after [Stall.default_threshold] generations
          without an improvement in best-µs *)
}

type t = {
  sch_pool : Pool.t;
  mutable sch_tenants : tenant list;  (** submission order *)
  mutable sch_steps : int;  (** Session.step calls over this scheduler's life *)
}

let m_submitted = Metrics.counter "scheduler.tenants_submitted"
let m_completed = Metrics.counter "scheduler.tenants_completed"
let m_failed = Metrics.counter "scheduler.tenants_failed"
let m_steps = Metrics.counter "scheduler.steps"
let m_active = Metrics.gauge "scheduler.active_tenants"
let m_stalled = Metrics.counter "search.stalled"
let m_stalled_tenants = Metrics.gauge "search.stalled_tenants"

let create ?pool () =
  let sch_pool = match pool with Some p -> p | None -> Pool.global () in
  { sch_pool; sch_tenants = []; sch_steps = 0 }

let pool t = t.sch_pool

let submit ?(priority = 1) t ~name session =
  if List.exists (fun tn -> String.equal tn.tn_name name) t.sch_tenants then
    invalid_arg (Printf.sprintf "Scheduler.submit: duplicate tenant %S" name);
  let tn =
    {
      tn_name = name;
      (* priority 0 would starve the tenant forever; clamp. *)
      tn_priority = max 1 priority;
      tn_session = session;
      tn_stepper = None;
      tn_deficit = 0;
      tn_gens = 0;
      tn_outcome = None;
      tn_m_steps = Metrics.counter ("tenant." ^ name ^ ".steps");
      tn_m_gens = Metrics.counter ("tenant." ^ name ^ ".generations");
      tn_m_best = Metrics.gauge ("tenant." ^ name ^ ".best_us");
      tn_m_rank = Metrics.gauge ("tenant." ^ name ^ ".rank_corr");
      tn_m_stalled = Metrics.gauge ("tenant." ^ name ^ ".stalled");
      tn_stall = Stall.create ();
    }
  in
  Metrics.incr m_submitted;
  t.sch_tenants <- t.sch_tenants @ [ tn ]

let active t =
  List.length (List.filter (fun tn -> tn.tn_outcome = None) t.sch_tenants)

let outcomes t =
  List.filter_map
    (fun tn -> Option.map (fun o -> (tn.tn_name, o)) tn.tn_outcome)
    t.sch_tenants

let generations t = List.map (fun tn -> (tn.tn_name, tn.tn_gens)) t.sch_tenants
let steps_taken t = t.sch_steps

(* One Session.step of one tenant, with per-tenant fault isolation: a
   tenant whose step raises a classified error ([Error.Error] — corrupt
   WAL, I/O failure, injected fault surfacing) is marked [Failed] and its
   stepper aborted (WAL stays committed through its last marker); the
   loop and the other tenants keep running. Anything else is a
   programming error and propagates. *)
let stalled_count t =
  List.length
    (List.filter
       (fun tn -> tn.tn_outcome = None && Stall.is_stalled tn.tn_stall)
       t.sch_tenants)

(* Feed the stall watchdog one generation's best. Sequential (the loop is
   cooperative), so verdicts and the emitted events are deterministic. *)
let observe_stall t tn ~best_us =
  (match Stall.observe tn.tn_stall ~best_us with
  | Stall.Stalled ->
      Metrics.incr m_stalled;
      Metrics.set tn.tn_m_stalled 1.0;
      Trace.instant "search.stalled"
        ~args:
          [
            ("gens_without_improvement", string_of_int (Stall.age tn.tn_stall));
            ("threshold", string_of_int (Stall.threshold tn.tn_stall));
          ]
  | Stall.Improved -> Metrics.set tn.tn_m_stalled 0.0
  | Stall.Ok | Stall.Still_stalled -> ());
  Metrics.set m_stalled_tenants (float_of_int (stalled_count t))

let step_tenant t ~on_event tn =
  Trace.with_ctx ~tenant:tn.tn_name @@ fun () ->
  Trace.with_span "scheduler.slice" @@ fun () ->
  t.sch_steps <- t.sch_steps + 1;
  Metrics.incr m_steps;
  Metrics.incr tn.tn_m_steps;
  let stepper =
    match tn.tn_stepper with
    | Some st -> st
    | None ->
        let st = Session.start ~pool:t.sch_pool tn.tn_session in
        tn.tn_stepper <- Some st;
        st
  in
  match Session.step stepper with
  | `Stepped gen ->
      tn.tn_gens <- tn.tn_gens + 1;
      Metrics.incr tn.tn_m_gens;
      (* Live per-tenant telemetry: the gauge used to be set only at
         completion, so `tensorir top` saw NaN for every running tenant. *)
      let best_us = Session.best_us stepper in
      Metrics.set tn.tn_m_best best_us;
      Metrics.set tn.tn_m_rank (Session.rank_corr stepper);
      observe_stall t tn ~best_us;
      on_event (Step { tenant = tn.tn_name; gen })
  | `Done result ->
      tn.tn_outcome <- Some (Completed result);
      Metrics.incr m_completed;
      Metrics.set tn.tn_m_best
        (match result.Tune.best with
        | Some b -> b.Tir_autosched.Evolutionary.latency_us
        | None -> Float.nan);
      Metrics.set tn.tn_m_stalled 0.0;
      Metrics.set m_stalled_tenants (float_of_int (stalled_count t));
      Trace.instant "tenant.complete";
      on_event (Complete { tenant = tn.tn_name; result })
  | exception Error.Error err ->
      (match tn.tn_stepper with
      | Some st -> Session.abort st
      | None -> ());
      tn.tn_outcome <- Some (Failed err);
      Metrics.incr m_failed;
      on_event (Fail { tenant = tn.tn_name; error = err })

let run ?max_steps ?(on_event = fun _ -> ()) t : stop =
  let steps_left = ref (match max_steps with Some n -> max 0 n | None -> -1) in
  let budget_ok () = !steps_left <> 0 in
  let spend () = if !steps_left > 0 then decr steps_left in
  let rec rounds () =
    let live = List.filter (fun tn -> tn.tn_outcome = None) t.sch_tenants in
    Metrics.set m_active (float_of_int (List.length live));
    if live = [] then Idle
    else begin
      List.iter
        (fun tn ->
          if tn.tn_outcome = None && budget_ok () then begin
            tn.tn_deficit <- tn.tn_deficit + tn.tn_priority;
            while tn.tn_outcome = None && tn.tn_deficit >= 1 && budget_ok () do
              tn.tn_deficit <- tn.tn_deficit - 1;
              spend ();
              step_tenant t ~on_event tn
            done;
            (* A finished tenant cannot bank credit for a neighbour. *)
            if tn.tn_outcome <> None then tn.tn_deficit <- 0
          end)
        live;
      if budget_ok () then rounds ()
      else begin
        Metrics.set m_active (float_of_int (active t));
        Budget
      end
    end
  in
  rounds ()

(** Bounded retries of operations that fail under fault injection. See
    the interface for the contract. *)

module Fault = Tir_core.Fault
module Metrics = Tir_obs.Metrics

let max_attempts = 4

exception Exhausted of { site : string; key : string; attempts : int }

(* Registry handles are find-or-create; site names are a tiny fixed set so
   per-call lookup is negligible next to the work being retried. *)
let m_attempts site = Metrics.counter ("retry." ^ site ^ ".attempts")
let m_failures site = Metrics.counter ("retry." ^ site ^ ".failures")
let m_exhausted site = Metrics.counter ("retry." ^ site ^ ".exhausted")
let m_injected site = Metrics.counter ("fault." ^ site ^ ".injected")

(* Trace instants only on the failure paths (injection / exhaustion):
   fault decisions are keyed hashes, so these events are deterministic at
   any job count, and the success path stays silent. *)
let trace_injected ~site ~key ~attempt =
  Tir_obs.Trace.instant "fault.injected"
    ~args:[ ("site", site); ("key", key); ("attempt", string_of_int attempt) ]

let trace_exhausted ~site ~key ~attempts =
  Tir_obs.Trace.instant "retry.exhausted"
    ~args:[ ("site", site); ("key", key); ("attempts", string_of_int attempts) ]

let with_retries ~site ~key f =
  let rec go attempt =
    Metrics.incr (m_attempts site);
    match f ~attempt with
    | v -> v
    | exception Fault.Injected _ ->
        Metrics.incr (m_failures site);
        Metrics.incr (m_injected site);
        trace_injected ~site ~key ~attempt;
        if attempt >= max_attempts then begin
          Metrics.incr (m_exhausted site);
          trace_exhausted ~site ~key ~attempts:attempt;
          raise (Exhausted { site; key; attempts = attempt })
        end
        else go (attempt + 1)
  in
  go 1

let () =
  Printexc.register_printer (function
    | Exhausted { site; key; attempts } ->
        Some (Printf.sprintf "Retry.Exhausted(%s, %S, %d attempts)" site key attempts)
    | _ -> None)

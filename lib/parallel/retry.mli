(** Bounded retries of operations that fail under fault injection.

    An operation that raises [Tir_core.Fault.Injected] is retried up to
    {!max_attempts} times; the caller appends the attempt number to the
    fault key, so each attempt draws an independent (but fully
    deterministic) failure decision. Nothing sleeps between attempts:
    the simulator has no transient failure for a delay to outlast.

    Non-injected exceptions are never retried; they propagate on the
    first raise.

    Metrics (per site name): [retry.<site>.attempts] (every attempt),
    [retry.<site>.failures] (injected failures absorbed),
    [retry.<site>.exhausted] (operations that failed every attempt) and
    [fault.<site>.injected] (same as failures, under the fault
    namespace). *)

(** Total attempts per operation: 4. *)
val max_attempts : int

(** Raised when every attempt failed with an injected fault. *)
exception Exhausted of { site : string; key : string; attempts : int }

(** [with_retries ~site ~key f] runs [f ~attempt] (1-based), retrying on
    [Tir_core.Fault.Injected] up to {!max_attempts} attempts, then raises
    {!Exhausted}. Other exceptions propagate immediately. *)
val with_retries : site:string -> key:string -> (attempt:int -> 'a) -> 'a

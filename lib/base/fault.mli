(** Fault-injection harness for the tuning pipeline.

    Real tuning fleets lose measurements to worker crashes, timeouts and
    garbage results; this module lets tests and CI reproduce that,
    deterministically. A configuration is a failure [rate] plus a [seed];
    whether a particular operation fails is a pure function of
    (seed, site, key) — a keyed hash, not a stateful RNG — so the failure
    schedule is bit-identical at any [TIR_JOBS], in any execution
    interleaving, and across processes (the property the kill-and-resume
    tests rely on). Retrying callers append the attempt number to the key,
    so a retried operation draws an independent failure decision.

    Configure from the environment ([TIR_FAULTS=<rate>:<seed>], read
    once at first probe) or programmatically with {!set} / {!clear}
    (which override the environment). Injection sites:

    - {!Measure}: simulator measurements ([Tir_sim.Machine.measure_us]);
      exhausted retries degrade the candidate to "unmeasurable".
    - {!Db_write}: database/WAL line writes; exhausted retries raise
      [Error.Error] with kind [Fault]. *)

type site = Measure | Db_write

exception Injected of { site : site; key : string }

(** Enable injection programmatically (overrides [TIR_FAULTS]). [sites]
    defaults to both. [rate] is clamped to [0, 1]. *)
val set : ?sites:site list -> rate:float -> seed:int -> unit -> unit

(** Disable injection, including any [TIR_FAULTS] configuration. *)
val clear : unit -> unit

(** Is injection configured (rate > 0) for this site? Callers use this to
    skip key construction entirely on the common path. *)
val enabled : site -> bool

(** The configured (rate, seed), if any. *)
val config : unit -> (float * int) option

(** Raise {!Injected} when the pure failure decision for (site, key)
    under the current config says so; never when unconfigured. *)
val maybe_fail : site -> key:string -> unit

(** Parse a [TIR_FAULTS] value ("<rate>:<seed>", e.g. "0.2:42"). *)
val parse_env : string -> (float * int) option

(** Semantic static analysis over [Primfunc.t]: data-race detection,
    region-soundness checking, and bounds proving. The race detector's
    output is memoized per structural fingerprint (on by default; see
    {!set_cache_enabled}). Counters are recorded per call (cache hits
    included), so totals are identical with the cache on or off and at
    any [TIR_JOBS]. *)

open Tir_ir

(** All three analyses; deduplicated, stable order (errors first, then
    block/buffer/message). Increments the [analysis.*] counters. *)
val check_func : Primfunc.t -> Diagnostic.t list

(** Error-severity findings only. *)
val errors : Primfunc.t -> Diagnostic.t list

(** No findings at all, warnings included. *)
val is_clean : Primfunc.t -> bool

(** Race-only legality certificate for the parallel structure of the
    function as scheduled: [Illegal] on a proven race (with the proving
    diagnostic), [Unknown] on warning-level findings, [Legal] when the
    race report is clean. *)
val certify : Primfunc.t -> Legality.verdict

(** [check_func] under an [analysis.lint] span. *)
val lint : Primfunc.t -> Diagnostic.t list

(** {1 Cache control} *)

val cache_enabled : unit -> bool

(** Switch the race memo, which [certify], [check_func] and their
    derivatives share. *)
val set_cache_enabled : bool -> unit

(** Drop the memoized race diagnostics and reset the memo counters. *)
val clear_cache : unit -> unit

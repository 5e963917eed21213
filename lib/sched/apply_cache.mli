(** Memoized primitive applications — the engine behind incremental trace
    replay and incremental sketch application.

    Entries snapshot the complete schedule state after one facade step and
    are keyed by [(parent chain node, pre-key)], where the pre-key is the
    RV-relative spelling of the primitive and its inputs. Chains are rooted
    at a per-physical-base-function node, so a hit can only extend the
    exact stored lineage — the adopted function and its entities are always
    coherent with the loop variables and buffers the caller already holds
    from earlier steps. Tables are per-domain; results are bit-identical
    with the cache on or off (see the implementation header for the full
    argument). *)

open Tir_ir

(** A primitive's outputs, as stored in a snapshot. *)
type outs =
  | R_unit
  | R_loop of Var.t
  | R_loops of Var.t list
  | R_block of string
  | R_buf of Buffer.t

type entry = {
  e_node : int;  (** this snapshot's chain node id *)
  e_func : Primfunc.t;
  e_name_counter : int;
  e_builder : Trace.builder;  (** frozen post-record snapshot; clone to use *)
  e_outs : outs;
}

(** On by default; tests turn it off to compare with full replay. *)
val set_enabled : bool -> unit

val is_enabled : unit -> bool

(** Chain root for a base function, unique per physical function value per
    domain. *)
val base_node : Primfunc.t -> int

val find : parent:int -> prekey:string -> entry option

(** Snapshot a just-applied step and return its entry (carrying the fresh
    node id). [builder] must be a frozen clone. *)
val store :
  parent:int ->
  prekey:string ->
  func:Primfunc.t ->
  name_counter:int ->
  builder:Trace.builder ->
  outs:outs ->
  entry

(** Cumulative (process-wide) hit/miss counters, in that order. *)
val stats : unit -> int * int

(** Drop the calling domain's tables and zero the counters. *)
val clear : unit -> unit

(** Memoized primitive applications — the opening steps of sketch
    application and trace replay.

    Applying a schedule primitive is a whole-program rewrite, and every
    candidate schedule of a sketch starts with the same decision-free
    steps (inlining upstream stages, get_loops), followed by splits whose
    factors take few distinct values. This cache snapshots the complete
    schedule state — function, name counter, trace builder, primitive
    outputs — after a facade step, so a repeated step adopts the snapshot
    in O(1) instead of re-running the transform.

    {2 Follow while it hits}

    A schedule consults the cache only while it keeps hitting. At its
    first miss the facade runs the transform, stores that one snapshot and
    leaves the cache: every later step of that schedule runs directly, with
    no key, probe, clone or store. Past the first divergent instruction a
    probe almost never hits, while every miss would cost a whole-program
    snapshot: probing every step of every schedule of one zoo-compile
    unit (seed 1001, 2 domains), 96.5, 93.1, 69.2 and 28.8 % of the
    probes at chain depths 1-4 hit and at most 10 % at any depth after,
    on chains of up to 75 steps. One schedule therefore adds at most one
    entry, one step deeper than the chain it followed; re-applying one
    decision vector k times hits k - 1 times before it misses.

    {2 Lineage chaining}

    Entries are keyed by [(parent node, pre-key)]: the node id of the state
    the step extended plus the step's instruction with its outputs left
    out, spelled as the trace prints it ({!Trace.input_key}: the opcode and
    the RV-relative inputs). The facade builds that instruction once and
    records the same value, so the key and the trace cannot disagree.
    Chains are rooted at a per-physical-base-function node ({!base_node}),
    so a hit can only extend the exact stored chain: the adopted function,
    its loop [Var]s and [Buffer]s all belong to the lineage whose earlier
    outputs the caller already holds. This is what makes adoption sound — schedule closures
    keep loop variables and buffers from earlier steps, and those values
    remain valid in every state reachable through the chain. Node ids are
    process-unique and never reused, so eviction can never let a stale link
    be forged.

    Results are bit-identical with the cache on or off, at any [TIR_JOBS]:
    entries are produced by the same deterministic transforms from a
    physically shared base, and everything the search observes — printed
    scripts, traces and their RVs, features, simulated latencies, memo keys
    — is structural, never dependent on per-process [Var.id]/[Buffer.id].

    Tables are per-domain (no locks, no cross-domain sharing); only states
    created with [State.create_cached] consult the cache, and the facade
    bypasses it entirely under deep-check mode. Failed primitives are never
    cached (a transform may mutate the state before raising). *)

open Tir_ir

type entry = {
  e_node : int;  (** this snapshot's chain node id *)
  e_func : Primfunc.t;
  e_name_counter : int;
  e_builder : Trace.builder;  (** frozen post-record snapshot; clone to use *)
  e_outs : Trace.outs;
}

(* Off only where a test compares the cache with full replay. *)
let enabled = ref true

let set_enabled b = enabled := b
let is_enabled () = !enabled

module Key = struct
  type t = int * string

  let equal (a, b) (c, d) = Int.equal a c && String.equal b d
  let hash = Hashtbl.hash
end

module Tbl = Hashtbl.Make (Key)

(* A table at the cap is emptied before the next store. One schedule adds
   at most one entry, so a perfbench unit fills at most ~3.6k entries per
   domain and never reaches this cap; what it bounds is a long-running
   serve, whose table otherwise grows with every schedule it applies. At
   an estimated 2.5-3.6 KB a snapshot (snapshots share most program
   nodes), 4,096 entries hold about 10-15 MB per domain. *)
let cap = 4096

let tbl_key : entry Tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Tbl.create 1024)

(* Node ids are process-unique (never reused): an evicted-and-refilled
   table can never alias an old chain. 0 is reserved for "no chain". *)
let next_node = Atomic.make 1
let fresh_node () = Atomic.fetch_and_add next_node 1

(* One root node per physical base function per domain. Chains never cross
   physically distinct bases, even when they are structurally equal — two
   copies of a function carry different Var/Buffer ids, and adopting across
   them would hand the caller entities its own lineage does not contain. *)
module FuncTbl = Hashtbl.Make (struct
  type t = Primfunc.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let base_cap = 512

let base_tbl : int FuncTbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> FuncTbl.create 64)

let base_node (f : Primfunc.t) =
  let tbl = Domain.DLS.get base_tbl in
  match FuncTbl.find_opt tbl f with
  | Some id -> id
  | None ->
      if FuncTbl.length tbl >= base_cap then FuncTbl.reset tbl;
      let id = fresh_node () in
      FuncTbl.add tbl f id;
      id

let hits = Atomic.make 0
let misses = Atomic.make 0

let find ~parent ~prekey =
  let tbl = Domain.DLS.get tbl_key in
  match Tbl.find_opt tbl (parent, prekey) with
  | Some e ->
      Atomic.incr hits;
      Some e
  | None ->
      Atomic.incr misses;
      None

let store ~parent ~prekey ~func ~name_counter ~builder ~outs =
  let tbl = Domain.DLS.get tbl_key in
  if Tbl.length tbl >= cap then Tbl.reset tbl;
  let e = { e_node = fresh_node (); e_func = func; e_name_counter = name_counter; e_builder = builder; e_outs = outs } in
  Tbl.replace tbl (parent, prekey) e

(** Cumulative (process-wide) hit/miss counters, in that order. *)
let stats () = (Atomic.get hits, Atomic.get misses)

(** Drop the calling domain's tables and zero the counters (tests, bench
    A/B sections). Other domains' tables are untouched — stale entries
    there are merely unreachable through new chains. *)
let clear () =
  Tbl.reset (Domain.DLS.get tbl_key);
  FuncTbl.reset (Domain.DLS.get base_tbl);
  Atomic.set hits 0;
  Atomic.set misses 0

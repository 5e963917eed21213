(** Schedule facade: the full primitive set over one state type.

    Mirrors the paper's §3.2 catalogue. Each primitive is a standalone
    TensorIR-to-TensorIR transformation; the schedule can be printed between
    any two steps ([pp]) and validated at any point ([validate]).

    Every successful application appends one typed {!Trace.instr} to the
    schedule's trace — nothing is recorded when a primitive raises
    [Schedule_error] — so [instructions] is always a replayable script:
    [replay (instructions t) f] rebuilds an equivalent schedule on a fresh
    copy of the original function. *)

include State

(* Deep-check mode: when enabled (env TIR_DEEPCHECK=1 or
   [set_deep_check true]), every transforming primitive re-runs the
   semantic analyzer (race / region-soundness / bounds) on the resulting
   program and raises [Schedule_error] on any error-severity finding. The
   offending primitive has already mutated the schedule when the error is
   raised — deep check is a debugging net, not a transaction. *)
let deep_check_flag =
  ref
    (match Sys.getenv_opt "TIR_DEEPCHECK" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let set_deep_check b = deep_check_flag := b
let deep_check_enabled () = !deep_check_flag

let deep t =
  if !deep_check_flag then
    match Tir_analysis.Analysis.errors (func t) with
    | [] -> ()
    | ds ->
        err "deep check failed:@,%a"
          (Fmt.list ~sep:Fmt.cut Tir_analysis.Diagnostic.pp)
          ds

(* Translation validation of the legality prover, active only in
   deep-check mode: every gated primitive asks {!Tir_analysis.Legality}
   for a verdict on the pre-transform program and cross-checks it against
   what actually happens. A disagreement in either direction — proven
   [Illegal] yet the transform goes through cleanly, or proven [Legal] yet
   the primitive raises (or the analyzer flags the result) — is a prover
   bug and raises [Schedule_error]. Outcomes feed the [legality.agree] /
   [legality.disagree] counters; [Unknown] verdicts validate nothing. *)
module L = Tir_analysis.Legality
module Diag = Tir_analysis.Diagnostic

(* Static gate (reorder, software-pipeline annotations): the dynamic
   primitive has no semantic check of its own, so a proven-illegal verdict
   refuses the transform up front. *)
let static_gate vf =
  if !deep_check_flag then begin
    let verdict = vf () in
    L.count verdict;
    match verdict with
    | L.Illegal d -> err "legality: %a" Diag.pp d
    | L.Legal | L.Unknown -> ()
  end

(* Mirror gate (split / fuse / inline / compute-location): the verdict
   mirrors the primitive's own applicability guards, so [Illegal] must
   coincide with a [Schedule_error] and [Legal] with clean application. *)
let mirror_gate vf prim =
  if not !deep_check_flag then prim ()
  else begin
    let verdict = vf () in
    L.count verdict;
    match prim () with
    | r -> (
        match verdict with
        | L.Illegal d ->
            L.count_agreement false;
            err
              "legality prover bug: proven illegal (%a) but the primitive \
               applied cleanly"
              Diag.pp d
        | L.Legal ->
            L.count_agreement true;
            r
        | L.Unknown -> r)
    | exception (Schedule_error m as e) -> (
        match verdict with
        | L.Illegal _ ->
            L.count_agreement true;
            raise e
        | L.Legal ->
            L.count_agreement false;
            err "legality prover bug: proven legal but the primitive failed: %s"
              m
        | L.Unknown -> raise e)
  end

(* Race gate (parallel / vectorize / bind): the carried-dependence verdict
   predicts the race analyzer's judgement of the applied program, so the
   gate applies the primitive and compares. The cross-check is skipped when
   the program already carries analyzer errors (attribution would be
   ambiguous); the usual [deep] sweep still raises afterwards. *)
let race_gate t v kind prim =
  if not !deep_check_flag then prim ()
  else begin
    let f0 = func t in
    let pre_errors = Tir_analysis.Analysis.errors f0 in
    let verdict = L.parallelize_kind f0 v kind in
    L.count verdict;
    match prim () with
    | () ->
        if pre_errors = [] then begin
          let post_race =
            List.filter
              (fun (d : Diag.t) -> Diag.is_error d && d.Diag.kind = Diag.Race)
              (Tir_analysis.Analysis.check_func (func t))
          in
          match verdict with
          | L.Illegal d ->
              if post_race = [] then begin
                L.count_agreement false;
                err
                  "legality prover bug: proven illegal (%a) but the analyzer \
                   finds no race after applying"
                  Diag.pp d
              end
              else L.count_agreement true
          | L.Legal -> (
              match post_race with
              | [] -> L.count_agreement true
              | d :: _ ->
                  L.count_agreement false;
                  err
                    "legality prover bug: proven legal but the analyzer finds \
                     a race after applying: %a"
                    Diag.pp d)
          | L.Unknown -> ()
        end
    | exception (Schedule_error _ as e) ->
        (match verdict with
        | L.Illegal _ -> L.count_agreement true
        | L.Legal -> L.count_agreement false
        | L.Unknown -> ());
        raise e
  end

(* The apply cache: a state created with [create_cached] follows the
   per-domain cache only while it hits. Each step probes under (current
   chain node, opcode+inputs pre-key); a hit adopts the snapshot —
   function, name counter, a clone of the recorded builder, the
   primitive's outputs — in O(1). The first miss cuts the chain (node 0):
   the step runs, its result is snapshotted once for later schedules to
   adopt, and every later step of this schedule runs directly, with no
   key, probe, clone or store. Hits cluster in a sketch's decision-free
   first steps (see {!Apply_cache}), so a schedule stores one snapshot
   instead of one per primitive. The chain is cut before the transform
   runs, so a failed primitive (which may mutate the state before
   raising) stores nothing. Deep-check mode bypasses the cache so every
   step really re-runs the analyzer. *)
module A = Apply_cache

let pk parts = String.concat "\x1f" parts

let step t ~(key : unit -> string) ~(run : unit -> A.outs) : A.outs =
  let parent = State.cache_node t in
  if parent = 0 || (not (A.is_enabled ())) || !deep_check_flag then run ()
  else
    let prekey = key () in
    match A.find ~parent ~prekey with
    | Some e ->
        State.adopt t ~func:e.A.e_func ~name_counter:e.A.e_name_counter
          ~tr:(Trace.clone e.A.e_builder) ~node:e.A.e_node;
        e.A.e_outs
    | None ->
        State.set_cache_node t 0;
        let outs = run () in
        A.store ~parent ~prekey ~func:(func t)
          ~name_counter:(State.name_counter t)
          ~builder:(Trace.clone (builder t)) ~outs;
        outs

let as_unit = function A.R_unit -> () | _ -> assert false
let as_loop = function A.R_loop v -> v | _ -> assert false
let as_loops = function A.R_loops vs -> vs | _ -> assert false
let as_block = function A.R_block n -> n | _ -> assert false
let as_buf = function A.R_buf b -> b | _ -> assert false

(* Loop transformations. Each primitive records a structured instruction on
   the schedule trace so a tuning result carries its own reproducible,
   serializable script. *)
let split t v ~factors =
  as_loops
    (step t
       ~key:(fun () ->
         pk
           ("split" :: Trace.loop_key (builder t) v
           :: List.map string_of_int factors))
       ~run:(fun () ->
         let r =
           mirror_gate
             (fun () -> L.split (func t) v ~factors)
             (fun () -> Loop_transform.split t v ~factors)
         in
         Trace.record_split (builder t) ~loop:v ~factors ~outs:r;
         deep t;
         A.R_loops r))

let fuse t a b =
  as_loop
    (step t
       ~key:(fun () ->
         let b' = builder t in
         pk [ "fuse"; Trace.loop_key b' a; Trace.loop_key b' b ])
       ~run:(fun () ->
         let r =
           mirror_gate
             (fun () -> L.fuse (func t) a b)
             (fun () -> Loop_transform.fuse t a b)
         in
         Trace.record_fuse (builder t) ~a ~b ~out:r;
         deep t;
         A.R_loop r))

let fuse_many t vs =
  as_loop
    (step t
       ~key:(fun () ->
         let b = builder t in
         pk ("fuse_many" :: List.map (Trace.loop_key b) vs))
       ~run:(fun () ->
         let r =
           mirror_gate
             (fun () -> L.fuse_many (func t) vs)
             (fun () -> Loop_transform.fuse_many t vs)
         in
         Trace.record_fuse_many (builder t) ~loops:vs ~out:r;
         deep t;
         A.R_loop r))

let reorder t vs =
  as_unit
    (step t
       ~key:(fun () ->
         let b = builder t in
         pk ("reorder" :: List.map (Trace.loop_key b) vs))
       ~run:(fun () ->
         (* The dynamic primitive checks structure only; the carried-
            dependence half of the verdict is the prover's alone, so a
            proven-illegal reorder is refused up front. *)
         static_gate (fun () -> L.reorder_carried (func t) vs);
         Loop_transform.reorder t vs;
         Trace.record_reorder (builder t) ~loops:vs;
         deep t;
         A.R_unit))

let bind t v axis =
  as_unit
    (step t
       ~key:(fun () -> pk [ "bind"; Trace.loop_key (builder t) v; axis ])
       ~run:(fun () ->
         race_gate t v (Tir_ir.Stmt.Thread_binding axis) (fun () ->
             Loop_transform.bind t v axis);
         Trace.record_bind (builder t) ~loop:v ~thread:axis;
         deep t;
         A.R_unit))

let parallel t v =
  as_unit
    (step t
       ~key:(fun () -> pk [ "parallel"; Trace.loop_key (builder t) v ])
       ~run:(fun () ->
         race_gate t v Tir_ir.Stmt.Parallel (fun () ->
             Loop_transform.parallel t v);
         Trace.record_parallel (builder t) ~loop:v;
         deep t;
         A.R_unit))

let vectorize t v =
  as_unit
    (step t
       ~key:(fun () -> pk [ "vectorize"; Trace.loop_key (builder t) v ])
       ~run:(fun () ->
         race_gate t v Tir_ir.Stmt.Vectorized (fun () ->
             Loop_transform.vectorize t v);
         Trace.record_vectorize (builder t) ~loop:v;
         deep t;
         A.R_unit))

let unroll t v =
  as_unit
    (step t
       ~key:(fun () -> pk [ "unroll"; Trace.loop_key (builder t) v ])
       ~run:(fun () ->
         Loop_transform.unroll t v;
         Trace.record_unroll (builder t) ~loop:v;
         deep t;
         A.R_unit))

let annotate t v k value =
  as_unit
    (step t
       ~key:(fun () -> pk [ "annotate"; Trace.loop_key (builder t) v; k; value ])
       ~run:(fun () ->
         (if String.equal k "software_pipeline" then
            match int_of_string_opt (String.trim value) with
            | Some stages when stages > 1 ->
                static_gate (fun () ->
                    L.software_pipeline (func t) v ~stages)
            | Some _ | None -> ());
         Loop_transform.annotate t v k value;
         Trace.record_annotate (builder t) ~loop:v ~key:k ~value;
         deep t;
         A.R_unit))

let annotate_block t name k value =
  as_unit
    (step t
       ~key:(fun () ->
         pk [ "annotate_block"; Trace.block_key (builder t) name; k; value ])
       ~run:(fun () ->
         Loop_transform.annotate_block t name k value;
         Trace.record_annotate_block (builder t) ~block:name ~key:k ~value;
         deep t;
         A.R_unit))

(* Lookup. [get_loops] defines the loop RVs later instructions consume, so
   it is itself traced (the internal [State.get_loops] is not) — and
   therefore also a cache step, keeping the chain in lockstep with the
   trace. *)
let get_loops t name =
  as_loops
    (step t
       ~key:(fun () -> pk [ "get_loops"; Trace.block_key (builder t) name ])
       ~run:(fun () ->
         let ls = State.get_loops t name in
         Trace.record_get_loops (builder t) ~block:name ~outs:ls;
         A.R_loops ls))

(* Compute location *)
let compute_at t name v =
  as_unit
    (step t
       ~key:(fun () ->
         let b = builder t in
         pk [ "compute_at"; Trace.block_key b name; Trace.loop_key b v ])
       ~run:(fun () ->
         mirror_gate
           (fun () -> L.compute_at (func t) name v)
           (fun () -> Compute_location.compute_at t name v);
         Trace.record_compute_at (builder t) ~block:name ~loop:v;
         deep t;
         A.R_unit))

let reverse_compute_at t name v =
  as_unit
    (step t
       ~key:(fun () ->
         let b = builder t in
         pk [ "reverse_compute_at"; Trace.block_key b name; Trace.loop_key b v ])
       ~run:(fun () ->
         mirror_gate
           (fun () -> L.reverse_compute_at (func t) name v)
           (fun () -> Compute_location.reverse_compute_at t name v);
         Trace.record_reverse_compute_at (builder t) ~block:name ~loop:v;
         deep t;
         A.R_unit))

let compute_inline t name =
  as_unit
    (step t
       ~key:(fun () -> pk [ "compute_inline"; Trace.block_key (builder t) name ])
       ~run:(fun () ->
         mirror_gate
           (fun () -> L.compute_inline (func t) name)
           (fun () -> Inline.compute_inline t name);
         Trace.record_compute_inline (builder t) ~block:name;
         deep t;
         A.R_unit))

let reverse_compute_inline t name =
  as_unit
    (step t
       ~key:(fun () ->
         pk [ "reverse_compute_inline"; Trace.block_key (builder t) name ])
       ~run:(fun () ->
         mirror_gate
           (fun () -> L.reverse_compute_inline (func t) name)
           (fun () -> Inline.reverse_compute_inline t name);
         Trace.record_reverse_compute_inline (builder t) ~block:name;
         deep t;
         A.R_unit))

(* Block hierarchy *)
let cache_read t name buf scope =
  as_block
    (step t
       ~key:(fun () ->
         pk
           [
             "cache_read"; Trace.block_key (builder t) name;
             buf.Tir_ir.Buffer.name; scope;
           ])
       ~run:(fun () ->
         let r = Cache.cache_read t name buf scope in
         Trace.record_cache_read (builder t) ~block:name
           ~buffer:buf.Tir_ir.Buffer.name ~scope ~out:r;
         deep t;
         A.R_block r))

let cache_write t name buf scope =
  as_block
    (step t
       ~key:(fun () ->
         pk
           [
             "cache_write"; Trace.block_key (builder t) name;
             buf.Tir_ir.Buffer.name; scope;
           ])
       ~run:(fun () ->
         let r = Cache.cache_write t name buf scope in
         Trace.record_cache_write (builder t) ~block:name
           ~buffer:buf.Tir_ir.Buffer.name ~scope ~out:r;
         deep t;
         A.R_block r))

let set_scope t buf scope =
  as_buf
    (step t
       ~key:(fun () -> pk [ "set_scope"; buf.Tir_ir.Buffer.name; scope ])
       ~run:(fun () ->
         let r = Cache.set_scope t buf scope in
         Trace.record_set_scope (builder t) ~buffer:buf.Tir_ir.Buffer.name ~scope;
         deep t;
         A.R_buf r))

let blockize t v =
  as_block
    (step t
       ~key:(fun () -> pk [ "blockize"; Trace.loop_key (builder t) v ])
       ~run:(fun () ->
         let r = Blockize.blockize t v in
         Trace.record_blockize (builder t) ~loop:v ~out:r;
         deep t;
         A.R_block r))

let tensorize t v intrin =
  as_block
    (step t
       ~key:(fun () -> pk [ "tensorize"; Trace.loop_key (builder t) v; intrin ])
       ~run:(fun () ->
         let r = Tensorize.tensorize t v intrin in
         Trace.record_tensorize (builder t) ~loop:v ~intrin ~out:r;
         deep t;
         A.R_block r))

let tensorize_block t name intrin =
  as_unit
    (step t
       ~key:(fun () ->
         pk [ "tensorize_block"; Trace.block_key (builder t) name; intrin ])
       ~run:(fun () ->
         Tensorize.tensorize_block t name intrin;
         Trace.record_tensorize_block (builder t) ~block:name ~intrin;
         deep t;
         A.R_unit))

let decompose_reduction t name v =
  as_block
    (step t
       ~key:(fun () ->
         let b = builder t in
         pk [ "decompose_reduction"; Trace.block_key b name; Trace.loop_key b v ])
       ~run:(fun () ->
         let r = Reduction.decompose_reduction t name v in
         Trace.record_decompose_reduction (builder t) ~block:name ~loop:v ~out:r;
         deep t;
         A.R_block r))

let merge_reduction t init update =
  as_unit
    (step t
       ~key:(fun () ->
         let b = builder t in
         pk [ "merge_reduction"; Trace.block_key b init; Trace.block_key b update ])
       ~run:(fun () ->
         Reduction.merge_reduction t init update;
         Trace.record_merge_reduction (builder t) ~init ~update;
         deep t;
         A.R_unit))

let rfactor t name v =
  as_block
    (step t
       ~key:(fun () ->
         let b = builder t in
         pk [ "rfactor"; Trace.block_key b name; Trace.loop_key b v ])
       ~run:(fun () ->
         let r = Reduction.rfactor t name v in
         Trace.record_rfactor (builder t) ~block:name ~loop:v ~out:r;
         deep t;
         A.R_block r))

(* Decisions *)

(** Record a tuning-knob decision on the trace. Sketches call this for the
    full knob vector while scheduling, so a serialized trace carries the
    complete decision assignment it was generated from. [Decide] is not a
    transformation, but it is a trace instruction, so it is a cache step
    like any other — the chain stays in lockstep with the trace. *)
let record_decision t knob choice =
  as_unit
    (step t
       ~key:(fun () -> pk [ "decide"; knob; string_of_int choice ])
       ~run:(fun () ->
         Trace.record_decide (builder t) ~knob ~choice;
         A.R_unit))

(* Validation *)
let validate t = Validate.check_func (func t)
let validate_exn t = Validate.check_exn (func t)
let is_valid t = Validate.is_valid (func t)

let pp = pp_schedule

(* Replay *)

(** Re-apply a trace to a fresh function, re-binding loop and block RVs as
    each instruction defines them. Raises [Schedule_error] on an unbound RV,
    an arity mismatch, or any primitive failure — the trace is re-validated
    by construction since it goes through the same primitives. The rebuilt
    schedule records the same trace: [instructions (replay tr f) = tr].

    The state is cache-enabled, so replay adopts snapshots from the apply
    cache while its steps hit (same physical function, same instructions,
    same domain) and runs the rest. A schedule stores only the step it
    first misses on, so each re-replay of one trace adopts one more step
    than the last; the shared decision-free opening steps of a sketch's
    traces are what it mostly adopts. *)
let replay (tr : Trace.t) (f : Tir_ir.Primfunc.t) : t =
  let t = create_cached f in
  let loops : (Trace.loop_rv, Tir_ir.Var.t) Hashtbl.t = Hashtbl.create 64 in
  let blocks : (Trace.block_rv, string) Hashtbl.t = Hashtbl.create 16 in
  let loop rv =
    match Hashtbl.find_opt loops rv with
    | Some v -> v
    | None -> err "replay: unbound loop RV l%d" rv
  in
  let bind_loop rv v = Hashtbl.replace loops rv v in
  let bind_loops ctx rvs vs =
    if List.length rvs <> List.length vs then
      err "replay: %s binds %d loops, instruction expects %d" ctx (List.length vs)
        (List.length rvs);
    List.iter2 bind_loop rvs vs
  in
  let block = function
    | Trace.Bname n -> n
    | Trace.Brv rv -> (
        match Hashtbl.find_opt blocks rv with
        | Some n -> n
        | None -> err "replay: unbound block RV b%d" rv)
  in
  let bind_block rv n = Hashtbl.replace blocks rv n in
  let buffer name =
    match
      List.find_opt
        (fun b -> String.equal b.Tir_ir.Buffer.name name)
        (Tir_ir.Primfunc.all_buffers (func t))
    with
    | Some b -> b
    | None -> err "replay: buffer %S not found" name
  in
  List.iter
    (fun (i : Trace.instr) ->
      match i with
      | Trace.Get_loops { block = b; outs } ->
          bind_loops "get_loops" outs (get_loops t (block b))
      | Trace.Split { loop = l; factors; outs } ->
          bind_loops "split" outs (split t (loop l) ~factors)
      | Trace.Fuse { a; b; out } -> bind_loop out (fuse t (loop a) (loop b))
      | Trace.Fuse_many { loops = ls; out } ->
          bind_loop out (fuse_many t (List.map loop ls))
      | Trace.Reorder { loops = ls } -> reorder t (List.map loop ls)
      | Trace.Bind { loop = l; thread } -> bind t (loop l) thread
      | Trace.Parallel { loop = l } -> parallel t (loop l)
      | Trace.Vectorize { loop = l } -> vectorize t (loop l)
      | Trace.Unroll { loop = l } -> unroll t (loop l)
      | Trace.Annotate { loop = l; key; value } -> annotate t (loop l) key value
      | Trace.Annotate_block { block = b; key; value } ->
          annotate_block t (block b) key value
      | Trace.Compute_at { block = b; loop = l } -> compute_at t (block b) (loop l)
      | Trace.Reverse_compute_at { block = b; loop = l } ->
          reverse_compute_at t (block b) (loop l)
      | Trace.Compute_inline { block = b } -> compute_inline t (block b)
      | Trace.Reverse_compute_inline { block = b } ->
          reverse_compute_inline t (block b)
      | Trace.Cache_read { block = b; buffer = bufname; scope; out } ->
          bind_block out (cache_read t (block b) (buffer bufname) scope)
      | Trace.Cache_write { block = b; buffer = bufname; scope; out } ->
          bind_block out (cache_write t (block b) (buffer bufname) scope)
      | Trace.Set_scope { buffer = bufname; scope } ->
          ignore (set_scope t (buffer bufname) scope)
      | Trace.Blockize { loop = l; out } -> bind_block out (blockize t (loop l))
      | Trace.Tensorize { loop = l; intrin; out } ->
          bind_block out (tensorize t (loop l) intrin)
      | Trace.Tensorize_block { block = b; intrin } ->
          tensorize_block t (block b) intrin
      | Trace.Decompose_reduction { block = b; loop = l; out } ->
          bind_block out (decompose_reduction t (block b) (loop l))
      | Trace.Merge_reduction { init; update } ->
          merge_reduction t (block init) (block update)
      | Trace.Rfactor { block = b; loop = l; out } ->
          bind_block out (rfactor t (block b) (loop l))
      | Trace.Decide { knob; choice } -> record_decision t knob choice)
    tr;
  t

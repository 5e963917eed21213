(** Tensorized program sketch generation (paper §4.3, Figure 8).

    A sketch fixes the structure — tiling scheme, tensorized inner block,
    AutoCopy data-movement blocks — and exposes knobs (tile sizes,
    cooperative-fetch vectorization, unrolling) that the evolutionary search
    fills in. Data movement is scheduled by a dedicated routine
    ([autocopy_*]), decoupled from the compute schedule, reflecting the
    paper's "data movement as first-class citizen" design.

    Four sketch families:
    - [tensorized_gpu]: Tensor-Core style — block/warp tiling, shared-memory
      staging with cooperative fetch, wmma fragment loads/stores via
      data-movement intrinsics, tensorized inner block;
    - [scalar_gpu]: Ansor-style multi-level tiling without tensorization
      (used for non-tensorizable workloads and as the TVM baseline);
    - [tensorized_cpu]: ARM sdot micro-kernel tiling with register packing;
    - [scalar_cpu]: parallel+vectorize loop tiling. *)

open Tir_ir
module S = Tir_sched.Schedule
module W = Tir_workloads.Workloads
module TI = Tir_intrin.Tensor_intrin

type t = {
  name : string;
  space_id : string;
      (** cache identity: qualifies [name] with the workload's display
          name, a digest of its printed lowered func, and the
          sketch-variant flags. The digest covers everything the display
          name can omit — buffer shapes, dtypes, and the index arithmetic
          encoding strides/pads/dilation — so the id is injective over
          (workload, sketch variant) regardless of naming conventions.
          Measurement memo keys are [space_id | decisions]; a collision
          would silently return another program's latency. *)
  base : string;
      (** how to rebuild the function the sketch schedules from the bare
          workload: the tensorization candidate's intrinsic name, or [""]
          when the sketch starts from [w.func] directly. Stored in database
          records so a trace can be replayed without regenerating the
          sketch. *)
  knobs : Space.knob list;
  rejects : Space.decisions -> bool;
      (** cheap pre-filter: [true] when the decision vector is provably
          inapplicable from the knob values alone — it mirrors {e exactly}
          the explicit early guard checks [apply] performs before
          transforming anything (warp count, thread range, degenerate
          parallelism), so a rejected vector is precisely one [apply] would
          have raised [Schedule_error] on. The evaluator short-circuits
          these to [Inapplicable] without materializing a program. Silent
          in-schedule fallbacks (e.g. vectorization-width demotion) are
          deliberately {e not} mirrored: they produce valid programs. *)
  apply : Space.decisions -> Tir_sched.Schedule.t;
      (** returns the schedule (its trace is the replayable script of
          everything applied, [Decide] records included). Raises
          [Tir_sched.State.Schedule_error] on an inapplicable decision
          vector — the search treats that as an invalid sample — and
          [Space.Unknown_knob] on a vector missing one of [knobs]. *)
}

(* Workload identity independent of naming conventions: the structural
   fingerprint covers every buffer shape, dtype and index expression —
   exactly what the printed lowered func spells out — so two workloads
   fingerprint equal iff they lower to the same program. One tree walk;
   replaces MD5-of-printed-script at a fraction of the cost. *)
let workload_digest (f : Primfunc.t) = Fingerprint.to_hex (Fingerprint.func f)

let make_space_id ?(variant = "") name (w : W.t) =
  name ^ "@" ^ w.W.name ^ "#" ^ workload_digest w.W.func
  ^ if String.equal variant "" then "" else ":" ^ variant

let split2 t v ~factors =
  match S.split t v ~factors with [ a; b ] -> (a, b) | _ -> assert false

let split_list t v ~factors = S.split t v ~factors

let knob name choices = { Space.name; count = List.length choices }

(* Fetch a decision's value out of an alternatives list. Strict: a knob
   name absent from the vector raises [Space.Unknown_knob] instead of
   silently taking choice 0. *)
let pick (d : Space.decisions) name choices = List.nth choices (Space.decide_exn d name)

(* Record the complete knob vector on the schedule trace, in knob-list
   order. The trace then carries the full decision assignment
   ([Trace.decisions]), making a serialized trace self-contained for
   database replay. Strict lookup, so a stale or mistyped vector fails
   loudly here rather than scheduling wrongly.

   Sketches call this {e last}, after all transformations, so every
   vector's trace opens with the sketch's decision-free steps and then
   the steps whose knobs take few values; those opening steps are what
   the apply cache adopts. (Decide instructions placed first would make
   every distinct vector diverge at instruction 0, and no application
   would hit.) Replay of old decide-first traces still works —
   [Trace.decisions] is position-independent. *)
let record_decisions t knobs (d : Space.decisions) =
  List.iter
    (fun (k : Space.knob) -> S.record_decision t k.Space.name (Space.decide_exn d k.Space.name))
    knobs

let last_loops t block n =
  let loops = S.get_loops t block in
  let len = List.length loops in
  List.filteri (fun i _ -> i >= len - n) loops

(* ---------------------------------------------------------------- *)
(* AutoCopy: schedule a data-movement block (paper §4.3).            *)
(* ---------------------------------------------------------------- *)

(* Cooperative fetch on GPU: fuse the copy block's loops, distribute over
   the thread hierarchy, vectorize the innermost elements. *)
let autocopy_gpu t block_name ~warps ~lanes ~vec =
  let loops = S.get_loops t block_name in
  (* Only fuse the loops this block owns (generated by compute_at): they
     are the trailing loops enclosing it that no other block shares. We
     conservatively fuse the loops whose extent product equals the block's
     iteration count; compute_at regenerates exactly those as the innermost
     loops. *)
  let own =
    let b = S.get_block t block_name in
    let n = List.length b.Stmt.iter_vars in
    let len = List.length loops in
    List.filteri (fun i _ -> i >= len - n) loops
  in
  let fused = S.fuse_many t own in
  let total = S.loop_extent t fused in
  let vec = if total mod (warps * lanes * vec) = 0 then vec else 1 in
  if total mod (warps * lanes * vec) = 0 then begin
    let rest, v =
      if vec > 1 then split2 t fused ~factors:[ 0; vec ] else (fused, fused)
    in
    let rest, tx = split2 t rest ~factors:[ 0; lanes ] in
    let _rest, ty = split2 t rest ~factors:[ 0; warps ] in
    S.bind t ty "threadIdx.y";
    S.bind t tx "threadIdx.x";
    if vec > 1 then S.vectorize t v
  end
  else begin
    (* Fallback: lane-distribute only. *)
    if total mod lanes = 0 then begin
      let _rest, tx = split2 t fused ~factors:[ 0; lanes ] in
      S.bind t tx "threadIdx.x"
    end
  end

(* CPU packing copy: vectorize the innermost loop. *)
let autocopy_cpu t block_name ~vec =
  let loops = S.get_loops t block_name in
  match List.rev loops with
  | inner :: _ ->
      let ext = S.loop_extent t inner in
      if vec > 1 && ext mod vec = 0 then begin
        let _, v = split2 t inner ~factors:[ 0; vec ] in
        S.vectorize t v
      end
      else if ext <= 16 then S.vectorize t inner
  | [] -> ()

(* Tensorize a 2-D tile copy block (wmma load/store) whose trailing two
   loops span multiples of (tm, tn). *)
let tensorize_copy t block_name intrin_name ~tm ~tn =
  match last_loops t block_name 2 with
  | [ rows; cols ] ->
      let re = S.loop_extent t rows and ce = S.loop_extent t cols in
      if re mod tm = 0 && ce mod tn = 0 then begin
        let ro, ri = split2 t rows ~factors:[ 0; tm ] in
        let co, ci = split2 t cols ~factors:[ 0; tn ] in
        S.reorder t [ ro; co; ri; ci ];
        ignore (S.tensorize t ri intrin_name);
        ignore (ro, co)
      end
      else Tir_sched.State.err "tensorize_copy: tile (%d,%d) does not divide (%d,%d)" tm tn re ce
  | _ -> Tir_sched.State.err "tensorize_copy: block %s has fewer than 2 loops" block_name

(* ---------------------------------------------------------------- *)
(* GPU tensorized sketch                                              *)
(* ---------------------------------------------------------------- *)

let tensorized_gpu ?(use_wmma_scopes = true) ?(stage_shared = true)
    ?(pipeline = false) ?(simple_copy = false) (cand : Candidate.t) : t =
  let intrin = cand.Candidate.intrin in
  let im, ik, in_ =
    match intrin.TI.desc_params with
    | [ a; b; _ ] -> (
        match (a.Buffer.shape, b.Buffer.shape) with
        | [ m; k ], [ _; n ] -> (m, k, n)
        | _ -> assert false)
    | _ -> assert false
  in
  let m_splits = Space.factor_splits (cand.Candidate.fm / im) 3 in
  let n_splits = Space.factor_splits (cand.Candidate.fn / in_) 3 in
  let k_splits = Space.factor_splits (cand.Candidate.fk / ik) 2 in
  let knobs =
    [
      knob "m" m_splits;
      knob "n" n_splits;
      knob "k" k_splits;
      knob "vec" [ 1; 2; 4; 8 ];
      knob "unroll" [ 0; 1 ];
    ]
  in
  (* Mirrors exactly the guard checks below: a rejected vector is one
     [apply] would have raised on before transforming anything. *)
  let rejects (d : Space.decisions) =
    let m0, m1, _ =
      match pick d "m" m_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let n0, n1, _ =
      match pick d "n" n_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    m1 * n1 > 16 || (m0 * n0 = 1 && cand.Candidate.outer_dims = 0)
  in
  let apply (d : Space.decisions) =
    let t = S.create_cached cand.Candidate.func in
    (* ReIndex upstream stages (padding etc.) fold into the copy-in blocks. *)
    List.iter (fun b -> S.compute_inline t b) cand.Candidate.pre_blocks;
    let cb = cand.Candidate.compute_block in
    let m0, m1, m2 =
      match pick d "m" m_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let n0, n1, n2 =
      match pick d "n" n_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let k0, k1 =
      match pick d "k" k_splits with [ a; b ] -> (a, b) | _ -> assert false
    in
    let warps = m1 * n1 in
    if warps > 16 then Tir_sched.State.err "too many warps (%d)" warps;
    if m0 * n0 = 1 && cand.Candidate.outer_dims = 0 then
      Tir_sched.State.err "no block-level parallelism";
    (* --- compute tiling --- *)
    let loops = S.get_loops t cb in
    let outer, mnk =
      let len = List.length loops in
      ( List.filteri (fun i _ -> i < len - 3) loops,
        List.filteri (fun i _ -> i >= len - 3) loops )
    in
    let fm, fn, fk = match mnk with [ a; b; c ] -> (a, b, c) | _ -> assert false in
    let ms = split_list t fm ~factors:[ m0; m1; m2; im ] in
    let ns = split_list t fn ~factors:[ n0; n1; n2; in_ ] in
    let ks = split_list t fk ~factors:[ k0; k1; ik ] in
    let l i xs = List.nth xs i in
    (* Block tile loops, then the outer reduction (so the shared staging sits
       above the warp binding), then warps, then the warp-level tile. *)
    S.reorder t
      [
        l 0 ms; l 0 ns; l 0 ks; l 1 ms; l 1 ns; l 1 ks; l 2 ms; l 2 ns; l 3 ms;
        l 3 ns; l 2 ks;
      ];
    let bx = S.fuse_many t (outer @ [ l 0 ms; l 0 ns ]) in
    let ty = S.fuse_many t [ l 1 ms; l 1 ns ] in
    S.bind t bx "blockIdx.x";
    S.bind t ty "threadIdx.y";
    ignore ty;
    if pick d "unroll" [ 0; 1 ] = 1 then begin
      S.unroll t (l 2 ms);
      S.unroll t (l 2 ns)
    end;
    if pipeline then S.annotate t (l 0 ks) "software_pipeline" "2";
    (* --- accumulator fragment --- *)
    let c_t_buf =
      match (S.get_block t cb).Stmt.writes with
      | [ w ] -> w.Stmt.buffer
      | _ -> assert false
    in
    let acc_scope = if use_wmma_scopes then "wmma.accumulator" else "local" in
    let cwb = S.cache_write t cb c_t_buf acc_scope in
    (* When the write-back block reads C_t trivially (one iterator per
       dimension, e.g. GMM), the whole epilogue fuses into the kernel and
       C_t is demoted to a per-block shared tile. Convolutions read C_t
       through fused (divmod) indices; there C_t stays in global memory and
       the write-back runs as its own kernel — the extra traffic is exactly
       the layout-rewrite round-trip TVM pays in the same situation. *)
    let wb_trivial =
      List.for_all
        (fun (r : Stmt.buffer_region) ->
          (not (Buffer.equal r.buffer c_t_buf))
          || List.for_all
               (fun (mn, ext) -> match mn with Expr.Var _ -> ext = 1 | _ -> false)
               r.region)
        (S.get_block t cand.Candidate.writeback_block).Stmt.reads
    in
    if wb_trivial then ignore (S.set_scope t c_t_buf "shared");
    (* Accumulator write-out: per-warp fragment -> shared tile after the
       whole reduction, then a cooperative shared -> global write-back. *)
    S.reverse_compute_at t cwb bx;
    (match last_loops t cwb 2 with
    | [ rows; cols ] ->
        let tyr, _rr = split2 t rows ~factors:[ m1; 0 ] in
        let tyc, _cc = split2 t cols ~factors:[ n1; 0 ] in
        S.reorder t [ tyr; tyc; _rr; _cc ];
        let ty2 = S.fuse t tyr tyc in
        S.bind t ty2 "threadIdx.y"
    | _ -> Tir_sched.State.err "accumulator write-out has fewer than 2 loops");
    if wb_trivial then S.reverse_compute_at t cand.Candidate.writeback_block bx;
    (* --- operand staging: global -> shared (cooperative), shared -> frag.
       Staged while the compute block still reads the layout buffers; the
       fragment copies are tensorized after the compute is. --- *)
    let a_t_name, b_t_name =
      match cand.Candidate.copy_in_blocks with
      | [ a; b ] -> (a, b)
      | _ -> assert false
    in
    let stage copy_name frag_scope =
      let buf =
        match (S.get_block t copy_name).Stmt.writes with
        | [ w ] -> w.Stmt.buffer
        | _ -> assert false
      in
      if stage_shared then begin
        let buf = S.set_scope t buf "shared" in
        S.compute_at t copy_name (l 0 ks);
        let vec = if simple_copy then 1 else pick d "vec" [ 1; 2; 4; 8 ] in
        autocopy_gpu t copy_name ~warps ~lanes:32 ~vec;
        let frag = S.cache_read t cb buf frag_scope in
        S.compute_at t frag (l 1 ks);
        frag
      end
      else begin
        (* AMOS-style: no shared staging; fragments filled straight from the
           layout stage (which stays in global memory). *)
        let frag = S.cache_read t cb buf frag_scope in
        S.compute_at t frag (l 1 ks);
        frag
      end
    in
    let a_frag = stage a_t_name (if use_wmma_scopes then "wmma.matrix_a" else "local") in
    let b_frag = stage b_t_name (if use_wmma_scopes then "wmma.matrix_b" else "local") in
    (* --- reduction init --- *)
    ignore (S.decompose_reduction t cb (l 0 ks));
    (* --- tensorize compute and data movement --- *)
    ignore (S.tensorize t (l 3 ms) intrin.TI.name);
    if use_wmma_scopes then begin
      tensorize_copy t a_frag "wmma.load_a" ~tm:im ~tn:ik;
      tensorize_copy t b_frag "wmma.load_b" ~tm:ik ~tn:in_;
      (* The store intrinsic targets shared memory only. *)
      if wb_trivial then tensorize_copy t cwb "wmma.store" ~tm:im ~tn:in_
    end;
    (* --- write-back: fused epilogue or standalone layout kernel --- *)
    if wb_trivial then
      autocopy_gpu t cand.Candidate.writeback_block ~warps ~lanes:32
        ~vec:(pick d "vec" [ 1; 2; 4; 8 ])
    else begin
      let loops = S.get_loops t cand.Candidate.writeback_block in
      let fused = S.fuse_many t loops in
      let total = S.loop_extent t fused in
      let vec = pick d "vec" [ 1; 2; 4; 8 ] in
      let vec = if total mod (128 * vec) = 0 then vec else 1 in
      if total mod (128 * vec) = 0 then begin
        let rest, v =
          if vec > 1 then split2 t fused ~factors:[ 0; vec ] else (fused, fused)
        in
        let bx', tx = split2 t rest ~factors:[ 0; 128 ] in
        S.bind t bx' "blockIdx.x";
        S.bind t tx "threadIdx.x";
        if vec > 1 then S.vectorize t v
      end
      else begin
        let bx', tx = split2 t fused ~factors:[ 0; 32 ] in
        S.bind t bx' "blockIdx.x";
        S.bind t tx "threadIdx.x"
      end
    end;
    record_decisions t knobs d;
    t
  in
  let name = "tensorized-gpu:" ^ intrin.TI.name in
  let variant =
    Printf.sprintf "wmma%c-sh%c-pipe%c-simple%c"
      (if use_wmma_scopes then '1' else '0')
      (if stage_shared then '1' else '0')
      (if pipeline then '1' else '0')
      (if simple_copy then '1' else '0')
  in
  {
    name;
    space_id = make_space_id ~variant name cand.Candidate.workload;
    base = intrin.TI.name;
    knobs;
    rejects;
    apply;
  }

(* ---------------------------------------------------------------- *)
(* GPU scalar (Ansor-style) sketch                                    *)
(* ---------------------------------------------------------------- *)

(* Ansor-style multi-level tiling on the fused iteration space: S is split
   into block / thread / serial / vector levels, R into two levels, with an
   optional shared-memory stage for the inputs (cooperative fetch) and a
   local accumulator — the search space of the loop-oriented compilers the
   paper compares against, with no tensorization. *)
let scalar_gpu ?(allow_shared = true) (w : W.t) : t =
  let out_block = (Te.buffer w.W.out).Buffer.name in
  let shape = Te.shape w.W.out in
  (* Keep the innermost (channel) axis separate from the fused outer
     spatial space: threads and vector lanes run along it, so global
     accesses coalesce — the shape real Ansor conv schedules take. *)
  let chan = List.nth shape (List.length shape - 1) in
  let outer_total = List.fold_left ( * ) 1 shape / chan in
  let reduce_total =
    match w.W.out.Te.kind with
    | Te.Reduce { rdom; _ } -> List.fold_left ( * ) 1 rdom
    | _ -> 1
  in
  let f_splits = Space.factor_splits ~max_factor:256 outer_total 3 in
  let c_splits =
    List.filter
      (fun cs -> match cs with [ _; _; v ] -> v <= 4 | _ -> false)
      (Space.factor_splits ~max_factor:256 chan 3)
  in
  let c_splits = if c_splits = [] then Space.factor_splits ~max_factor:256 chan 3 else c_splits in
  let r_splits = Space.factor_splits ~max_factor:256 reduce_total 2 in
  let knobs =
    [
      knob "f" f_splits;
      knob "c" c_splits;
      knob "r" r_splits;
      knob "shared" (if allow_shared then [ 0; 1 ] else [ 0 ]);
      knob "unroll" [ 0; 1 ];
    ]
  in
  let rejects d =
    let f0, f1, _ =
      match pick d "f" f_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let c0, c1, _ =
      match pick d "c" c_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let threads = f1 * c1 in
    threads > 1024 || threads < 32 || f0 * c0 = 1
  in
  let apply d =
    let t = S.create_cached w.W.func in
    (* Inline padding stages into the consumer. *)
    List.iter
      (fun (br : Stmt.block_realize) ->
        let n = br.block.Stmt.name in
        if not (String.equal n out_block) then S.compute_inline t n)
      (Primfunc.blocks (S.func t));
    let f0, f1, f2 =
      match pick d "f" f_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let c0, c1, c2 =
      match pick d "c" c_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let r0, r1 =
      match pick d "r" r_splits with [ a; b ] -> (a, b) | _ -> assert false
    in
    let threads = f1 * c1 in
    if threads > 1024 || threads < 32 then
      Tir_sched.State.err "thread count %d out of range" threads;
    if f0 * c0 = 1 then Tir_sched.State.err "no block-level parallelism";
    let b = S.get_block t out_block in
    let n_spatial =
      List.length
        (List.filter (fun (iv : Stmt.iter_var) -> iv.itype = Stmt.Spatial) b.Stmt.iter_vars)
    in
    let loops = S.get_loops t out_block in
    let spatial = List.filteri (fun i _ -> i < n_spatial) loops in
    let reduce = List.filteri (fun i _ -> i >= n_spatial) loops in
    let chan_loop = List.nth spatial (n_spatial - 1) in
    let outer_spatial = List.filteri (fun i _ -> i < n_spatial - 1) spatial in
    let fo =
      match outer_spatial with
      | [] -> Tir_sched.State.err "single-axis output unsupported by scalar sketch"
      | [ v ] -> v
      | vs -> S.fuse_many t vs
    in
    let fs = split_list t fo ~factors:[ f0; f1; f2 ] in
    let cs = split_list t chan_loop ~factors:[ c0; c1; c2 ] in
    let l i xs = List.nth xs i in
    let rs =
      if reduce = [] then []
      else
        let fr = S.fuse_many t reduce in
        split_list t fr ~factors:[ r0; r1 ]
    in
    (match rs with
    | [ ra; rb ] ->
        S.reorder t [ l 0 fs; l 0 cs; ra; l 1 fs; l 1 cs; rb; l 2 fs; l 2 cs ]
    | _ -> S.reorder t [ l 0 fs; l 0 cs; l 1 fs; l 1 cs; l 2 fs; l 2 cs ]);
    let bx = S.fuse t (l 0 fs) (l 0 cs) in
    let tx = S.fuse t (l 1 fs) (l 1 cs) in
    S.bind t bx "blockIdx.x";
    S.bind t tx "threadIdx.x";
    if c2 > 1 then S.vectorize t (l 2 cs);
    if pick d "unroll" [ 0; 1 ] = 1 then S.unroll t (l 2 fs);
    (* Local accumulator: write-back after the reduction per thread. *)
    let out_buf =
      match (S.get_block t out_block).Stmt.writes with
      | [ wr ] -> wr.Stmt.buffer
      | _ -> Tir_sched.State.err "expected one write"
    in
    (if rs <> [] then begin
       let cwb = S.cache_write t out_block out_buf "local" in
       S.reverse_compute_at t cwb tx;
       ignore (S.decompose_reduction t out_block (List.nth rs 0))
     end);
    (* Shared staging of the inputs with cooperative fetch. *)
    if pick d "shared" [ 0; 1 ] = 1 && rs <> [] then begin
      let inputs =
        List.filter_map
          (fun (r : Stmt.buffer_region) ->
            if String.equal r.buffer.Buffer.scope "global" then Some r.buffer else None)
          (S.get_block t out_block).Stmt.reads
      in
      List.iter
        (fun buf ->
          let copy = S.cache_read t out_block buf "shared" in
          S.compute_at t copy (List.nth rs 0);
          let own = last_loops t copy (Buffer.ndim buf) in
          let fused = S.fuse_many t own in
          let total = S.loop_extent t fused in
          if total mod threads = 0 then begin
            let _, txl = split2 t fused ~factors:[ 0; threads ] in
            S.bind t txl "threadIdx.x"
          end)
        inputs
    end;
    record_decisions t knobs d;
    t
  in
  let variant = if allow_shared then "sh1" else "sh0" in
  {
    name = "scalar-gpu";
    space_id = make_space_id ~variant "scalar-gpu" w;
    base = "";
    knobs;
    rejects;
    apply;
  }

(* ---------------------------------------------------------------- *)
(* CPU sketches                                                       *)
(* ---------------------------------------------------------------- *)

let tensorized_cpu (cand : Candidate.t) : t =
  let intrin = cand.Candidate.intrin in
  let im, ik, in_ =
    match intrin.TI.desc_params with
    | [ a; b; _ ] -> (
        match (a.Buffer.shape, b.Buffer.shape) with
        | [ m; k ], [ _; n ] -> (m, k, n)
        | _ -> assert false)
    | _ -> assert false
  in
  let m_splits = Space.factor_splits (cand.Candidate.fm / im) 2 in
  let n_splits = Space.factor_splits (cand.Candidate.fn / in_) 2 in
  let k_splits = Space.factor_splits (cand.Candidate.fk / ik) 2 in
  let knobs = [ knob "m" m_splits; knob "n" n_splits; knob "k" k_splits; knob "vec" [ 1; 4; 16 ] ] in
  let apply d =
    let t = S.create_cached cand.Candidate.func in
    List.iter (fun b -> S.compute_inline t b) cand.Candidate.pre_blocks;
    let cb = cand.Candidate.compute_block in
    let m0, m1 = match pick d "m" m_splits with [ a; b ] -> (a, b) | _ -> assert false in
    let n0, n1 = match pick d "n" n_splits with [ a; b ] -> (a, b) | _ -> assert false in
    let k0, k1 = match pick d "k" k_splits with [ a; b ] -> (a, b) | _ -> assert false in
    let loops = S.get_loops t cb in
    let outer, mnk =
      let len = List.length loops in
      ( List.filteri (fun i _ -> i < len - 3) loops,
        List.filteri (fun i _ -> i >= len - 3) loops )
    in
    let fm, fn, fk = match mnk with [ a; b; c ] -> (a, b, c) | _ -> assert false in
    let ms = split_list t fm ~factors:[ m0; m1; im ] in
    let ns = split_list t fn ~factors:[ n0; n1; in_ ] in
    let ks = split_list t fk ~factors:[ k0; k1; ik ] in
    let l i xs = List.nth xs i in
    S.reorder t
      [ l 0 ms; l 0 ns; l 0 ks; l 1 ms; l 1 ns; l 1 ks; l 2 ms; l 2 ns; l 2 ks ];
    let par = S.fuse_many t (outer @ [ l 0 ms; l 0 ns ]) in
    S.parallel t par;
    (* Accumulator register tile (the sdot micro-kernel accumulates in
       registers; "local" models that). *)
    let c_t_buf =
      match (S.get_block t cb).Stmt.writes with
      | [ w ] -> w.Stmt.buffer
      | _ -> assert false
    in
    let cwb = S.cache_write t cb c_t_buf "local" in
    S.reverse_compute_at t cwb (l 1 ns);
    autocopy_cpu t cwb ~vec:(pick d "vec" [ 1; 4; 16 ]);
    (* Register packing for the micro-kernel operands ("interleaved layout"
       requirement of §4.1). *)
    let a_t_name, b_t_name =
      match cand.Candidate.copy_in_blocks with [ a; b ] -> (a, b) | _ -> assert false
    in
    let vec = pick d "vec" [ 1; 4; 16 ] in
    (* Panel packing at the outer reduction level (BLIS-style): each packed
       panel is reused across the whole register-tile sweep rather than
       repacked per micro-kernel invocation. *)
    let pack name =
      let buf =
        match (S.get_block t name).Stmt.writes with
        | [ w ] -> w.Stmt.buffer
        | _ -> assert false
      in
      let buf = S.set_scope t buf "local" in
      S.compute_at t name (l 0 ks);
      autocopy_cpu t name ~vec;
      ignore buf
    in
    pack a_t_name;
    pack b_t_name;
    ignore (S.decompose_reduction t cb (l 0 ks));
    ignore (S.tensorize t (l 2 ms) intrin.TI.name);
    (* Write-back epilogue vectorized. *)
    autocopy_cpu t cand.Candidate.writeback_block ~vec:16;
    record_decisions t knobs d;
    t
  in
  let name = "tensorized-cpu:" ^ intrin.TI.name in
  {
    name;
    space_id = make_space_id name cand.Candidate.workload;
    base = intrin.TI.name;
    knobs;
    (* No knob-derived guard checks: every vector materializes. *)
    rejects = (fun _ -> false);
    apply;
  }

(* Multi-level CPU tiling on the fused iteration space: parallel outer,
   cache-level serial tile, register tile with vectorized lanes and a local
   accumulator — the quality bar of TVM's CPU auto-scheduler, without the
   tensor intrinsic. *)
let scalar_cpu (w : W.t) : t =
  let out_block = (Te.buffer w.W.out).Buffer.name in
  let shape = Te.shape w.W.out in
  let total = List.fold_left ( * ) 1 shape in
  let chan_total = List.nth shape (List.length shape - 1) in
  let outer_total = total / chan_total in
  (* When there is outer spatial extent, the channel axis carries the
     vector lanes and the rest is fused and tiled; degenerate outputs
     (e.g. a 1xN fully-connected layer) tile the channel axis itself. *)
  let sep = outer_total > 1 in
  let reduce_total =
    match w.W.out.Te.kind with
    | Te.Reduce { rdom; _ } -> List.fold_left ( * ) 1 rdom
    | _ -> 1
  in
  let s_splits =
    Space.factor_splits ~max_factor:64 (if sep then outer_total else chan_total) 3
  in
  let r_splits = Space.factor_splits ~max_factor:256 reduce_total 2 in
  let knobs = [ knob "s" s_splits; knob "r" r_splits; knob "vec" [ 0; 1 ] ] in
  let rejects d =
    match pick d "s" s_splits with [ s0; _; _ ] -> s0 = 1 | _ -> assert false
  in
  let apply d =
    let t = S.create_cached w.W.func in
    List.iter
      (fun (br : Stmt.block_realize) ->
        let n = br.block.Stmt.name in
        if not (String.equal n out_block) then S.compute_inline t n)
      (Primfunc.blocks (S.func t));
    let s0, s1, s2 =
      match pick d "s" s_splits with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    let r0, r1 =
      match pick d "r" r_splits with [ a; b ] -> (a, b) | _ -> assert false
    in
    if s0 = 1 then Tir_sched.State.err "no parallelism";
    let b = S.get_block t out_block in
    let n_spatial =
      List.length
        (List.filter (fun (iv : Stmt.iter_var) -> iv.itype = Stmt.Spatial) b.Stmt.iter_vars)
    in
    let loops = S.get_loops t out_block in
    let spatial = List.filteri (fun i _ -> i < n_spatial) loops in
    let reduce = List.filteri (fun i _ -> i >= n_spatial) loops in
    (* Keep the channel axis for the vector lanes (contiguous NEON loads);
       fuse and tile the remaining spatial space. *)
    let chan_loop = List.nth spatial (n_spatial - 1) in
    let outer_spatial = List.filteri (fun i _ -> i < n_spatial - 1) spatial in
    let chan_ext = S.loop_extent t chan_loop in
    let fs =
      if not sep then chan_loop
      else
        match outer_spatial with
        | [ v ] -> v
        | vs -> S.fuse_many t vs
    in
    let ss = split_list t fs ~factors:[ s0; s1; s2 ] in
    let par = List.nth ss 0 and sc = List.nth ss 1 and sv = List.nth ss 2 in
    let vec_width = if chan_ext mod 16 = 0 then 16 else if chan_ext mod 8 = 0 then 8 else 1 in
    let co, cv =
      if sep && vec_width > 1 then
        let a, b' = split2 t chan_loop ~factors:[ 0; vec_width ] in
        (Some a, Some b')
      else (None, None)
    in
    let rs =
      if reduce = [] then []
      else
        let fr = S.fuse_many t reduce in
        split_list t fr ~factors:[ r0; r1 ]
    in
    let tail = Option.to_list co @ Option.to_list cv in
    (match rs with
    | [ ra; rb ] -> S.reorder t ([ par; sc; ra; rb; sv ] @ tail)
    | _ -> S.reorder t ([ par; sc; sv ] @ tail));
    S.parallel t par;
    (match cv with
    | Some v -> S.vectorize t v
    | None -> if pick d "vec" [ 0; 1 ] = 1 && s2 > 1 && s2 <= 16 then S.vectorize t sv);
    (* Register accumulator per cache tile. *)
    let out_buf =
      match (S.get_block t out_block).Stmt.writes with
      | [ wr ] -> wr.Stmt.buffer
      | _ -> Tir_sched.State.err "expected one write"
    in
    (if rs <> [] then begin
       let cwb = S.cache_write t out_block out_buf "local" in
       S.reverse_compute_at t cwb sc;
       autocopy_cpu t cwb ~vec:8;
       ignore (S.decompose_reduction t out_block (List.nth rs 0))
     end);
    record_decisions t knobs d;
    t
  in
  {
    name = "scalar-cpu";
    space_id = make_space_id "scalar-cpu" w;
    base = "";
    knobs;
    rejects;
    apply;
  }

(** Sketches for a workload on a target, given available intrinsics. *)
let generate (target : Tir_sim.Target.t) (w : W.t) (intrins : TI.t list) : t list =
  let cands = Candidate.candidates w intrins in
  match target.Tir_sim.Target.kind with
  | Tir_sim.Target.Gpu ->
      List.map (fun c -> tensorized_gpu c) cands @ [ scalar_gpu w ]
  | Tir_sim.Target.Cpu -> List.map tensorized_cpu cands @ [ scalar_cpu w ]

(** Analytic machine model: deterministic latency for a scheduled PrimFunc.

    Plays the role of the paper's hardware measurement step. The model walks
    the program, aggregating issued work per pipe (scalar ALU, special
    function, tensor unit) and bytes moved per storage scope (with
    coalescing/bank-conflict penalties derived from the access pattern
    against the innermost lane variable), then applies a roofline with
    occupancy and core-count scaling per root-level nest. Everything is a
    pure function of the program, so search results are reproducible. *)

open Tir_ir
module Simplify = Tir_arith.Simplify

exception Unsupported of string

type tally = {
  mutable scalar_ops : float;
  mutable special_ops : float;
  mutable tensor_flops : float;
  mutable intrin_calls : float;
  mutable blocks : int;  (** block nodes visited during the walk *)
  mutable bytes_global : float;
  mutable bytes_shared : float;
  mutable bytes_local : float;
  mutable loop_overhead : float;
  mutable blockidx : int;
  mutable threadidx : int;
  mutable parallel : int;
  mutable vectorized_frac : float;  (** fraction of scalar work vectorized *)
  mutable uses_tensor_core : bool;
  mutable pipelined : bool;  (** software pipelining annotation present *)
}

let new_tally () =
  {
    scalar_ops = 0.0;
    special_ops = 0.0;
    tensor_flops = 0.0;
    intrin_calls = 0.0;
    blocks = 0;
    bytes_global = 0.0;
    bytes_shared = 0.0;
    bytes_local = 0.0;
    loop_overhead = 0.0;
    blockidx = 1;
    threadidx = 1;
    parallel = 1;
    vectorized_frac = 0.0;
    uses_tensor_core = false;
    pipelined = false;
  }

type walk_ctx = {
  trip : float;
  flop_scale : float;  (** < 1 under vectorized loops *)
  lane : Var.t option;  (** coalescing variable *)
  lane_width : int;
  subst : Expr.t Var.Map.t;  (** block iterator values *)
  ranges : Bound.interval Var.Map.t;  (** loop variable ranges in scope *)
  block_par : int;  (** product of blockIdx extents on this path *)
  thread_par : int;  (** product of threadIdx extents on this path *)
  cpu_par : int;  (** product of parallel-loop extents on this path *)
  reduce_scale : float;  (** fraction of instances executing init *)
}

(* Parallelism is a per-path property: sibling nests (separate stages of
   one kernel) each have their own bindings; record the maximum. *)
let note_parallelism (t : tally) ctx =
  t.blockidx <- max t.blockidx ctx.block_par;
  t.threadidx <- max t.threadidx ctx.thread_par;
  t.parallel <- max t.parallel ctx.cpu_par

let scope_add (t : tally) scope bytes =
  if String.equal scope "global" then t.bytes_global <- t.bytes_global +. bytes
  else if String.equal scope "shared" then t.bytes_shared <- t.bytes_shared +. bytes
  else t.bytes_local <- t.bytes_local +. bytes

(* Flatten a multi-dim index and extract the per-lane address stride (in
   elements). Linear lane usage yields the exact coefficient; div/mod usage
   (fused-loop decode) is estimated as the average step across the lane
   range, with the other loop variables relaxed — so a row index like
   [f / 1024] under a 32-wide lane correctly reads as near-broadcast. *)
(* Whether [e] can mention the lane variable once block iterators are
   substituted — a variable reaches the lane only directly or through a
   substitution image, so scanning free variables is exact. *)
let touches_lane ctx lane e =
  Var.Set.exists
    (fun v ->
      Var.equal v lane
      ||
      match Var.Map.find_opt v ctx.subst with
      | Some img -> Expr.uses_var lane img
      | None -> false)
    (Expr.free_vars e)

let lane_coeff ctx (b : Buffer.t) idx =
  match ctx.lane with
  | None -> None
  | Some lane ->
      if not (List.exists (touches_lane ctx lane) idx) then
        (* Lane-invariant address: the flattened linear form would carry
           no lane term, so the coefficient is exactly zero. Skipping
           the flatten/substitute/simplify pipeline here is the single
           biggest saving in feature extraction. *)
        Some 0.0
      else
      let strides =
        let rec go = function
          | [] -> []
          | [ _ ] -> [ 1 ]
          | _ :: rest ->
              let tail = go rest in
              (List.hd tail * List.hd rest) :: tail
        in
        go b.shape
      in
      let flat =
        (* Only lane-touching dimensions can contribute lane terms to the
           linear form, and the extraction below drops every other term —
           so flatten just those, which keeps the simplifier input small
           on high-rank accesses. *)
        List.fold_left2
          (fun acc i s ->
            if touches_lane ctx lane i then Expr.add acc (Expr.mul i (Expr.Int s))
            else acc)
          (Expr.Int 0) idx strides
      in
      let flat = Expr.subst_map ctx.subst flat in
      let l = Simplify.simplify_linear Simplify.empty_ctx flat in
      let exact = ref 0 and fuzzy = ref [] in
      List.iter
        (fun (atom, c) ->
          match atom with
          | Expr.Var v when Var.equal v lane -> exact := !exact + c
          | e when Expr.uses_var lane e -> fuzzy := (e, c) :: !fuzzy
          | _ -> ())
        l.Simplify.terms;
      let width = max 2 ctx.lane_width in
      let estimate (e, c) =
        let at lv =
          Expr.subst (fun v -> if Var.equal v lane then Some (Expr.Int lv) else None) e
        in
        let diff =
          Simplify.simplify Simplify.empty_ctx (Expr.sub (at (width - 1)) (at 0))
        in
        match Bound.of_expr_map ctx.ranges diff with
        | Some { Bound.lo; hi } ->
            float_of_int (c * (lo + hi)) /. 2.0 /. float_of_int (width - 1)
        | None -> float_of_int (c * 64)
      in
      let total =
        List.fold_left (fun acc t -> acc +. estimate t) (float_of_int !exact) !fuzzy
      in
      Some total

(* Bytes multiplier for one access under the current lane. *)
let access_factor ctx (b : Buffer.t) idx =
  let eb = float_of_int (Dtype.bytes b.dtype) in
  match lane_coeff ctx b idx with
  | None -> eb
  | Some c when Float.abs c < 0.25 ->
      eb /. float_of_int (max 1 ctx.lane_width) (* broadcast: one transaction *)
  | Some c ->
      let stride_bytes = Float.abs c *. eb in
      if stride_bytes <= 16.0 then eb else eb *. Float.min 8.0 (stride_bytes /. 16.0)

let rec count_expr (t : tally) ctx (e : Expr.t) =
  match e with
  | Expr.Int _ | Expr.Float _ | Expr.Bool _ | Expr.Var _ -> ()
  | Expr.Load (b, idx) ->
      List.iter (count_expr t ctx) idx;
      scope_add t b.Buffer.scope (ctx.trip *. access_factor ctx b idx)
  | Expr.Call (name, _, args) ->
      List.iter (count_expr t ctx) args;
      if not (String.length name > 4 && String.equal (String.sub name 0 4) "tir.") then
        t.special_ops <- t.special_ops +. (ctx.trip *. ctx.flop_scale)
  | Expr.Ptr (_, idx) -> List.iter (count_expr t ctx) idx
  | Expr.Bin ((Expr.Div | Expr.Mod), a, b) ->
      count_expr t ctx a;
      count_expr t ctx b;
      t.scalar_ops <- t.scalar_ops +. (4.0 *. ctx.trip *. ctx.flop_scale)
  | Expr.Bin (_, a, b) | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b) ->
      count_expr t ctx a;
      count_expr t ctx b;
      t.scalar_ops <- t.scalar_ops +. (ctx.trip *. ctx.flop_scale)
  | Expr.Not a | Expr.Cast (_, a) -> count_expr t ctx a
  | Expr.Select (c, a, b) ->
      count_expr t ctx c;
      count_expr t ctx a;
      count_expr t ctx b;
      t.scalar_ops <- t.scalar_ops +. (ctx.trip *. ctx.flop_scale)

let intrinsic_flops name args =
  match (name, args) with
  | ("tir.mma_sync" | "tir.sdot"), Expr.Int m :: Expr.Int n :: Expr.Int k :: _ ->
      `Mma (m, n, k)
  | ("tir.load_matrix_sync" | "tir.store_matrix_sync" | "tir.async_copy"),
    Expr.Int m :: Expr.Int n :: _ ->
      `Copy (m, n)
  | _ -> `Other

let count_intrinsic (t : tally) ctx name args =
  match intrinsic_flops name args with
  | `Mma (m, n, k) ->
      t.tensor_flops <- t.tensor_flops +. (2.0 *. float_of_int (m * n * k) *. ctx.trip);
      t.intrin_calls <- t.intrin_calls +. ctx.trip;
      t.uses_tensor_core <- true;
      (* Operand traffic from the pointed-to scopes, fully coalesced. *)
      List.iter
        (fun (a : Expr.t) ->
          match a with
          | Expr.Ptr (b, _) ->
              let tile =
                match b.Buffer.shape with
                | _ -> float_of_int ((m * k) + (k * n) + (m * n)) /. 3.0
              in
              scope_add t b.Buffer.scope
                (ctx.trip *. tile *. float_of_int (Dtype.bytes b.Buffer.dtype))
          | _ -> ())
        args
  | `Copy (m, n) ->
      t.intrin_calls <- t.intrin_calls +. ctx.trip;
      List.iter
        (fun (a : Expr.t) ->
          match a with
          | Expr.Ptr (b, _) ->
              scope_add t b.Buffer.scope
                (ctx.trip *. float_of_int (m * n * Dtype.bytes b.Buffer.dtype))
          | _ -> ())
        args
  | `Other -> ()

let rec walk target (t : tally) ctx (s : Stmt.t) =
  match s with
  | Stmt.For r -> (
      if List.mem_assoc "software_pipeline" r.annotations then t.pipelined <- true;
      let extent = float_of_int r.extent in
      let ctx =
        { ctx with ranges = Var.Map.add r.loop_var (Bound.of_extent r.extent) ctx.ranges }
      in
      match r.kind with
      | Stmt.Serial ->
          t.loop_overhead <- t.loop_overhead +. (ctx.trip *. extent *. 0.5);
          walk target t { ctx with trip = ctx.trip *. extent } r.body
      | Stmt.Unrolled -> walk target t { ctx with trip = ctx.trip *. extent } r.body
      | Stmt.Vectorized ->
          let lanes = min r.extent target.Target.vector_width in
          t.vectorized_frac <- 1.0;
          walk target t
            {
              ctx with
              trip = ctx.trip *. extent;
              flop_scale = ctx.flop_scale /. float_of_int lanes;
              lane = Some r.loop_var;
              lane_width = r.extent;
            }
            r.body
      | Stmt.Parallel ->
          let ctx = { ctx with cpu_par = ctx.cpu_par * r.extent } in
          note_parallelism t ctx;
          walk target t { ctx with trip = ctx.trip *. extent } r.body
      | Stmt.Thread_binding axis ->
          let ctx =
            if String.length axis >= 8 && String.equal (String.sub axis 0 8) "blockIdx"
            then { ctx with block_par = ctx.block_par * r.extent }
            else { ctx with thread_par = ctx.thread_par * r.extent }
          in
          note_parallelism t ctx;
          let ctx =
            if String.equal axis "threadIdx.x" then
              { ctx with lane = Some r.loop_var; lane_width = r.extent }
            else ctx
          in
          walk target t { ctx with trip = ctx.trip *. extent } r.body)
  | Stmt.Seq ss -> List.iter (walk target t ctx) ss
  | Stmt.If (c, th, el) ->
      count_expr t ctx c;
      walk target t ctx th;
      Option.iter (walk target t ctx) el
  | Stmt.Store (b, idx, v) ->
      List.iter (count_expr t ctx) idx;
      count_expr t ctx v;
      scope_add t b.Buffer.scope (ctx.trip *. access_factor ctx b idx)
  | Stmt.Eval (Expr.Call (name, _, args))
    when String.length name > 4 && String.equal (String.sub name 0 4) "tir." ->
      count_intrinsic t ctx name args
  | Stmt.Eval e -> count_expr t ctx e
  | Stmt.Block br ->
      t.blocks <- t.blocks + 1;
      let b = br.Stmt.block in
      (match List.assoc_opt "tensorized" b.annotations with
      | Some intrin when not (Target.supports target intrin) ->
          raise (Unsupported intrin)
      | _ -> ());
      let subst =
        List.fold_left2
          (fun m (iv : Stmt.iter_var) value ->
            Var.Map.add iv.var (Expr.subst_map ctx.subst value) m)
          ctx.subst b.iter_vars br.Stmt.iter_values
      in
      let ctx = { ctx with subst } in
      let reduce_product =
        List.fold_left
          (fun acc (iv : Stmt.iter_var) ->
            if iv.itype = Stmt.Reduce then acc * iv.extent else acc)
          1 b.iter_vars
      in
      (match b.init with
      | Some init ->
          walk target t { ctx with trip = ctx.trip /. float_of_int reduce_product } init
      | None -> ());
      walk target t ctx b.body

let tally_of_nest target (s : Stmt.t) =
  let t = new_tally () in
  walk target t
    {
      trip = 1.0;
      flop_scale = 1.0;
      lane = None;
      lane_width = 1;
      subst = Var.Map.empty;
      ranges = Var.Map.empty;
      block_par = 1;
      thread_par = 1;
      cpu_par = 1;
      reduce_scale = 1.0;
    }
    s;
  t

(** Per-nest tallies of the root-level nests, in program order. *)
let walk target (f : Primfunc.t) =
  let root = Primfunc.root_block f in
  let nests = match root.Stmt.body with Stmt.Seq ss -> ss | s -> [ s ] in
  List.map (tally_of_nest target) nests

let clampf lo hi x = Float.max lo (Float.min hi x)

(* Latency of one root-level nest, in microseconds. *)
let nest_latency_us target (t : tally) =
  let fcores = float_of_int target.Target.num_cores in
  let cores_used, occ =
    match target.Target.kind with
    | Target.Gpu ->
        let blocks = float_of_int t.blockidx in
        let waves = Float.max 1.0 (Float.ceil (blocks /. fcores)) in
        let eff = if blocks <= 0.0 then 1.0 else blocks /. waves in
        let occ =
          clampf (1.0 /. 32.0) 1.0
            (float_of_int t.threadidx /. float_of_int target.Target.full_occupancy_threads)
        in
        (Float.max 1.0 eff, occ)
    | Target.Cpu ->
        let par = float_of_int t.parallel in
        let waves = Float.max 1.0 (Float.ceil (par /. fcores)) in
        (Float.max 1.0 (par /. waves), 1.0)
  in
  let compute_cycles =
    (t.scalar_ops +. (0.5 *. t.loop_overhead))
    /. (target.Target.scalar_rate *. cores_used *. occ)
  in
  let special_cycles = t.special_ops /. (target.Target.special_rate *. cores_used *. occ) in
  let tensor_cycles = t.tensor_flops /. (target.Target.tensor_rate *. cores_used *. occ) in
  let mem_global = t.bytes_global /. target.Target.global_bw in
  let mem_shared = t.bytes_shared /. (target.Target.shared_bw *. cores_used) in
  let mem_local = t.bytes_local /. (target.Target.local_bw *. cores_used) in
  let bound =
    List.fold_left Float.max 0.0
      [ compute_cycles +. special_cycles; tensor_cycles; mem_global; mem_shared; mem_local ]
  in
  (* Software pipelining (cp.async double buffering, as vendor libraries
     emit) overlaps the non-dominant pipes almost completely. *)
  let overlap = if t.pipelined then 0.01 else 0.05 in
  let bound = if t.pipelined then bound *. 0.92 else bound in
  let cycles =
    bound
    +. (overlap
       *. (compute_cycles +. special_cycles +. tensor_cycles +. mem_global +. mem_shared))
  in
  (cycles /. (target.Target.clock_ghz *. 1000.0)) +. target.Target.kernel_launch_us

(* Simulated-program counters: what the machine model "executed" across
   every measured program. Integer-valued (bytes rounded per measurement),
   so the totals are order-independent and bit-identical at any job count
   even though measurements run on pool domains — and they are only bumped
   inside [price], which the tuner reaches through the measurement
   memo, so a deterministic search executes the same set of simulations
   regardless of parallelism. [sim.bytes.*] per scope is the data the
   paper's "data movement dominates" claim is made from. *)
let m_measurements = Tir_obs.Metrics.counter "sim.measurements"
let m_nests = Tir_obs.Metrics.counter "sim.nests"
let m_blocks = Tir_obs.Metrics.counter "sim.blocks_visited"
let m_tensor_ops = Tir_obs.Metrics.counter "sim.tensorized_ops"
let m_tensor_flops = Tir_obs.Metrics.counter "sim.tensor_flops"
let m_scalar_ops = Tir_obs.Metrics.counter "sim.scalar_ops"
let m_bytes_global = Tir_obs.Metrics.counter "sim.bytes.global"
let m_bytes_shared = Tir_obs.Metrics.counter "sim.bytes.shared"
let m_bytes_local = Tir_obs.Metrics.counter "sim.bytes.local"

(* Per-nest data-movement distributions (the totals above hide shape:
   one huge kernel and a thousand small ones sum the same). The default
   power-of-two buckets span bytes-per-nest from 1 B to ~0.5 TB. *)
let h_bytes_global = Tir_obs.Metrics.histogram "sim.bytes_per_nest.global"
let h_bytes_shared = Tir_obs.Metrics.histogram "sim.bytes_per_nest.shared"
let h_bytes_local = Tir_obs.Metrics.histogram "sim.bytes_per_nest.local"

let round_int v = int_of_float (Float.round v)

let record_tally (t : tally) =
  Tir_obs.Metrics.add m_blocks t.blocks;
  Tir_obs.Metrics.add m_tensor_ops (round_int t.intrin_calls);
  Tir_obs.Metrics.add m_tensor_flops (round_int t.tensor_flops);
  Tir_obs.Metrics.add m_scalar_ops (round_int t.scalar_ops);
  Tir_obs.Metrics.add m_bytes_global (round_int t.bytes_global);
  Tir_obs.Metrics.add m_bytes_shared (round_int t.bytes_shared);
  Tir_obs.Metrics.add m_bytes_local (round_int t.bytes_local);
  Tir_obs.Metrics.observe h_bytes_global t.bytes_global;
  Tir_obs.Metrics.observe h_bytes_shared t.bytes_shared;
  Tir_obs.Metrics.observe h_bytes_local t.bytes_local

let maybe_fail fault_key =
  Option.iter (fun key -> Tir_core.Fault.maybe_fail Tir_core.Fault.Measure ~key) fault_key

(** Latency of a whole function from its per-nest tallies ([walk]), in
    microseconds. Root-level nests execute sequentially (separate kernels
    on GPU), each paying the launch overhead. Each call also feeds the
    simulated-program counters ([sim.*]) in the metrics registry.

    [fault_key] opts the call into fault injection: when the harness is
    configured ([Tir_core.Fault]) and the keyed decision for
    ([Measure], [fault_key]) fires, the call raises
    [Tir_core.Fault.Injected] {e before} touching any counter — a lost
    measurement leaves no partial state behind. Retrying callers vary the
    key per attempt. *)
let price ?fault_key target nests =
  maybe_fail fault_key;
  Tir_obs.Metrics.incr m_measurements;
  Tir_obs.Metrics.add m_nests (List.length nests);
  List.fold_left
    (fun acc t ->
      record_tally t;
      acc +. nest_latency_us target t)
    0.0 nests

(** [price] of [walk]: a fault fires before the walk, and [Unsupported]
    is raised by the walk, before any counter moves. *)
let measure_us ?fault_key target (f : Primfunc.t) =
  maybe_fail fault_key;
  price target (walk target f)

(** Aggregate tally of a function's nests (feature extraction): work and
    traffic sum across root-level nests; parallelism shape takes the
    maximum (nests are separate kernels, not multiplied). *)
let sum nests =
  let acc = new_tally () in
  List.iter
    (fun t ->
      acc.scalar_ops <- acc.scalar_ops +. t.scalar_ops;
      acc.special_ops <- acc.special_ops +. t.special_ops;
      acc.tensor_flops <- acc.tensor_flops +. t.tensor_flops;
      acc.intrin_calls <- acc.intrin_calls +. t.intrin_calls;
      acc.blocks <- acc.blocks + t.blocks;
      acc.bytes_global <- acc.bytes_global +. t.bytes_global;
      acc.bytes_shared <- acc.bytes_shared +. t.bytes_shared;
      acc.bytes_local <- acc.bytes_local +. t.bytes_local;
      acc.loop_overhead <- acc.loop_overhead +. t.loop_overhead;
      acc.blockidx <- max acc.blockidx t.blockidx;
      acc.threadidx <- max acc.threadidx t.threadidx;
      acc.parallel <- max acc.parallel t.parallel;
      acc.vectorized_frac <- Float.max acc.vectorized_frac t.vectorized_frac;
      acc.uses_tensor_core <- acc.uses_tensor_core || t.uses_tensor_core;
      acc.pipelined <- acc.pipelined || t.pipelined)
    nests;
  acc

(** Program feature extraction for the learned cost model (paper §4.4).

    Features come from two sources, mirroring the paper: the machine-model
    tally (work per pipe, bytes per scope, parallelism — derived from block
    signatures without inspecting opaque bodies) and structural properties
    (tensorization, vectorization, thread shape). Log-scaled so the boosted
    trees see well-conditioned inputs. *)

open Tir_ir

let dim = 18

let log1 x = Float.log (1.0 +. Float.max 0.0 x)

let of_nests (target : Tir_sim.Target.t) (f : Primfunc.t) nests : float array =
  let t = Tir_sim.Machine.sum nests in
  let blocks = Primfunc.blocks f in
  let n_blocks = float_of_int (List.length blocks) in
  let tensorized =
    List.exists
      (fun (br : Stmt.block_realize) ->
        List.mem_assoc "tensorized" br.block.Stmt.annotations)
      blocks
  in
  let shared_bufs =
    List.length
      (List.filter
         (fun (b : Buffer.t) -> String.equal b.scope "shared")
         (Primfunc.alloc_buffers f))
  in
  let open Tir_sim.Machine in
  [|
    log1 t.scalar_ops;
    log1 t.special_ops;
    log1 t.tensor_flops;
    log1 t.intrin_calls;
    log1 t.bytes_global;
    log1 t.bytes_shared;
    log1 t.bytes_local;
    log1 t.loop_overhead;
    log1 (float_of_int t.blockidx);
    log1 (float_of_int t.threadidx);
    log1 (float_of_int t.parallel);
    (if tensorized then 1.0 else 0.0);
    t.vectorized_frac;
    log1 (float_of_int shared_bufs);
    log1 n_blocks;
    (* Arithmetic intensity proxies: compute per byte moved. *)
    log1 ((t.scalar_ops +. t.tensor_flops) /. (1.0 +. t.bytes_global));
    log1 ((t.scalar_ops +. t.tensor_flops) /. (1.0 +. t.bytes_shared));
    (* Occupancy proxy. *)
    Float.min 1.0
      (float_of_int t.threadidx /. float_of_int target.Tir_sim.Target.full_occupancy_threads);
  |]

let extract target f = of_nests target f (Tir_sim.Machine.walk target f)

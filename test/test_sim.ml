(** Machine model: the orderings the paper's evaluation depends on must hold
    structurally — tensorized beats scalar, coalesced beats strided, more
    parallelism is faster, unsupported intrinsics are rejected. *)

open Tir_ir
module S = Tir_sched.Schedule
module M = Tir_sim.Machine
module T = Tir_sim.Target

let gpu = T.gpu_tensorcore
let cpu = T.arm_sdot

let measure = M.measure_us

let test_tensorized_faster () =
  let original = Util.matmul ~m:64 ~n:64 ~k:64 () in
  let t = S.create original in
  (match S.get_loops t "C" with
  | [ i; j; k ] ->
      let io, ii =
        match S.split t i ~factors:[ 16; 4 ] with [ a; b ] -> (a, b) | _ -> assert false
      in
      let jo, ji =
        match S.split t j ~factors:[ 16; 4 ] with [ a; b ] -> (a, b) | _ -> assert false
      in
      let ko, ki =
        match S.split t k ~factors:[ 16; 4 ] with [ a; b ] -> (a, b) | _ -> assert false
      in
      S.reorder t [ io; jo; ko; ii; ji; ki ];
      ignore (S.decompose_reduction t "C" ko);
      ignore (S.tensorize t ii "accel.dot_4x4x4");
      S.bind t io "blockIdx.x";
      S.bind t jo "threadIdx.y"
  | _ -> assert false);
  let scalar = measure gpu original and tensor = measure gpu (S.func t) in
  Alcotest.(check bool)
    (Printf.sprintf "tensorized (%.1f) much faster than scalar (%.1f)" tensor scalar)
    true
    (tensor *. 2.0 < scalar)

let with_bound_matmul f =
  let original = Util.matmul ~m:64 ~n:64 ~k:64 () in
  let t = S.create original in
  (match S.get_loops t "C" with
  | [ i; j; _k ] -> f t i j
  | _ -> assert false);
  S.func t

let test_parallelism_faster () =
  let serial = with_bound_matmul (fun _ _ _ -> ()) in
  let threaded =
    with_bound_matmul (fun t i j ->
        S.bind t i "blockIdx.x";
        S.bind t j "threadIdx.x")
  in
  Alcotest.(check bool) "thread-parallel faster" true
    (measure gpu threaded < measure gpu serial)

let test_coalescing () =
  (* C[i,j] = A[i,j] (coalesced via threadIdx.x on j) vs C[i,j] = A[j,i]
     (strided): the transposed read must cost more. *)
  let build transposed =
    let a = Te.placeholder "A" [ 256; 256 ] Dtype.F32 in
    let c =
      Te.compute "C" [ 256; 256 ] (fun idx ->
          match idx with
          | [ i; j ] -> if transposed then Te.get a [ j; i ] else Te.get a [ i; j ]
          | _ -> assert false)
    in
    let f = Te.lower ~name:"copy" ~args:[ a; c ] [ c ] in
    let t = S.create f in
    (match S.get_loops t "C" with
    | [ i; j ] ->
        S.bind t i "blockIdx.x";
        S.bind t j "threadIdx.x"
    | _ -> assert false);
    S.func t
  in
  let direct = measure gpu (build false) and transposed = measure gpu (build true) in
  Alcotest.(check bool)
    (Printf.sprintf "strided (%.2f) slower than coalesced (%.2f)" transposed direct)
    true (transposed > direct *. 1.5)

let test_cpu_parallel_and_vector () =
  let serial = Util.matmul ~m:64 ~n:64 ~k:64 () in
  let par =
    let t = S.create (Util.matmul ~m:64 ~n:64 ~k:64 ()) in
    (match S.get_loops t "C" with
    | [ i; j; _ ] ->
        S.parallel t i;
        S.vectorize t j
    | _ -> assert false);
    S.func t
  in
  Alcotest.(check bool) "parallel+vector faster on CPU" true
    (measure cpu par < measure cpu serial)

let test_unsupported_intrinsic () =
  (* The ARM target must reject wmma-tensorized programs. *)
  let t = S.create (Util.matmul ~m:64 ~n:64 ~k:64 ()) in
  (match S.get_loops t "C" with
  | [ i; j; k ] ->
      let io, ii =
        match S.split t i ~factors:[ 16; 4 ] with [ a; b ] -> (a, b) | _ -> assert false
      in
      let _, ji =
        match S.split t j ~factors:[ 16; 4 ] with [ a; b ] -> (a, b) | _ -> assert false
      in
      let ko, ki =
        match S.split t k ~factors:[ 16; 4 ] with [ a; b ] -> (a, b) | _ -> assert false
      in
      S.reorder t [ io; ko; ii; ji; ki ];
      ignore (S.decompose_reduction t "C" ko);
      ignore (S.tensorize t ii "accel.dot_4x4x4")
  | _ -> assert false);
  (match M.measure_us cpu (S.func t) with
  | exception M.Unsupported _ -> ()
  | _ -> Alcotest.fail "arm target must reject accel.dot_4x4x4");
  (* while the GPU target accepts it *)
  ignore (M.measure_us gpu (S.func t))

let test_pipelining_discount () =
  let base = with_bound_matmul (fun t i j -> S.bind t i "blockIdx.x"; S.bind t j "threadIdx.x") in
  let piped =
    let t = S.create base in
    (match S.get_loops t "C" with
    | [ _; _; k ] -> S.annotate t k "software_pipeline" "2"
    | _ -> assert false);
    S.func t
  in
  Alcotest.(check bool) "pipelined faster" true (measure gpu piped < measure gpu base)

let test_determinism () =
  let f = Util.matmul ~m:32 ~n:32 ~k:32 () in
  Alcotest.(check (float 0.0)) "deterministic" (measure gpu f) (measure gpu f)

let test_tally_shape () =
  let f = Util.matmul ~m:32 ~n:32 ~k:32 () in
  let t = M.sum (M.walk gpu f) in
  (* 32^3 multiply-accumulate = 2 ops each plus loads. *)
  Alcotest.(check bool) "scalar ops counted" true (t.M.scalar_ops >= 2.0 *. 32768.0);
  Alcotest.(check bool) "global traffic counted" true (t.M.bytes_global > 0.0);
  Alcotest.(check bool) "no tensor flops" true (t.M.tensor_flops = 0.0)

(* The sim.* counters and every bucket of the sim.* histograms. *)
let sim_state () =
  let s = Tir_obs.Metrics.snapshot () in
  let sim name = String.starts_with ~prefix:"sim." name in
  ( List.filter (fun (n, _) -> sim n) s.Tir_obs.Metrics.counters,
    List.filter_map
      (fun (n, (h : Tir_obs.Metrics.hist_snapshot)) ->
        if sim n then Some (n, Array.to_list h.counts) else None)
      s.Tir_obs.Metrics.histograms )

(* [f ()] and how far it moved each sim.* counter and histogram bucket. *)
let moved f =
  let c0, h0 = sim_state () in
  let v = f () in
  let c1, h1 = sim_state () in
  let before l n = Option.value ~default:[] (List.assoc_opt n l) in
  ( v,
    List.map (fun (n, x) -> (n, x - Option.value ~default:0 (List.assoc_opt n c0))) c1,
    List.map
      (fun (n, xs) ->
        let b = before h0 n in
        (n, List.mapi (fun i x -> x - Option.value ~default:0 (List.nth_opt b i)) xs))
      h1 )

let bits = Array.map Int64.bits_of_float

(* One walk per candidate: pricing the per-nest tallies a prepared
   candidate carries gives [measure_us]'s latency bit for bit and moves
   the same counters and buckets, and the features computed from them are
   [Features.extract]'s. Every sketch program, evaluated for both
   targets. *)
let test_prepared_tallies_price_like_measure () =
  let priced = ref 0 in
  List.iter
    (fun (_, sk, d) ->
      List.iter
        (fun target ->
          match Tir_autosched.Eval.evaluate ~target sk d with
          | Tir_autosched.Eval.Evaluated { func; features; nests; _ } ->
              incr priced;
              let us, counters, hists = moved (fun () -> M.price target nests) in
              let us', counters', hists' = moved (fun () -> M.measure_us target func) in
              Alcotest.(check int64) "latency bits" (Int64.bits_of_float us')
                (Int64.bits_of_float us);
              Alcotest.(check (list (pair string int))) "sim counters" counters' counters;
              Alcotest.(check (list (pair string (list int)))) "sim histograms" hists' hists;
              Alcotest.(check int) "one measurement" 1
                (List.assoc "sim.measurements" counters);
              Alcotest.(check (array int64)) "features"
                (bits (Tir_autosched.Features.extract target func))
                (bits features)
          | _ -> ())
        [ gpu; cpu ])
    (Util.sketch_programs ());
  Alcotest.(check bool) "priced" true (!priced >= 50)

let suite =
  [
    ("tensorized faster than scalar", `Quick, test_tensorized_faster);
    ("thread parallelism speeds up", `Quick, test_parallelism_faster);
    ("uncoalesced access penalized", `Quick, test_coalescing);
    ("cpu parallel+vectorize speeds up", `Quick, test_cpu_parallel_and_vector);
    ("unsupported intrinsic rejected", `Quick, test_unsupported_intrinsic);
    ("software pipelining discount", `Quick, test_pipelining_discount);
    ("deterministic measurement", `Quick, test_determinism);
    ("tally accounting", `Quick, test_tally_shape);
    ("prepared tallies price like measure_us", `Quick,
      test_prepared_tallies_price_like_measure);
  ]

(** Auto-scheduler components: the search-space plumbing, the boosted-tree
    cost model, the evolutionary search, and the end-to-end tuner — plus
    QCheck properties on tile enumeration and sketch correctness. *)

open Tir_ir
module Sp = Tir_autosched.Space
module Sk = Tir_autosched.Sketch
module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module Rng = Tir_autosched.Rng

let gpu = Tir_sim.Target.gpu_tensorcore
let arm = Tir_sim.Target.arm_sdot

(* --- Space --- *)

let prop_factor_splits =
  QCheck2.Test.make ~name:"factor_splits: products and caps" ~count:200
    QCheck2.Gen.(pair (int_range 1 512) (int_range 2 4))
    (fun (extent, parts) ->
      let splits = Sp.factor_splits ~max_factor:64 extent parts in
      splits <> []
      && List.for_all
           (fun fs ->
             List.length fs = parts
             && List.fold_left ( * ) 1 fs = extent
             && List.for_all (fun f -> f >= 1) fs)
           splits)

let test_mutate_changes_one () =
  let rng = Rng.create 3 in
  let knobs = [ { Sp.name = "a"; count = 4 }; { Sp.name = "b"; count = 4 } ] in
  let d = [ ("a", 1); ("b", 2) ] in
  let d' = Sp.mutate rng knobs d in
  let diff =
    List.length
      (List.filter (fun k -> Sp.decide d k.Sp.name <> Sp.decide d' k.Sp.name) knobs)
  in
  Alcotest.(check bool) "at most one knob changed" true (diff <= 1)

let test_decisions_key_stable () =
  Alcotest.(check string)
    "order-insensitive" (Sp.key_of [ ("a", 1); ("b", 2) ])
    (Sp.key_of [ ("b", 2); ("a", 1) ])

(* --- Sketch cache identity --- *)

let test_space_id_shape_injective () =
  (* Regression: c1d's display name drops kw/stride/pad, so these two
     differently-shaped workloads share a name. A space_id collision would
     make the measurement memo return one workload's latency for the
     other. *)
  let w1 = W.c1d () and w2 = W.c1d ~kw:5 ~pad:2 () in
  Alcotest.(check string) "display names collide" w1.W.name w2.W.name;
  let s1 = Sk.scalar_gpu w1 and s2 = Sk.scalar_gpu w2 in
  Alcotest.(check bool) "space ids distinct" false
    (String.equal s1.Sk.space_id s2.Sk.space_id);
  (* Same workload twice must still agree (the digest is stable across
     lowering runs despite fresh variable ids). *)
  let s1' = Sk.scalar_gpu (W.c1d ()) in
  Alcotest.(check string) "space id stable" s1.Sk.space_id s1'.Sk.space_id

(* --- GBDT --- *)

let test_gbdt_fits () =
  (* Learn y = 3*x0 - 2*x1 on random points; training error must shrink. *)
  let st = Random.State.make [| 11 |] in
  let n = 200 in
  let xs =
    Array.init n (fun _ ->
        [| Random.State.float st 4.0; Random.State.float st 4.0; Random.State.float st 1.0 |])
  in
  let ys = Array.map (fun x -> (3.0 *. x.(0)) -. (2.0 *. x.(1))) xs in
  let model = Tir_autosched.Gbdt.fit ~rounds:60 xs ys in
  let mse m =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i x -> let d = Tir_autosched.Gbdt.predict m x -. ys.(i) in d *. d) xs)
    /. float_of_int n
  in
  let base_mse =
    let mean = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
    Array.fold_left (fun acc y -> acc +. ((y -. mean) ** 2.0)) 0.0 ys /. float_of_int n
  in
  Alcotest.(check bool)
    (Printf.sprintf "mse %.3f << variance %.3f" (mse model) base_mse)
    true
    (mse model < base_mse /. 10.0)

let test_gbdt_ranks () =
  (* Ranking quality is what the search needs: higher y -> higher pred. *)
  let xs = Array.init 50 (fun i -> [| float_of_int i; 0.0 |]) in
  let ys = Array.map (fun x -> x.(0) *. 2.0) xs in
  let m = Tir_autosched.Gbdt.fit ~rounds:40 xs ys in
  Alcotest.(check bool) "monotone ends" true
    (Tir_autosched.Gbdt.predict m [| 49.0; 0.0 |] > Tir_autosched.Gbdt.predict m [| 0.0; 0.0 |])

(* --- Cost model --- *)

let test_cost_model_prefers_fast () =
  let module M = Tir_autosched.Model in
  let m = M.gbdt () in
  (* Synthesize samples: feature 0 correlates with speed. *)
  for i = 1 to 40 do
    let f = Array.make Tir_autosched.Features.dim 0.0 in
    f.(0) <- float_of_int i;
    M.add m ~group:"gpu" ~features:f ~latency_us:(float_of_int (1000 / i))
  done;
  M.retrain m;
  let f_fast = Array.make Tir_autosched.Features.dim 0.0 in
  f_fast.(0) <- 40.0;
  let f_slow = Array.make Tir_autosched.Features.dim 0.0 in
  f_slow.(0) <- 1.0;
  Alcotest.(check bool) "fast scored higher" true
    (M.score m f_fast > M.score m f_slow)

(* --- Tuning --- *)

let small_gmm () =
  W.gmm ~in_dtype:Dtype.F16 ~acc_dtype:Dtype.F32 ~m:128 ~n:128 ~k:128 ()

let test_tune_finds_tensorized () =
  let r = Util.tune ~trials:16 gpu (small_gmm ()) in
  (match r.Tune.best with
  | Some b ->
      Alcotest.(check bool) "best uses a tensorized sketch" true
        (String.length b.Tir_autosched.Evolutionary.sketch_name >= 10
        && String.sub b.Tir_autosched.Evolutionary.sketch_name 0 10 = "tensorized")
  | None -> Alcotest.fail "no result");
  Alcotest.(check bool) "latency finite" true (Float.is_finite (Tune.latency_us r))

let test_tune_deterministic () =
  let a = Util.tune ~seed:5 ~trials:12 gpu (small_gmm ()) in
  let b = Util.tune ~seed:5 ~trials:12 gpu (small_gmm ()) in
  Alcotest.(check (float 0.0)) "same seed, same result" (Tune.latency_us a)
    (Tune.latency_us b)

let test_tune_best_is_valid_and_correct () =
  let w = W.gmm ~in_dtype:Dtype.F32 ~acc_dtype:Dtype.F32 ~m:64 ~n:64 ~k:64 () in
  let r = Util.tune ~trials:12 gpu w in
  match r.Tune.best with
  | None -> Alcotest.fail "no result"
  | Some b ->
      Util.check_valid "tuned program valid" b.Tir_autosched.Evolutionary.func;
      Util.check_same_semantics "tuned program semantics" w.W.func
        b.Tir_autosched.Evolutionary.func

let test_search_improves_over_framework () =
  let w = small_gmm () in
  let tuned = Tune.latency_us (Util.tune ~trials:24 gpu w) in
  let fixed = Tune.latency_us (Tir_baselines.Baselines.framework gpu w) in
  Alcotest.(check bool)
    (Printf.sprintf "tuned %.1f < fixed %.1f" tuned fixed)
    true (tuned < fixed)

let test_dep_falls_back_to_scalar () =
  let w = W.dep ~h:32 ~w:32 ~c:32 () in
  let r = Util.tune ~trials:12 gpu w in
  match r.Tune.best with
  | Some b ->
      Alcotest.(check string) "scalar sketch used" "scalar-gpu"
        b.Tir_autosched.Evolutionary.sketch_name
  | None -> Alcotest.fail "no result"

let test_cpu_tune_uses_sdot () =
  let w = W.gmm ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 ~m:64 ~n:48 ~k:64 () in
  let r = Util.tune ~trials:12 arm w in
  match r.Tune.best with
  | Some b ->
      Alcotest.(check bool) "sdot sketch used" true
        (String.length b.Tir_autosched.Evolutionary.sketch_name >= 10
        && String.sub b.Tir_autosched.Evolutionary.sketch_name 0 10 = "tensorized")
  | None -> Alcotest.fail "no result"

let test_stats_accounting () =
  let r = Util.tune ~trials:10 gpu (small_gmm ()) in
  Alcotest.(check int) "exactly the requested trials" 10 r.Tune.stats.trials;
  Alcotest.(check bool) "proposals >= trials" true (r.Tune.stats.proposed >= 10);
  Alcotest.(check bool) "profiling time accrued" true
    (r.Tune.stats.profiling_us > 0.0)

(* Random decision vectors on the CPU sdot sketch preserve semantics
   (QCheck-style sampling on a small workload). *)
let test_sketch_random_semantics () =
  let w = W.gmm ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 ~b:2 ~m:16 ~n:24 ~k:16 () in
  let cand =
    Option.get
      (Tir_autosched.Candidate.generate w
         (Tir_intrin.Tensor_intrin.lookup "arm.sdot_8x12x4"))
  in
  let sk = Sk.tensorized_cpu cand in
  let rng = Rng.create 9 in
  let checked = ref 0 in
  for _ = 1 to 10 do
    let d = Sp.random_decisions rng sk.Sk.knobs in
    match sk.Sk.apply d with
    | exception Tir_sched.State.Schedule_error _ -> ()
    | sch ->
        incr checked;
        let f = Tir_sched.Schedule.func sch in
        Util.check_valid "sampled cpu schedule" f;
        Util.check_same_semantics "sampled cpu schedule" w.W.func f
  done;
  Alcotest.(check bool) "at least one sample applied" true (!checked > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_factor_splits;
    ("mutate changes one knob", `Quick, test_mutate_changes_one);
    ("decision key stable", `Quick, test_decisions_key_stable);
    ("space_id distinguishes same-name workloads", `Quick, test_space_id_shape_injective);
    ("gbdt fits linear target", `Quick, test_gbdt_fits);
    ("gbdt ranks monotonically", `Quick, test_gbdt_ranks);
    ("cost model prefers fast programs", `Quick, test_cost_model_prefers_fast);
    ("tune picks tensorized sketch", `Quick, test_tune_finds_tensorized);
    ("tune deterministic per seed", `Quick, test_tune_deterministic);
    ("tuned program valid and correct", `Quick, test_tune_best_is_valid_and_correct);
    ("search beats fixed kernels", `Quick, test_search_improves_over_framework);
    ("dep falls back to scalar", `Quick, test_dep_falls_back_to_scalar);
    ("cpu tuning uses sdot", `Quick, test_cpu_tune_uses_sdot);
    ("search statistics", `Quick, test_stats_accounting);
    ("random cpu sketches preserve semantics", `Quick, test_sketch_random_semantics);
  ]

(* --- additional coverage --- *)

let test_amos_never_beats_full_by_much () =
  (* AMOS searches a strict subset of TensorIR's space (fixed copies): at
     equal seeds TensorIR's best can only be at least as good, up to search
     noise. *)
  let w = small_gmm () in
  let full = Tune.latency_us (Util.tune ~trials:24 gpu w) in
  let amos = Tune.latency_us (Tir_baselines.Baselines.amos ~trials:24 gpu w) in
  Alcotest.(check bool)
    (Printf.sprintf "tensorir %.1f <= 1.2 * amos %.1f" full amos)
    true (full <= amos *. 1.2)

let test_vendor_unsupported_entries () =
  let module B = Tir_baselines.Baselines in
  Alcotest.(check bool) "cutlass lacks DEP" false (B.cutlass_supports (W.dep ~h:8 ~w:8 ~c:8 ()));
  Alcotest.(check bool) "cutlass has GMM" true (B.cutlass_supports (small_gmm ()));
  Alcotest.(check bool) "acl lacks DIL" false
    (B.acl_supports (W.dil ~h:8 ~w:8 ~ci:8 ~co:8 ()));
  match B.arm_compute_lib ~trials:4 arm (W.dil ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 ~h:8 ~w:8 ~ci:8 ~co:8 ()) with
  | B.Not_supported -> ()
  | B.Supported _ -> Alcotest.fail "ACL must not support DIL"

let test_features_dimension () =
  let w = small_gmm () in
  let f = Tir_autosched.Features.extract gpu w.W.func in
  Alcotest.(check int) "feature dimension" Tir_autosched.Features.dim (Array.length f);
  Alcotest.(check bool) "all finite" true (Array.for_all Float.is_finite f)

let test_tensorized_feature_flag () =
  let w = W.gmm ~in_dtype:Dtype.F32 ~acc_dtype:Dtype.F32 ~m:64 ~n:64 ~k:64 () in
  let cand =
    Option.get
      (Tir_autosched.Candidate.generate w
         (Tir_intrin.Tensor_intrin.lookup "accel.dot_4x4x4"))
  in
  let sk = Sk.tensorized_gpu ~use_wmma_scopes:false cand in
  let rng = Rng.create 4 in
  let rec first_valid n =
    if n = 0 then Alcotest.fail "no applicable decision found"
    else
      let d = Sp.random_decisions rng sk.Sk.knobs in
      match sk.Sk.apply d with
      | exception Tir_sched.State.Schedule_error _ -> first_valid (n - 1)
      | sch -> Tir_sched.Schedule.func sch
  in
  let f = first_valid 50 in
  let feats = Tir_autosched.Features.extract gpu f in
  Alcotest.(check (float 0.0)) "tensorized flag set" 1.0 feats.(11)

(* The simplifier's term order once read the digits of variable ids, so a
   search run after the process had created 10^7 variables could deliver a
   structurally different best (a long-lived [serve] and a restarted one
   disagreed). Caches are cleared so the second search rebuilds every
   program with the new ids. *)
let test_best_ignores_variable_count () =
  let w = W.by_tag "C2D" in
  let best () =
    Tir_autosched.Eval.clear_caches ();
    Tir_sched.Apply_cache.clear ();
    match (Util.tune ~seed:7 ~trials:32 gpu w).Tune.best with
    | Some b -> Fingerprint.to_hex (Fingerprint.func b.Tir_autosched.Evolutionary.func)
    | None -> Alcotest.fail "no result"
  in
  let before = best () in
  for _ = 1 to 20_000_000 do
    ignore (Sys.opaque_identity (Var.fresh "t"))
  done;
  Alcotest.(check string) "same best after 2*10^7 more variables" before (best ())

(* The matmul nest with the loops at the depths [bind] selects bound to
   [threadIdx.x], and the store into [C] indexed by [vj] alone, delivered
   by a test-only sketch. *)
let mangled_matmul ~bind =
  let f = Util.matmul () in
  let rec mangle depth (s : Stmt.t) =
    match s with
    | Stmt.For r ->
        let kind = if bind depth then Stmt.Thread_binding "threadIdx.x" else r.kind in
        Stmt.For { r with kind; body = mangle (depth + 1) r.body }
    | Stmt.Block br ->
        let b = br.Stmt.block in
        Stmt.Block { br with Stmt.block = { b with Stmt.body = mangle depth b.Stmt.body } }
    | Stmt.Store (c, [ _; vj ], v) -> Stmt.Store (c, [ vj ], v)
    | s -> s
  in
  let func =
    match f.Primfunc.body with
    | Stmt.Block br -> Primfunc.with_root_body f (mangle 0 br.Stmt.block.Stmt.body)
    | _ -> Alcotest.fail "no root block"
  in
  let sk =
    {
      Sk.name = "unextractable";
      space_id = "unextractable";
      base = "";
      knobs = [];
      rejects = (fun _ -> false);
      apply = (fun _ -> Tir_sched.Schedule.create func);
    }
  in
  (func, sk)

(* The store into [C[vj]] breaks the machine model: it reads the lane
   stride of that index against [C]'s two dimensions and raises
   [Invalid_argument]. Feature extraction walks a program before anything
   has checked it, so the candidate must be classified as its checks
   classify it. *)
let check_rejected_as_invalid func sk =
  (match Tir_autosched.Features.extract gpu func with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "the test program must break feature extraction");
  Alcotest.(check bool) "the test program fails validation" true
    (Tir_sched.Validate.check_func func <> []);
  (match Tir_autosched.Eval.prepare ~target:gpu sk [] with
  | Tir_autosched.Eval.Rejected Tir_autosched.Eval.Invalid -> ()
  | _ -> Alcotest.fail "prepare must check the program and reject it as Invalid");
  match Tir_autosched.Eval.evaluate ~target:gpu sk [] with
  | Tir_autosched.Eval.Invalid -> ()
  | _ -> Alcotest.fail "evaluate must report Invalid"

(* [i] and [j] both bound to [threadIdx.x]: one axis bound twice on a
   path fails validation on its own. *)
let test_unextractable_candidate () =
  let func, sk = mangled_matmul ~bind:(fun depth -> depth < 2) in
  check_rejected_as_invalid func sk

(* Only [j] bound: the one-index store into the two-dimensional [C] is
   all that is wrong, and the validator reports it on the block. *)
let test_rank_mismatch_invalid () =
  let func, sk = mangled_matmul ~bind:(fun depth -> depth = 1) in
  let rank_issues =
    List.filter
      (fun (i : Tir_sched.Validate.issue) ->
        String.equal i.Tir_sched.Validate.message "access to C has 1 indices, rank 2")
      (Tir_sched.Validate.check_func func)
  in
  Alcotest.(check (list string)) "reported on the block" [ "C" ]
    (List.map (fun (i : Tir_sched.Validate.issue) -> i.Tir_sched.Validate.block) rank_issues);
  check_rejected_as_invalid func sk

(* The measured sequence of seeded searches, pinned bit for bit: the MD5
   of every measured (trace, latency) pair in measurement order, and the
   fingerprint of the best program. The digests were recorded when every
   candidate was validated and analyzed before the model ranked it; the
   search that checks only ranked candidates must measure the same
   programs in the same order. The cases cover the tensor-core GPU
   sketches, the ARM [sdot] sketch, a scalar-only space and the random
   ranking used without a cost model. Each search is traced, so the test
   also sees that no check ran below the measurement cut: every
   [eval.check] span belongs to a candidate that was measured or counted
   invalid or unsound. *)
let golden_search ?(use_cost_model = true) ~seed ~trials target w =
  let module Trace = Tir_obs.Trace in
  let measured = Stdlib.Buffer.create 4096 and sketches = ref [] in
  let checkpoint =
    {
      Tir_autosched.Evolutionary.on_seen = (fun ~gen:_ _ -> ());
      on_measured =
        (fun ~gen:_ m ->
          sketches := m.Tir_autosched.Evolutionary.sketch_name :: !sketches;
          Printf.bprintf measured "%s|%h\n"
            (Tir_sched.Trace.to_string m.Tir_autosched.Evolutionary.trace)
            m.Tir_autosched.Evolutionary.latency_us);
      on_generation = (fun ~gen:_ _ ~best_us:_ -> ());
    }
  in
  Tir_autosched.Eval.clear_caches ();
  Trace.enable ();
  Trace.reset ();
  let r, events =
    Fun.protect
      ~finally:(fun () -> Trace.disable (); Trace.reset ())
      (fun () ->
        let cfg =
          Tune.Config.(
            default |> with_seed seed |> with_trials trials
            |> with_use_cost_model use_cost_model)
        in
        let r = Tune.run ~checkpoint cfg w target in
        (r, Trace.events ()))
  in
  let named name = List.filter (fun e -> e.Trace.e_name = name) events in
  let reached =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc k -> acc + int_of_string (List.assoc k e.Trace.e_args))
          acc
          [ "invalid"; "unsound"; "measured"; "unmeasurable" ])
      0 (named "gen.commit")
  in
  let checks = List.length (named "eval.check") in
  if use_cost_model then Alcotest.(check int) "no check ran below the cut" reached checks;
  let best =
    match r.Tune.best with
    | Some b -> Fingerprint.to_hex (Fingerprint.func b.Tir_autosched.Evolutionary.func)
    | None -> "none"
  in
  (Digest.to_hex (Digest.string (Stdlib.Buffer.contents measured)), best, !sketches)

let test_golden_searches () =
  let tensorized = List.exists (String.starts_with ~prefix:"tensorized") in
  let cases =
    [
      ( "fp16 GMM, GPU",
        (fun () -> golden_search ~seed:5 ~trials:32 gpu (small_gmm ())),
        ("2b75cdc123cb998b8bcb9d2dff2789d4", "3b9d534e54af0848") );
      ( "int8 C2D, ARM sdot",
        (fun () ->
          let d, b, sketches =
            golden_search ~seed:3 ~trials:32 arm
              (W.c2d ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 ~h:14 ~w:14 ~ci:32 ~co:32 ())
          in
          Alcotest.(check bool) "the sdot sketch was measured" true (tensorized sketches);
          (d, b, sketches)),
        ("e7750d46fae8ad9660e9f87848d007f2", "4df859538b892b4a") );
      ( "DEP, scalar only",
        (fun () ->
          let d, b, sketches =
            golden_search ~seed:9 ~trials:24 gpu (W.dep ~h:32 ~w:32 ~c:32 ())
          in
          Alcotest.(check bool) "only scalar sketches" false (tensorized sketches);
          (d, b, sketches)),
        ("a9f538950049f4b4961d45a6e1d35e5a", "15884759138dcc05") );
      ( "fp16 GMM, no cost model",
        (fun () ->
          golden_search ~use_cost_model:false ~seed:11 ~trials:32 gpu (small_gmm ())),
        ("6cef8a676202ee9e6971a88b192a51e8", "eaa374503ef39c97") );
    ]
  in
  List.iter
    (fun (name, run, (digest, best)) ->
      let d, b, _ = run () in
      Alcotest.(check string) (name ^ ": measured (trace, latency) digest") digest d;
      Alcotest.(check string) (name ^ ": best fingerprint") best b)
    cases

let suite =
  suite
  @ [
      ("amos subset of tensorir space", `Quick, test_amos_never_beats_full_by_much);
      ("vendor coverage gaps", `Quick, test_vendor_unsupported_entries);
      ("feature vector shape", `Quick, test_features_dimension);
      ("tensorized feature flag", `Quick, test_tensorized_feature_flag);
      ("best ignores how many variables exist", `Quick, test_best_ignores_variable_count);
      ("unextractable candidate: checks decide", `Quick, test_unextractable_candidate);
      ("index count against rank: invalid", `Quick, test_rank_mismatch_invalid);
      ("golden searches: measured sequence pinned", `Quick, test_golden_searches);
    ]

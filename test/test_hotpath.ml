(** Properties of the incremental search hot path.

    The optimized evaluation pipeline (knob pre-filter, cached schedule
    application, decision-key memo) is *only* faster — never different.
    These tests pin that down:

    - the optimized pipeline classifies every decision vector exactly as
      the pre-refactor pipeline does, fingerprints and feature vectors
      included, across random mutation chains and with the apply cache
      both on and off;
    - a schedule follows the apply cache only while it hits: one
      application misses at most once, and the k-th application of one
      decision vector hits k - 1 times before it misses;
    - evaluation is deterministic across domains (jobs=1 vs jobs=4). *)

open Tir_ir
module Space = Tir_autosched.Space
module Sk = Tir_autosched.Sketch
module CM = Tir_autosched.Eval
module AC = Tir_sched.Apply_cache
module Rng = Tir_autosched.Rng
module W = Tir_workloads.Workloads
module Pool = Tir_parallel.Pool

(* --- optimized pipeline == pre-refactor pipeline --- *)

let gpu = Tir_sim.Target.gpu_tensorcore

let sketches () =
  let w = W.gmm ~in_dtype:Dtype.F16 ~acc_dtype:Dtype.F32 () in
  let cand =
    Option.get
      (Tir_autosched.Candidate.generate w
         (Tir_intrin.Tensor_intrin.lookup "wmma.mma_16x16x16"))
  in
  [ Sk.tensorized_gpu cand; Sk.scalar_gpu w ]

let class_name = function
  | CM.Inapplicable -> "inapplicable"
  | CM.Invalid -> "invalid"
  | CM.Unsound -> "unsound"
  | CM.Unsupported -> "unsupported"
  | CM.Evaluated _ -> "evaluated"

let check_same_outcome ctx a b =
  Alcotest.(check string)
    (ctx ^ ": classification") (class_name a) (class_name b);
  match (a, b) with
  | ( CM.Evaluated { fp = fa; features = xa; trace = ta; _ },
      CM.Evaluated { fp = fb; features = xb; trace = tb; _ } ) ->
      Alcotest.(check bool)
        (ctx ^ ": fingerprint") true
        (Fingerprint.equal fa fb);
      Alcotest.(check (array (float 0.0))) (ctx ^ ": features") xa xb;
      Alcotest.(check string)
        (ctx ^ ": trace decisions")
        (Space.key_of (Tir_sched.Trace.decisions ta))
        (Space.key_of (Tir_sched.Trace.decisions tb))
  | _ -> ()

(* Random mutation chains, the shape the evolutionary search produces:
   each vector is one knob-mutation away from its predecessor. With the
   apply cache on, an application adopts the cached steps it hits before
   its first miss — mostly the sketch's decision-free opening steps — and
   runs the rest. Every step must classify the same through the naive
   pipeline (apply cache off) and the optimized one (apply cache on). *)
let test_evaluate_matches_naive () =
  let rng = Rng.create 1234 in
  List.iter
    (fun (sk : Sk.t) ->
      CM.clear_caches ();
      AC.clear ();
      let d = ref (Space.random_decisions rng sk.Sk.knobs) in
      for step = 0 to 39 do
        if step > 0 then d := Space.mutate rng sk.Sk.knobs !d;
        AC.set_enabled false;
        let naive = CM.evaluate_naive ~target:gpu sk !d in
        AC.set_enabled true;
        let opt = CM.evaluate ~target:gpu sk !d in
        check_same_outcome
          (Printf.sprintf "%s step %d" sk.Sk.name step)
          naive opt
      done)
    (sketches ())

(* Apply-cache hits and misses of one [sk.apply]; an inapplicable vector
   counts what was probed before the primitive raised. *)
let apply_stats (sk : Sk.t) d =
  let h0, m0 = AC.stats () in
  (try ignore (sk.Sk.apply d) with Tir_sched.State.Schedule_error _ -> ());
  let h1, m1 = AC.stats () in
  (h1 - h0, m1 - m0)

(* A schedule follows the apply cache only while it hits: its first miss
   stores one snapshot and every later step runs directly. So each
   application along a mutation chain misses at most once, and applying
   one vector again adopts one more step than the time before. *)
let test_apply_cache_follows_hits () =
  let rng = Rng.create 4321 in
  List.iter
    (fun (sk : Sk.t) ->
      AC.clear ();
      let d = ref (Space.random_decisions rng sk.Sk.knobs) in
      for step = 0 to 39 do
        if step > 0 then d := Space.mutate rng sk.Sk.knobs !d;
        let _, misses = apply_stats sk !d in
        if misses > 1 then
          Alcotest.failf "%s step %d: one apply missed %d times" sk.Sk.name step
            misses
      done;
      let rec applicable () =
        let d = Space.random_decisions rng sk.Sk.knobs in
        match sk.Sk.apply d with
        | _ -> d
        | exception Tir_sched.State.Schedule_error _ -> applicable ()
      in
      let d = applicable () in
      AC.clear ();
      for k = 1 to 6 do
        let hits, misses = apply_stats sk d in
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s: application %d (hits, misses)" sk.Sk.name k)
          (k - 1, 1) (hits, misses)
      done)
    (sketches ())

(* The pre-filter must be exact: a rejected vector is precisely one the
   full application would have raised [Schedule_error] on. *)
let test_prefilter_exact () =
  let rng = Rng.create 99 in
  List.iter
    (fun (sk : Sk.t) ->
      for _ = 0 to 199 do
        let d = Space.random_decisions rng sk.Sk.knobs in
        if sk.Sk.rejects d then
          match sk.Sk.apply d with
          | exception Tir_sched.State.Schedule_error _ -> ()
          | _ ->
              Alcotest.failf "%s: pre-filter rejected an applicable vector %s"
                sk.Sk.name (Space.key_of d)
      done)
    (sketches ())

(* Decision-key memo: a hit returns the same outcome the miss computed,
   and the canonical key is order-insensitive over the knob assignment. *)
let test_decision_key_memo () =
  let rng = Rng.create 7 in
  List.iter
    (fun (sk : Sk.t) ->
      CM.clear_caches ();
      let prefix = CM.cache_prefix gpu ^ sk.Sk.space_id ^ "|" in
      for _ = 0 to 19 do
        let d = Space.random_decisions rng sk.Sk.knobs in
        let key = prefix ^ Space.canonical_key sk.Sk.knobs d in
        let hit1, e1 = CM.evaluate_cached ~key ~target:gpu sk d in
        let hit2, e2 = CM.evaluate_cached ~key ~target:gpu sk d in
        Alcotest.(check bool) "second probe hits" true ((not hit1) && hit2);
        check_same_outcome "memo hit vs miss" e1 e2
      done)
    (sketches ())

(* Evaluation is a pure function of (sketch, decisions): a 4-domain pool
   computing the same vectors must produce the fingerprints and feature
   vectors the sequential run produced. *)
let test_parallel_evaluate_deterministic () =
  let sk = List.nth (sketches ()) 1 in
  let rng = Rng.create 31 in
  let ds =
    Array.init 24 (fun _ -> Space.random_decisions rng sk.Sk.knobs)
  in
  let seq = Array.map (CM.evaluate_naive ~target:gpu sk) ds in
  let par = Array.make (Array.length ds) CM.Inapplicable in
  let pool = Pool.create ~jobs:4 () in
  Pool.parallel_iteri pool (Array.length ds) (fun i ->
      par.(i) <- CM.evaluate ~target:gpu sk ds.(i));
  Pool.shutdown pool;
  Array.iteri
    (fun i s ->
      check_same_outcome (Printf.sprintf "vector %d" i) s par.(i))
    seq

let suite =
  [
    Alcotest.test_case "optimized pipeline == naive pipeline on mutation chains"
      `Slow test_evaluate_matches_naive;
    Alcotest.test_case "apply cache is followed only while it hits" `Quick
      test_apply_cache_follows_hits;
    Alcotest.test_case "knob pre-filter rejects exactly the inapplicable" `Slow
      test_prefilter_exact;
    Alcotest.test_case "decision-key memo hit == miss" `Quick
      test_decision_key_memo;
    Alcotest.test_case "parallel evaluation deterministic (jobs 1 vs 4)" `Slow
      test_parallel_evaluate_deterministic;
  ]

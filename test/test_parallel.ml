(** Domain pool and memo table: ordering, exception propagation, concurrent
    cache access, and end-to-end tuning determinism at different job counts. *)

module Pool = Tir_parallel.Pool
module Memo = Tir_parallel.Memo
module Tune = Tir_autosched.Tune
module W = Tir_workloads.Workloads

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* --- pool combinators --- *)

let test_map_order () =
  (* Results must land in input order regardless of which domain ran them. *)
  with_pool 4 (fun pool ->
      let xs = Array.init 1000 (fun i -> i) in
      let ys = Pool.parallel_map pool (fun i -> (i * 7) + 1) xs in
      Alcotest.(check (array int))
        "slot i holds f xs.(i)"
        (Array.map (fun i -> (i * 7) + 1) xs)
        ys)

let test_map_list () =
  with_pool 4 (fun pool ->
      let xs = List.init 500 (fun i -> i) in
      Alcotest.(check (list int))
        "map_list preserves order"
        (List.map (fun i -> i * 2) xs)
        (Pool.parallel_map_list pool (fun i -> i * 2) xs))

let test_many_regions () =
  (* Regression: workers must wake for every region, not just the first
     (region sequence numbers are monotonic across the pool's lifetime). *)
  with_pool 4 (fun pool ->
      for round = 1 to 50 do
        let n = 16 + (round mod 7) in
        let out = Pool.parallel_map pool (fun i -> i + round) (Array.init n Fun.id) in
        Alcotest.(check int) "region completes" (n + round - 1) out.(n - 1)
      done)

exception Boom of int

let test_exception_propagation () =
  with_pool 4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.parallel_map pool
               (fun i -> if i mod 10 = 3 then raise (Boom i) else i)
               (Array.init 200 Fun.id));
          None
        with Boom i -> Some i
      in
      (* Several indices fail; the smallest one must win deterministically. *)
      Alcotest.(check (option int)) "lowest failing index" (Some 3) raised;
      (* The pool must survive a failed region and run the next one. *)
      let ok = Pool.parallel_map pool (fun i -> i) (Array.init 32 Fun.id) in
      Alcotest.(check int) "pool usable after failure" 31 ok.(31))

let test_nested_region_sequential () =
  (* A parallel_map from inside a running region must not deadlock on the
     region state; it degrades to a sequential loop in that domain. *)
  with_pool 4 (fun pool ->
      let out =
        Pool.parallel_map pool
          (fun i ->
            let inner = Pool.parallel_map pool (fun j -> (i * 10) + j) (Array.init 5 Fun.id) in
            Array.fold_left ( + ) 0 inner)
          (Array.init 16 Fun.id)
      in
      Alcotest.(check (array int))
        "nested maps compute correctly"
        (Array.init 16 (fun i -> (i * 50) + 10))
        out)

let test_concurrent_orchestrators () =
  (* Two domains driving regions on the same pool at once: regions are
     serialized by the submit mutex, so neither loses work. *)
  with_pool 4 (fun pool ->
      let run () =
        Array.init 10 (fun round ->
            Pool.parallel_map pool (fun i -> i + round) (Array.init 64 Fun.id))
      in
      let other = Domain.spawn run in
      let mine = run () in
      let theirs = Domain.join other in
      Array.iteri
        (fun round out ->
          Alcotest.(check int) "my region complete" (63 + round) out.(63))
        mine;
      Array.iteri
        (fun round out ->
          Alcotest.(check int) "their region complete" (63 + round) out.(63))
        theirs)

let test_jobs_one_sequential () =
  with_pool 1 (fun pool ->
      let trace = ref [] in
      let _ =
        Pool.parallel_map pool
          (fun i ->
            trace := i :: !trace;
            i)
          (Array.init 20 Fun.id)
      in
      Alcotest.(check (list int))
        "jobs=1 runs in index order"
        (List.init 20 (fun i -> 19 - i))
        !trace)

(* --- memo table --- *)

let test_memo_hit_miss () =
  let m : int Memo.t = Memo.create () in
  let hit1, v1 = Memo.find_or_add m "k" (fun () -> 42) in
  let hit2, v2 = Memo.find_or_add m "k" (fun () -> 99) in
  Alcotest.(check bool) "first probe misses" false hit1;
  Alcotest.(check bool) "second probe hits" true hit2;
  Alcotest.(check int) "miss computes" 42 v1;
  Alcotest.(check int) "hit returns cached value, not recompute" 42 v2;
  Alcotest.(check int) "hits counted" 1 (Memo.hits m);
  Alcotest.(check int) "misses counted" 1 (Memo.misses m);
  Memo.clear m;
  Alcotest.(check int) "clear empties" 0 (Memo.length m)

let test_memo_concurrent () =
  (* Hammer a small key set from 4 domains: each key's compute function
     must run exactly once, and every probe must observe that value. *)
  with_pool 4 (fun pool ->
      let m : int Memo.t = Memo.create () in
      let keys = 16 in
      let computes = Array.init keys (fun _ -> Atomic.make 0) in
      let probes = 4000 in
      let out =
        Pool.parallel_map pool
          (fun i ->
            let k = i mod keys in
            snd
              (Memo.find_or_add m (string_of_int k) (fun () ->
                   Atomic.incr computes.(k);
                   k * 100)))
          (Array.init probes Fun.id)
      in
      Array.iteri
        (fun i v -> Alcotest.(check int) "probe sees the cached value" (i mod keys * 100) v)
        out;
      Array.iteri
        (fun k c ->
          Alcotest.(check int)
            (Printf.sprintf "key %d computed exactly once" k)
            1 (Atomic.get c))
        computes;
      Alcotest.(check int) "all probes accounted" probes (Memo.hits m + Memo.misses m);
      Alcotest.(check int) "one entry per key" keys (Memo.length m))

let test_memo_failed_compute_retries () =
  (* A raising compute must release the in-flight marker so a later caller
     can compute the value; the failure is not cached. *)
  let m : int Memo.t = Memo.create () in
  (try ignore (Memo.find_or_add m "k" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let hit, v = Memo.find_or_add m "k" (fun () -> 7) in
  Alcotest.(check bool) "retry is a miss" false hit;
  Alcotest.(check int) "retry computes" 7 v;
  Alcotest.(check (pair bool int)) "then cached" (true, 7) (Memo.find_or_add m "k" (fun () -> 8))

(* --- end-to-end determinism --- *)

let test_tune_determinism () =
  (* The acceptance property of the parallel rewrite: for a fixed seed,
     TIR_JOBS=1 and TIR_JOBS=4 produce bit-identical tuning results. The
     process-wide measurement memo is cleared between runs so the second
     run cannot coast on the first one's cache. *)
  let target = Tir_sim.Target.gpu_tensorcore in
  let w =
    W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128
      ~k:128 ()
  in
  let run jobs =
    Tir_autosched.Eval.clear_caches ();
    Util.tune ~seed:7 ~trials:24 ~jobs target w
  in
  let r1 = run 1 in
  let r4 = run 4 in
  Alcotest.(check (float 0.0))
    "identical best latency" (Tune.latency_us r1) (Tune.latency_us r4);
  Alcotest.(check int) "identical trials" r1.Tune.stats.trials r4.Tune.stats.trials;
  Alcotest.(check int) "identical proposals" r1.Tune.stats.proposed r4.Tune.stats.proposed;
  Alcotest.(check int) "identical invalid count" r1.Tune.stats.invalid r4.Tune.stats.invalid;
  Alcotest.(check (float 0.0))
    "identical profiling time" r1.Tune.stats.profiling_us r4.Tune.stats.profiling_us;
  (match (r1.Tune.best, r4.Tune.best) with
  | Some b1, Some b4 ->
      Alcotest.(check string)
        "identical winning sketch" b1.Tir_autosched.Evolutionary.sketch_name
        b4.Tir_autosched.Evolutionary.sketch_name;
      Alcotest.(check string)
        "identical winning decisions"
        (Tir_autosched.Space.key_of b1.Tir_autosched.Evolutionary.decisions)
        (Tir_autosched.Space.key_of b4.Tir_autosched.Evolutionary.decisions);
      (* The full instruction trace — not just its decision summary — must
         be bit-identical across job counts, or database records would
         depend on the machine that produced them. *)
      Alcotest.(check string)
        "identical winning trace"
        (Tir_sched.Trace.to_string b1.Tir_autosched.Evolutionary.trace)
        (Tir_sched.Trace.to_string b4.Tir_autosched.Evolutionary.trace)
  | _ -> Alcotest.fail "tuning found no schedule");
  (* A re-run with a warm cache must still report the same numbers. *)
  let r4' = Util.tune ~seed:7 ~trials:24 ~jobs:4 target w in
  Alcotest.(check (float 0.0))
    "warm-cache rerun identical" (Tune.latency_us r4) (Tune.latency_us r4');
  Alcotest.(check bool)
    "warm rerun hits the memo" true
    (Tir_autosched.Evolutionary.cache_hit_rate r4'.Tune.stats
    > Tir_autosched.Evolutionary.cache_hit_rate r4.Tune.stats)

(* [alongside] runs exactly once per non-empty region, on the calling
   domain, is not a task, and what it raises comes back after every task
   ran. *)
let alongside_contract ~jobs () =
  with_pool jobs (fun pool ->
      let module Metrics = Tir_obs.Metrics in
      let tasks () = Metrics.counter_value (Metrics.counter "pool.tasks") in
      let regions () = Metrics.counter_value (Metrics.counter "pool.regions") in
      let caller = Domain.self () in
      let runs = ref 0 and elsewhere = ref 0 in
      let alongside () =
        incr runs;
        if Domain.self () <> caller then incr elsewhere
      in
      let t0 = tasks () and r0 = regions () in
      let out = Pool.parallel_map ~alongside pool (fun i -> i * 3) (Array.init 200 Fun.id) in
      Alcotest.(check (array int)) "tasks unaffected" (Array.init 200 (fun i -> i * 3)) out;
      Alcotest.(check int) "runs once" 1 !runs;
      Alcotest.(check int) "on the calling domain" 0 !elsewhere;
      Alcotest.(check int) "not a task" (t0 + 200) (tasks ());
      Alcotest.(check int) "one region" (r0 + 1) (regions ());
      ignore (Pool.parallel_map_list ~alongside pool Fun.id []);
      Alcotest.(check int) "an empty region runs nothing" 1 !runs;
      ignore (Pool.parallel_map_list ~alongside pool Fun.id [ 1 ]);
      Alcotest.(check int) "a one-task region runs it" 2 !runs;
      let ran = Atomic.make 0 in
      (match
         Pool.parallel_iteri
           ~alongside:(fun () -> failwith "alongside")
           pool 64
           (fun i ->
             Atomic.incr ran;
             if i = 5 then failwith "task")
       with
      | () -> Alcotest.fail "alongside's exception was lost"
      | exception Failure m ->
          Alcotest.(check string) "alongside's exception wins" "alongside" m);
      Alcotest.(check bool) "raised after the tasks ran" true
        (Atomic.get ran = if jobs = 1 then 6 else 64))

let test_alongside_jobs1 () = alongside_contract ~jobs:1 ()
let test_alongside_jobs4 () = alongside_contract ~jobs:4 ()

let test_global_per_size () =
  Alcotest.(check bool) "one pool per size" true
    (Pool.global ~jobs:3 () == Pool.global ~jobs:3 ());
  Alcotest.(check int) "of that size" 3 (Pool.jobs (Pool.global ~jobs:3 ()));
  Alcotest.(check bool) "sizes differ" true
    (Pool.global ~jobs:3 () != Pool.global ~jobs:1 ());
  Alcotest.(check int) "default size" (Pool.default_jobs ()) (Pool.jobs (Pool.global ()))

let test_default_jobs_env () =
  Alcotest.(check bool) "default_jobs positive" true (Pool.default_jobs () >= 1)

let suite =
  [
    Alcotest.test_case "pool: map preserves order" `Quick test_map_order;
    Alcotest.test_case "pool: list map preserves order" `Quick test_map_list;
    Alcotest.test_case "pool: many regions reuse workers" `Quick test_many_regions;
    Alcotest.test_case "pool: exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "pool: nested regions run sequentially" `Quick
      test_nested_region_sequential;
    Alcotest.test_case "pool: concurrent orchestrators serialize" `Quick
      test_concurrent_orchestrators;
    Alcotest.test_case "pool: jobs=1 is sequential" `Quick test_jobs_one_sequential;
    Alcotest.test_case "memo: hit/miss accounting" `Quick test_memo_hit_miss;
    Alcotest.test_case "memo: exactly-once under 4 domains" `Quick test_memo_concurrent;
    Alcotest.test_case "memo: failed compute releases the key" `Quick
      test_memo_failed_compute_retries;
    Alcotest.test_case "tune: jobs=1 = jobs=4 (determinism)" `Slow test_tune_determinism;
    Alcotest.test_case "pool: default_jobs" `Quick test_default_jobs_env;
    Alcotest.test_case "pool: alongside (jobs=1)" `Quick
      test_alongside_jobs1;
    Alcotest.test_case "pool: alongside (jobs=4)" `Quick
      test_alongside_jobs4;
    Alcotest.test_case "pool: one global pool per size" `Quick test_global_per_size;
  ]

(** Tuning-record database (§5.2): commit/lookup, disk round-trip (v2 with
    escaping, v1 backward compatibility), trace-only replay, and search
    elimination on a second tuning run. *)

open Tir_ir
module DB = Tir_autosched.Database
module Tune = Tir_autosched.Tune
module W = Tir_workloads.Workloads
module Trace = Tir_sched.Trace

let gpu = Tir_sim.Target.gpu_tensorcore

let small_gmm () =
  W.gmm ~in_dtype:Dtype.F16 ~acc_dtype:Dtype.F32 ~m:128 ~n:128 ~k:128 ()

let test_commit_and_find () =
  let db = DB.create () in
  let w = small_gmm () in
  let r = Util.tune ~trials:8 ~database:db gpu w in
  Alcotest.(check int) "one record" 1 (DB.size db);
  (match
     DB.find db ~target_name:gpu.Tir_sim.Target.name ~workload_name:w.W.name
   with
  | Some rec_ ->
      Alcotest.(check (float 1e-9)) "latency stored" (Tune.latency_us r)
        rec_.DB.latency_us;
      Alcotest.(check bool) "trace stored" true (rec_.DB.trace <> None)
  | None -> Alcotest.fail "record not found")

let test_replay_eliminates_search () =
  let db = DB.create () in
  let w = small_gmm () in
  let first = Util.tune ~trials:12 ~database:db gpu w in
  let second = Util.tune ~trials:12 ~database:db gpu w in
  Alcotest.(check int) "second run needs one trial" 1 second.Tune.stats.trials;
  Alcotest.(check (float 1e-9)) "same latency" (Tune.latency_us first)
    (Tune.latency_us second);
  Alcotest.(check bool) "replay is much cheaper" true
    (second.Tune.stats.profiling_us < first.Tune.stats.profiling_us /. 2.0)

let mk_record ?(target = "t") ?(workload = "w") ?(sketch = "s") ?(base = "")
    ?(decisions = [ ("a", 1) ]) ?trace lat =
  {
    DB.target_name = target;
    workload_name = workload;
    sketch_name = sketch;
    base;
    decisions;
    latency_us = lat;
    trace;
  }

let test_find_keeps_best () =
  let db = DB.create () in
  DB.add db (mk_record 10.0);
  DB.add db (mk_record 5.0);
  DB.add db (mk_record 7.0);
  match DB.find db ~target_name:"t" ~workload_name:"w" with
  | Some r -> Alcotest.(check (float 0.0)) "best kept" 5.0 r.DB.latency_us
  | None -> Alcotest.fail "missing"

let test_find_no_separator_aliasing () =
  (* ("a|b", "c") must not be confused with ("a", "b|c") — the in-memory
     lookup compares the name pair, not a '|'-joined key. *)
  let db = DB.create () in
  DB.add db (mk_record ~target:"a|b" ~workload:"c" 1.0);
  (match DB.find db ~target_name:"a" ~workload_name:"b|c" with
  | Some _ -> Alcotest.fail "aliased lookup must miss"
  | None -> ());
  match DB.find db ~target_name:"a|b" ~workload_name:"c" with
  | Some r -> Alcotest.(check (float 0.0)) "exact pair found" 1.0 r.DB.latency_us
  | None -> Alcotest.fail "exact pair missing"

let sample_trace : Trace.t =
  [
    Trace.Get_loops { block = Trace.Bname "C"; outs = [ 0; 1; 2 ] };
    Trace.Split { loop = 0; factors = [ 4; 8 ]; outs = [ 3; 4 ] };
    Trace.Cache_read { block = Trace.Bname "C"; buffer = "A"; scope = "shared"; out = 0 };
    Trace.Decide { knob = "tile_x"; choice = 3 };
  ]

let test_disk_roundtrip () =
  let db = DB.create () in
  DB.add db
    (mk_record ~target:"gpu-tensorcore" ~workload:"gmm_test"
       ~sketch:"tensorized-gpu:wmma.mma_16x16x16" ~base:"wmma.mma_16x16x16"
       ~decisions:[ ("m", 3); ("n", 1); ("k", 0) ]
       ~trace:sample_trace 42.5);
  let path = Filename.temp_file "tirdb" ".txt" in
  DB.save db path;
  let db' = DB.load path in
  Sys.remove path;
  Alcotest.(check int) "one record back" 1 (DB.size db');
  match DB.find db' ~target_name:"gpu-tensorcore" ~workload_name:"gmm_test" with
  | Some r ->
      Alcotest.(check (float 1e-9)) "latency" 42.5 r.DB.latency_us;
      Alcotest.(check int) "decision m" 3 (Tir_autosched.Space.decide r.DB.decisions "m");
      Alcotest.(check string) "base" "wmma.mma_16x16x16" r.DB.base;
      (match r.DB.trace with
      | Some tr -> Alcotest.(check bool) "trace roundtrips" true (Trace.equal sample_trace tr)
      | None -> Alcotest.fail "trace lost on disk")
  | None -> Alcotest.fail "missing after reload"

let test_adversarial_names_roundtrip () =
  (* Field-separator injection: names carrying the '|' field separator,
     the ','/'=' decision separators, the '%' escape itself, and newlines
     must survive a save/load unchanged and must not corrupt neighbouring
     records. *)
  let nasty_target = "t|arget|x" in
  let nasty_workload = "gmm|128,x=1\ny" in
  let nasty_sketch = "sk%7C|," in
  let nasty_knob = "m|,=%" in
  let db = DB.create () in
  DB.add db
    (mk_record ~target:nasty_target ~workload:nasty_workload ~sketch:nasty_sketch
       ~base:"wmma|x" ~decisions:[ (nasty_knob, 7) ] ~trace:sample_trace 3.5);
  DB.add db (mk_record ~target:"plain" ~workload:"w2" 9.0);
  let path = Filename.temp_file "tirdb" ".txt" in
  DB.save db path;
  let db' = DB.load path in
  Sys.remove path;
  Alcotest.(check int) "both records back" 2 (DB.size db');
  (match DB.find db' ~target_name:nasty_target ~workload_name:nasty_workload with
  | Some r ->
      Alcotest.(check string) "sketch name intact" nasty_sketch r.DB.sketch_name;
      Alcotest.(check string) "base intact" "wmma|x" r.DB.base;
      Alcotest.(check int) "decision under nasty knob" 7
        (Tir_autosched.Space.decide r.DB.decisions nasty_knob);
      Alcotest.(check bool) "trace intact" true
        (match r.DB.trace with Some tr -> Trace.equal sample_trace tr | None -> false)
  | None -> Alcotest.fail "adversarial record missing after reload");
  match DB.find db' ~target_name:"plain" ~workload_name:"w2" with
  | Some r -> Alcotest.(check (float 0.0)) "neighbour record intact" 9.0 r.DB.latency_us
  | None -> Alcotest.fail "neighbour record lost"

let test_v1_format_load () =
  (* A headerless old-format file still loads: 5 unescaped fields, no base,
     no trace. *)
  let path = Filename.temp_file "tirdb" ".txt" in
  let oc = open_out path in
  output_string oc "gpu-tensorcore|gmm_test|tensorized-gpu:wmma.mma_16x16x16|m=3,n=1|42.500000\n";
  close_out oc;
  let db = DB.load path in
  Sys.remove path;
  Alcotest.(check int) "v1 record loads" 1 (DB.size db);
  match DB.find db ~target_name:"gpu-tensorcore" ~workload_name:"gmm_test" with
  | Some r ->
      Alcotest.(check (float 1e-9)) "latency" 42.5 r.DB.latency_us;
      Alcotest.(check int) "decision m" 3 (Tir_autosched.Space.decide r.DB.decisions "m");
      Alcotest.(check string) "no base" "" r.DB.base;
      Alcotest.(check bool) "no trace" true (r.DB.trace = None)
  | None -> Alcotest.fail "v1 record missing"

(* [f ()] with the registry's [db.found]/[db.replayed] increments it made. *)
let replay_counts f =
  let v name = Tir_obs.Metrics.counter_value (Tir_obs.Metrics.counter name) in
  let found = v "db.found" and replayed = v "db.replayed" in
  let x = f () in
  (x, (v "db.found" - found, v "db.replayed" - replayed))

let test_trace_only_replay () =
  (* The acceptance property: a record written by [Tune.run] replays from
     its serialized trace alone — empty sketch list, so no sketch
     regeneration is possible — with the recorded latency. *)
  let db = DB.create () in
  let w = small_gmm () in
  let r = Util.tune ~trials:12 ~database:db gpu w in
  let path = Filename.temp_file "tirdb" ".txt" in
  DB.save db path;
  let db' = DB.load path in
  Sys.remove path;
  let rec_ =
    match DB.find db' ~target_name:gpu.Tir_sim.Target.name ~workload_name:w.W.name with
    | Some rec_ -> rec_
    | None -> Alcotest.fail "record missing after disk roundtrip"
  in
  let replayed, counts = replay_counts (fun () -> DB.replay gpu ~workload:w ~sketches:[] rec_) in
  (match replayed with
  | Some m ->
      Alcotest.(check (float 1e-9)) "trace replay reproduces the tuned latency"
        (Tune.latency_us r) m.Tir_autosched.Evolutionary.latency_us;
      Alcotest.(check bool) "replayed program is valid" true
        (Tir_sched.Validate.is_valid m.Tir_autosched.Evolutionary.func)
  | None -> Alcotest.fail "trace-only replay failed");
  Alcotest.(check (pair int int)) "replay counters" (1, 1) counts

let test_v1_record_falls_back_to_sketch () =
  (* A traceless record can only replay through the sketch path; with no
     sketches available it must return None, not crash. *)
  let w = small_gmm () in
  let r = mk_record ~target:gpu.Tir_sim.Target.name ~workload:w.W.name 1.0 in
  let replayed, counts = replay_counts (fun () -> DB.replay gpu ~workload:w ~sketches:[] r) in
  (match replayed with
  | None -> ()
  | Some _ -> Alcotest.fail "traceless record with no sketches must not replay");
  Alcotest.(check (pair int int)) "found but not trace-replayed" (1, 0) counts

let test_load_missing_file () =
  let db = DB.load "/nonexistent/path/db.txt" in
  Alcotest.(check int) "empty" 0 (DB.size db)

(* --- appending to the file a database was loaded from ---------------- *)

let records_of n =
  List.init n (fun i ->
      mk_record
        ~workload:(Printf.sprintf "w%d" i)
        ~decisions:[ ("a", i); ("b|c", 2) ]
        ~trace:sample_trace
        (10.0 +. float_of_int i))

let torn_dropped () =
  Tir_obs.Metrics.counter_value (Tir_obs.Metrics.counter "db.torn_dropped")

let test_save_appends_as_full_rewrite () =
  let path = Filename.temp_file "tirdb" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let rs = records_of 5 in
  let db = DB.create () in
  List.iteri (fun i r -> if i < 2 then DB.add db r) rs;
  DB.save db path;
  DB.add db (List.nth rs 2);
  DB.save db path;
  Alcotest.(check string) "append = full rewrite"
    (Util.database_text (List.filteri (fun i _ -> i < 3) rs))
    (Util.read_file path);
  (* Loaded and saved back with nothing new: the file is not replaced. *)
  let db = DB.load path in
  let inode () = (Unix.stat path).Unix.st_ino in
  let before = inode () in
  DB.save db path;
  Alcotest.(check int) "nothing new, nothing written" before (inode ());
  DB.add db (List.nth rs 3);
  DB.add db (List.nth rs 4);
  DB.save db path;
  Alcotest.(check int) "appended in place" before (inode ());
  Alcotest.(check string) "loaded, then appended = full rewrite"
    (Util.database_text rs) (Util.read_file path);
  (* A file that changed under the database is rewritten, not appended
     to. *)
  Sys.remove path;
  DB.save db path;
  Alcotest.(check string) "deleted file rewritten" (Util.database_text rs)
    (Util.read_file path);
  Util.write_file path (Util.read_file path ^ "# appended elsewhere\n");
  DB.save db path;
  Alcotest.(check string) "grown file rewritten" (Util.database_text rs)
    (Util.read_file path);
  (* A file spelled differently is rewritten whole, once. *)
  Util.write_file path
    (String.concat ""
       [ "# tensorir database v2\n"; "# a comment\n";
         DB.record_to_line (List.hd rs) ^ "\n" ]);
  let db = DB.load path in
  DB.add db (List.nth rs 1);
  DB.save db path;
  Alcotest.(check string) "foreign file rewritten"
    (Util.database_text (List.filteri (fun i _ -> i < 2) rs))
    (Util.read_file path)

(* A torn final line is dropped unparsed, even a whole record that lacks
   only its newline, and the next save does not glue onto it. *)
let test_torn_record_dropped () =
  let path = Filename.temp_file "tirdb" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let rs = records_of 3 in
  Util.write_file path
    (Util.database_text [ List.nth rs 0 ] ^ DB.record_to_line (List.nth rs 1));
  let dropped = torn_dropped () in
  let db = DB.load path in
  Alcotest.(check int) "complete records only" 1 (DB.size db);
  Alcotest.(check int) "torn line counted" (dropped + 1) (torn_dropped ());
  DB.add db (List.nth rs 2);
  DB.save db path;
  Alcotest.(check string) "rewritten whole"
    (Util.database_text [ List.nth rs 0; List.nth rs 2 ])
    (Util.read_file path)

let suite =
  [
    ("commit and find", `Quick, test_commit_and_find);
    ("replay eliminates search", `Quick, test_replay_eliminates_search);
    ("find keeps best", `Quick, test_find_keeps_best);
    ("find: no separator aliasing", `Quick, test_find_no_separator_aliasing);
    ("disk roundtrip (v2)", `Quick, test_disk_roundtrip);
    ("adversarial names roundtrip", `Quick, test_adversarial_names_roundtrip);
    ("v1 format still loads", `Quick, test_v1_format_load);
    ("trace-only replay matches tuned latency", `Quick, test_trace_only_replay);
    ("traceless record needs sketches", `Quick, test_v1_record_falls_back_to_sketch);
    ("missing file loads empty", `Quick, test_load_missing_file);
    ("save appends as a full rewrite would", `Quick, test_save_appends_as_full_rewrite);
    ("torn record dropped unparsed", `Quick, test_torn_record_dropped);
  ]

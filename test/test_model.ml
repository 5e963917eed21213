(** The cost model: rank-trained GBDT quality (Spearman on synthetic
    data, rank loss vs least-squares on mixed latency scales), the
    untrained prior, bit-identical save/load, spec round-trips, and the
    warm-start store and its failure on a full disk. *)

module Model = Tir_autosched.Model
module Gbdt = Tir_autosched.Gbdt
module Features = Tir_autosched.Features
module Tune = Tir_autosched.Tune
module W = Tir_workloads.Workloads
module Stat = Tir_obs.Stat

let dim = Features.dim

let feat ?(f1 = 0.0) x =
  let f = Array.make dim 0.0 in
  f.(0) <- x;
  f.(1) <- f1;
  f

(* Spearman between model scores and measured speed (1/latency): the
   quantity the search cares about, higher = better ranking. *)
let rank_quality scores latencies =
  Stat.spearman
    (Array.init (Array.length scores) (fun i ->
         (scores.(i), 1.0 /. latencies.(i))))

(* --- ranking quality ---------------------------------------------------- *)

(* One task, speed strictly increasing in feature 0. *)
let monotone_corpus () =
  let n = 48 in
  let m = Model.gbdt () in
  let lats = Array.init n (fun i -> 5000.0 /. (1.0 +. float_of_int i)) in
  Array.iteri
    (fun i lat ->
      Model.add m ~group:"gpu|gmm" ~features:(feat (float_of_int i))
        ~latency_us:lat)
    lats;
  Model.retrain m;
  (m, lats)

let test_monotone_spearman () =
  (* A trained model must recover (nearly) the exact order. *)
  let m, lats = monotone_corpus () in
  let n = Array.length lats in
  let scores =
    Model.score_batch m (Array.init n (fun i -> feat (float_of_int i)))
  in
  let s = rank_quality scores lats in
  Alcotest.(check bool)
    (Printf.sprintf "spearman %.3f > 0.9" s)
    true (s > 0.9)

(* Two tasks sharing one dataset, latency scales 1e8 apart, and
   *opposite* feature-speed relationships distinguished by feature 1:
   a rank-trained model on per-group labels, and least-squares
   regression on raw negative latency with the tasks mixed (the
   deprecated behaviour). *)
let mixed_scale_corpus () =
  let n = 40 in
  let xs_a = Array.init n (fun i -> feat (float_of_int i)) in
  let xs_b = Array.init n (fun i -> feat ~f1:1.0 (float_of_int i)) in
  let lat_a = Array.init n (fun i -> 1e8 /. (1.0 +. float_of_int i)) in
  let lat_b = Array.init n (fun i -> 1.0 +. float_of_int i) in
  let m = Model.gbdt () in
  Array.iteri
    (fun i f -> Model.add m ~group:"A" ~features:f ~latency_us:lat_a.(i))
    xs_a;
  Array.iteri
    (fun i f -> Model.add m ~group:"B" ~features:f ~latency_us:lat_b.(i))
    xs_b;
  Model.retrain m;
  let xs = Array.append xs_a xs_b in
  let ys = Array.append lat_a lat_b |> Array.map (fun l -> -.l) in
  (m, Gbdt.fit xs ys, xs_b, lat_b)

let test_rank_beats_regression_on_mixed_scales () =
  (* Least-squares on raw latency spends every split on the large-scale
     task (its residuals dominate the loss), so the small-scale task
     inherits the wrong order; per-group normalized rank training weighs
     both tasks equally. This is exactly the scale mixing a shared
     warm-start store produces. *)
  let m, reg, xs_b, lat_b = mixed_scale_corpus () in
  let rank_b = rank_quality (Model.score_batch m xs_b) lat_b in
  let reg_b = rank_quality (Gbdt.predict_batch reg xs_b) lat_b in
  Alcotest.(check bool)
    (Printf.sprintf "rank %.3f > 0.8" rank_b)
    true (rank_b > 0.8);
  Alcotest.(check bool)
    (Printf.sprintf "rank %.3f beats regression %.3f by 0.5" rank_b reg_b)
    true (rank_b > reg_b +. 0.5)

(* An untrained model scores by the analytic prior. *)
let test_analytic_prefers_tensorized () =
  let m = Model.gbdt () in
  let plain = Array.make dim 0.0 in
  let tensorized = Array.make dim 0.0 in
  tensorized.(11) <- 1.0;
  Alcotest.(check bool) "tensorized scored higher" true
    (Model.score m tensorized > Model.score m plain)

(* --- serialization ------------------------------------------------------ *)

let trained_model () =
  let m = Model.gbdt () in
  for i = 1 to 30 do
    let x = float_of_int i in
    Model.add m ~group:"A" ~features:(feat x) ~latency_us:(3000.0 /. x);
    Model.add m ~group:"B" ~features:(feat ~f1:1.0 x) ~latency_us:(7.0 *. x)
  done;
  Model.retrain m;
  m

let test_save_load_bit_identical () =
  let m = trained_model () in
  let s1 = Model.save m in
  let m2 = Model.load s1 in
  Alcotest.(check string) "save . load . save" s1 (Model.save m2);
  (* The loaded model scores identically... *)
  let probe = feat 17.0 in
  Alcotest.(check (float 0.0)) "identical scores" (Model.score m probe)
    (Model.score m2 probe);
  (* ...and keeps training: the full sample set round-trips. *)
  Model.add m2 ~group:"C" ~features:(feat 1.0) ~latency_us:5.0;
  Model.retrain m2;
  let st = Model.stats m2 in
  Alcotest.(check int) "samples kept" 61 st.Model.samples;
  Alcotest.(check int) "groups kept" 3 st.Model.groups;
  (match Model.load "garbage" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Model.Parse_error _ -> ());
  match Model.load (s1 ^ "extra\n") with
  | _ -> Alcotest.fail "expected Parse_error on trailing junk"
  | exception Model.Parse_error _ -> ()

let test_spec_roundtrip () =
  let warm = Model.spec_to_string (Model.Warm (Model.save (trained_model ()))) in
  List.iter
    (fun spec ->
      Alcotest.(check bool) "spec round-trips" true
        (Model.spec_of_string (Model.spec_to_string spec) = spec))
    [ Model.Gbdt; Model.spec_of_string warm ];
  match Model.spec_of_string "nonsense" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Model.Parse_error _ -> ()

(* --- tuning integration ------------------------------------------------- *)

let gpu = Tir_sim.Target.gpu_tensorcore
let small_gmm () =
  W.gmm ~in_dtype:Tir_ir.Dtype.F16 ~acc_dtype:Tir_ir.Dtype.F32 ~m:128 ~n:128
    ~k:128 ()

let has_ensemble text =
  List.exists (String.starts_with ~prefix:"gbdt|") (String.split_on_char '\n' text)

(* Two generations, so the model holds an ensemble: the second scores
   with a fit of the first's samples. *)
let tune_model ~jobs =
  Tir_autosched.Eval.clear_caches ();
  let r = Util.tune ~seed:11 ~trials:24 ~jobs gpu (small_gmm ()) in
  match r.Tune.model with
  | Some m -> m
  | None -> Alcotest.fail "tuning returned no model"

let test_tuned_model_save_jobs_identical () =
  (* The trained model is part of the deterministic search state: its
     serialized snapshot is bit-identical at any job count. *)
  let s1 = Model.save (tune_model ~jobs:1) in
  let s4 = Model.save (tune_model ~jobs:4) in
  Alcotest.(check bool) "snapshot has samples" true
    (String.length s1 > 100);
  Alcotest.(check bool) "snapshot has an ensemble" true (has_ensemble s1);
  Alcotest.(check string) "jobs=1 = jobs=4" s1 s4

(* --- golden trainer digests ---------------------------------------------- *)

(* Seeded synthetic training sets that stress the split finder's
   tie-breaks and the pair order of the rank gradient: integer-valued
   (tied) features, a constant feature, a feature that is NaN on a fifth
   of the rows, integer (tied) labels and, when [groups > 1], a last
   group that holds one sample. *)
let synthetic ~seed ~n ~groups =
  let st = Random.State.make [| seed |] in
  let row _ =
    let u = Random.State.float st 1.0 in
    let tied = float_of_int (Random.State.int st 4) in
    let nan_some =
      if Random.State.int st 5 = 0 then Float.nan else Random.State.float st 10.0
    in
    let fine = float_of_int (Random.State.int st 16) in
    let noisy = (u *. u) +. Random.State.float st 0.1 in
    [| u; tied; 1.0; nan_some; fine; noisy |]
  in
  let xs = Array.init n row in
  let ys =
    Array.map (fun x -> Float.round ((4.0 *. x.(5)) +. (x.(4) /. 4.0) +. x.(1))) xs
  in
  let grp =
    Array.init n (fun i ->
        if groups = 1 then 0
        else if i = n - 1 then groups - 1
        else Random.State.int st (groups - 1))
  in
  (xs, ys, grp)

let md5 s = Digest.to_hex (Digest.string s)

(* Samples of a seeded 32-trial search, as (features, latency) rows. *)
let tune_samples () =
  Tir_autosched.Eval.clear_caches ();
  let m =
    match (Util.tune ~seed:5 ~trials:32 gpu (small_gmm ())).Tune.model with
    | Some m -> m
    | None -> Alcotest.fail "tuning returned no model"
  in
  let rows = ref [] in
  Model.iter_samples m (fun ~group:_ ~features ~latency_us ->
      rows := (features, latency_us) :: !rows);
  (m, Array.of_list (List.rev !rows))

(* (name, MD5 of the serialized ensemble or model) for every golden case. *)
let golden_digests () =
  let synth =
    List.concat_map
      (fun (name, seed, n, groups) ->
        let xs, ys, grp = synthetic ~seed ~n ~groups in
        [
          (name ^ " fit", md5 (Gbdt.to_string (Gbdt.fit xs ys)));
          (name ^ " fit_rank", md5 (Gbdt.to_string (Gbdt.fit_rank xs ys ~groups:grp)));
        ])
      [
        ("n3", 1, 3, 1);
        ("n32", 2, 32, 3);
        ("n288/9", 3, 288, 9);
        ("n512/1", 4, 512, 1);
        ("n2048/64", 5, 2048, 64);
      ]
  in
  let tuned, rows = tune_samples () in
  let xs = Array.map fst rows in
  let lats = Array.map snd rows in
  let best = Array.fold_left Float.min Float.infinity lats in
  let tune =
    [
      ( "tune samples",
        md5
          (String.concat ";"
             (Array.to_list
                (Array.map
                   (fun (x, l) ->
                     String.concat "," (List.map (Printf.sprintf "%h") (l :: Array.to_list x)))
                   rows))) );
      ("tune model", md5 (Model.save tuned));
      ("tune fit", md5 (Gbdt.to_string (Gbdt.fit xs (Array.map Float.log lats))));
      ( "tune fit_rank",
        md5
          (Gbdt.to_string
             (Gbdt.fit_rank xs (Array.map (fun l -> best /. l) lats)
                ~groups:(Array.make (Array.length lats) 0))) );
    ]
  in
  let monotone, _ = monotone_corpus () in
  let mixed, regression, _, _ = mixed_scale_corpus () in
  let corpora =
    [
      ("monotone model", md5 (Model.save monotone));
      ("mixed-scale model", md5 (Model.save mixed));
      ("mixed-scale fit", md5 (Gbdt.to_string regression));
      ("trained model", md5 (Model.save (trained_model ())));
    ]
  in
  synth @ tune @ corpora

(* Recorded from the List.sort trainer at commit e197433. *)
let golden =
  [
    ("n3 fit", "e39e80ff0fec29fec92603a597b56a6a");
    ("n3 fit_rank", "0992ca1c2c6baff4ed088832a58b70da");
    ("n32 fit", "12a4dd01c4f6a216f1f0e150fad26e28");
    ("n32 fit_rank", "0198bbfa9ac898e667e761917bccafd9");
    ("n288/9 fit", "f7a1e6cc5c297a880aa892bf9e112cea");
    ("n288/9 fit_rank", "295ded9609997fe49e29d7f2104df77f");
    ("n512/1 fit", "d96df92ced47981936dbc2f0368dc96b");
    ("n512/1 fit_rank", "86947a1b37e9cb6bfa0ba8a2b2d4d2a0");
    ("n2048/64 fit", "ed00c2b415a602bedaa505b07e00905f");
    ("n2048/64 fit_rank", "055c5c219337386a2be43da0c138899f");
    ("tune samples", "add4d28b31cb4d82939349bc516d3af5");
    ("tune model", "bcb2999eb453ccda27bc1c689e1754c0");
    ("tune fit", "113e40fe73d70a6a6c193d52ef55663c");
    ("tune fit_rank", "03c213e89a4e1480919eee9162b0044b");
    ("monotone model", "97cfe9fe256be50f5bbabdbfa8004027");
    ("mixed-scale model", "6f7e48e4e484e0218bcbf34a054b50fc");
    ("mixed-scale fit", "9f46f19cfdd031d7d5f8a257b632f19c");
    ("trained model", "8182ea6334a3342c4f33c06f6ee3f538");
  ]

let test_golden_trainer () =
  List.iter2
    (fun (name, want) (name', got) ->
      Alcotest.(check string) "case" name name';
      Alcotest.(check string) name want got)
    golden (golden_digests ())

(* --- the store ---------------------------------------------------------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "tir_model" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let store_md5 = "7a17e5f0c18c12ae0d4ae35b74858151"

let test_store_absorb_accumulates () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "model.txt" in
  Alcotest.(check bool) "missing store loads None" true
    (Model.Store.load path = None);
  (* First run: group A samples land in a fresh store. *)
  let m1 = Model.gbdt () in
  for i = 1 to 20 do
    let x = float_of_int i in
    Model.add m1 ~group:"A" ~features:(feat x) ~latency_us:(100.0 /. x)
  done;
  ignore (Model.Store.absorb ~path m1);
  (match Model.Store.load path with
  | None -> Alcotest.fail "store missing after absorb"
  | Some s -> Alcotest.(check int) "20 samples" 20 (Model.stats s).Model.samples);
  (* Second run, different workload: the store accumulates both tasks. *)
  let m2 = Model.gbdt () in
  for i = 1 to 15 do
    let x = float_of_int i in
    Model.add m2 ~group:"B" ~features:(feat ~f1:1.0 x) ~latency_us:(3.0 *. x)
  done;
  let merged = Model.Store.absorb ~path m2 in
  let st = Model.stats merged in
  Alcotest.(check int) "35 samples" 35 st.Model.samples;
  Alcotest.(check int) "2 groups" 2 st.Model.groups;
  (* Absorb only merges samples; the one fit happens in [Store.load]. *)
  let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
  Alcotest.(check bool) "store file holds no ensemble" false
    (List.exists (String.starts_with ~prefix:"gbdt|") lines);
  (match Model.Store.load path with
  | None -> Alcotest.fail "store missing after second absorb"
  | Some loaded ->
      let st = Model.stats loaded in
      Alcotest.(check int) "loaded: 35 samples" 35 st.Model.samples;
      Alcotest.(check int) "loaded: 2 groups" 2 st.Model.groups;
      Alcotest.(check bool) "merged store trained" true st.Model.trained;
      (* MD5 of the merged model that absorb returned (trained) at
         commit e197433, on these samples. *)
      Alcotest.(check string) "loaded store = merged model at e197433"
        store_md5 (md5 (Model.save loaded)));
  (* A corrupt store degrades to a cold start, never a crash. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not a model\n");
  Alcotest.(check bool) "corrupt store loads None" true
    (Model.Store.load path = None)

let test_warm_spec_restores_model () =
  let m = trained_model () in
  let warm = Model.of_spec (Model.Warm (Model.save m)) in
  Alcotest.(check string) "warm start restores the snapshot" (Model.save m)
    (Model.save warm);
  Alcotest.(check string) "fresh gbdt spec" (Model.save (Model.gbdt ()))
    (Model.save (Model.of_spec Model.Gbdt))

(* A failed final write is reported, never published: with the temporary
   pointing at /dev/full every write fails, so each save must raise [Io],
   keep the old file and leave no temporary behind. *)
let test_full_disk_save_raises () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  with_tmp_dir @@ fun dir ->
  let check_save name file save =
    let path = Filename.concat dir file in
    let old = "previous contents\n" in
    Out_channel.with_open_bin path (fun oc -> output_string oc old);
    Unix.symlink "/dev/full" (path ^ ".tmp");
    (match save path with
    | () -> Alcotest.failf "%s: save on a full disk returned" name
    | exception Tir_core.Error.Error e ->
        Alcotest.(check string) (name ^ ": io error") "io"
          (Tir_core.Error.kind_name e.Tir_core.Error.kind));
    Alcotest.(check string) (name ^ ": old file kept") old
      (In_channel.with_open_bin path In_channel.input_all);
    Alcotest.(check bool) (name ^ ": temporary removed") false
      (Sys.file_exists (path ^ ".tmp"))
  in
  let m = Model.gbdt () in
  Model.add m ~group:"A" ~features:(feat 1.0) ~latency_us:10.0;
  check_save "model store" "model.txt" (fun path -> Model.Store.save ~path m);
  let db = Tir_autosched.Database.create () in
  check_save "database" "db.txt" (Tir_autosched.Database.save db)

(* --- fit on read ----------------------------------------------------------- *)

(* Run [f] traced; [f] gets a function that counts the [model.retrain]
   spans (fits on read) recorded so far. *)
let with_fit_count f =
  let module Trace = Tir_obs.Trace in
  Trace.enable ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      f (fun () ->
          List.length
            (List.filter
               (fun e -> String.equal e.Trace.e_name "model.retrain")
               (Trace.events ()))))

(* Two generations of 16: the second scores with a fit of the first's
   samples, and nothing reads the model after the second measures. *)
let test_search_fits_once () =
  with_fit_count @@ fun fits ->
  Tir_autosched.Eval.clear_caches ();
  let r = Util.tune ~seed:5 ~trials:32 gpu (small_gmm ()) in
  let steps =
    List.length
      (List.filter
         (fun e -> String.equal e.Tir_obs.Trace.e_name "engine.step")
         (Tir_obs.Trace.events ()))
  in
  Alcotest.(check int) "32 trials" 32 r.Tune.stats.Tir_autosched.Evolutionary.trials;
  Alcotest.(check int) "two generations" 2 steps;
  Alcotest.(check int) "one fit" 1 (fits ())

let test_warm_model_fits_on_new_samples () =
  with_fit_count @@ fun fits ->
  let warm = Model.of_spec (Model.Warm (Model.save (trained_model ()))) in
  ignore (Model.score warm (feat 3.0));
  Alcotest.(check int) "no fit at the first score" 0 (fits ());
  Model.add warm ~group:"C" ~features:(feat 2.0) ~latency_us:4.0;
  ignore (Model.score warm (feat 3.0));
  Alcotest.(check int) "a fit once a sample is added" 1 (fits ())

(* Adds refused at the group cap change no sample, so nothing refits. *)
let test_capped_group_keeps_ensemble () =
  with_fit_count @@ fun fits ->
  let m = Model.gbdt () in
  let add i =
    let x = float_of_int i in
    Model.add m ~group:"A" ~features:(feat x) ~latency_us:(1000.0 /. (1.0 +. x))
  in
  for i = 0 to 511 do
    add i
  done;
  let rows = Array.init 8 (fun i -> feat (float_of_int i)) in
  let first = Model.score_batch m rows in
  Alcotest.(check int) "fit at the first read" 1 (fits ());
  let saved = Model.save m in
  Alcotest.(check bool) "saved with its ensemble" true (has_ensemble saved);
  for i = 512 to 540 do
    add i
  done;
  Alcotest.(check int) "the cap holds" 512 (Model.stats m).Model.samples;
  Alcotest.(check (array (float 0.0))) "same scores" first (Model.score_batch m rows);
  Alcotest.(check int) "no refit" 1 (fits ());
  Alcotest.(check string) "same bytes" saved (Model.save m)

(* [save] of a model that holds an ensemble fits the samples added since
   its last fit: the bytes an explicit retrain before the save gives. *)
let test_save_fits_added_samples () =
  let extra m =
    for i = 1 to 5 do
      Model.add m ~group:"C" ~features:(feat ~f1:2.0 (float_of_int i))
        ~latency_us:(float_of_int (10 * i))
    done
  in
  let eager = trained_model () in
  extra eager;
  Model.retrain eager;
  let want = Model.save eager in
  with_fit_count @@ fun fits ->
  let lazy_ = trained_model () in
  extra lazy_;
  Alcotest.(check string) "save = retrain then save" want (Model.save lazy_);
  Alcotest.(check int) "one fit, in the save" 1 (fits ())

(* A store merge holds samples only: it saves them without fitting, and
   fits once something scores with it. *)
let test_merged_model_saves_samples_only () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "model.txt" in
  let m = Model.gbdt () in
  for i = 1 to 20 do
    let x = float_of_int i in
    Model.add m ~group:"A" ~features:(feat x) ~latency_us:(100.0 /. x)
  done;
  with_fit_count @@ fun fits ->
  let merged = Model.Store.absorb ~path m in
  Alcotest.(check bool) "merge saves no ensemble" false (has_ensemble (Model.save merged));
  Alcotest.(check bool) "store file holds no ensemble" false
    (has_ensemble (In_channel.with_open_bin path In_channel.input_all));
  Alcotest.(check int) "no fit" 0 (fits ());
  ignore (Model.score merged (feat 1.0));
  Alcotest.(check int) "a fit at the first score" 1 (fits ());
  Alcotest.(check bool) "then saves its ensemble" true (has_ensemble (Model.save merged))

(* --- the store appends ------------------------------------------------ *)

let samples_model ?(group = "A") ?(f1 = 0.0) lo hi =
  let m = Model.gbdt () in
  for i = lo to hi do
    let x = float_of_int i in
    Model.add m ~group ~features:(feat ~f1 x) ~latency_us:(100.0 /. x)
  done;
  m

(* [Store.absorb] gives the merge and the file the read-merge-rewrite
   absorb gave, from every kind of starting file; a second absorb into a
   file it wrote appends in place. *)
let test_store_absorb_as_rewrite () =
  with_tmp_dir @@ fun dir ->
  let untrained m = Model.save (Model.load (Model.save m)) in
  let over_cap = samples_model 1 520 in
  let starts =
    [
      ("missing", None);
      ("trained save", Some (Model.save (trained_model ())));
      ("untrained save", Some (untrained (samples_model 1 10)));
      ( "duplicate lines",
        Some
          (let t = untrained (samples_model 1 4) in
           t ^ List.nth (String.split_on_char '\n' t) 2 ^ "\n") );
      ( "other spellings",
        Some
          (untrained (samples_model 1 3)
          ^ "\nsample|A|50.0|" ^ String.concat "," (List.init dim (fun _ -> "0"))
          ^ "\n") );
      ( "past the cap",
        Some
          (untrained over_cap ^ "sample|A|0x1p+0|"
          ^ String.concat "," (List.init dim (fun _ -> "0x0p+0"))
          ^ "\n") );
      ("not a store", Some "garbage\n");
    ]
  in
  List.iter
    (fun (name, start) ->
      let p1 = Filename.concat dir "absorb.txt"
      and p2 = Filename.concat dir "rewrite.txt" in
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ p1; p2 ];
      Option.iter
        (fun text ->
          Util.write_file p1 text;
          Util.write_file p2 text)
        start;
      let step what m =
        let got = Model.Store.absorb ~path:p1 m
        and want = Util.rewrite_absorb ~path:p2 m in
        Alcotest.(check string) (name ^ ": " ^ what ^ " merge") (Model.save want)
          (Model.save got);
        Alcotest.(check string) (name ^ ": " ^ what ^ " file") (Util.read_file p2)
          (Util.read_file p1)
      in
      step "first" (samples_model 3 12);
      let inode = (Unix.stat p1).Unix.st_ino in
      step "second" (samples_model ~group:"C" ~f1:1.0 5 9);
      step "nothing new" (samples_model 3 5);
      Alcotest.(check int) (name ^ ": appended in place") inode (Unix.stat p1).Unix.st_ino)
    starts

(* One read serves the warm start and the appends; a torn sample line is
   dropped unparsed, counted, and never glued onto. *)
let test_store_torn_tail_dropped () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "model.txt" and reference = Filename.concat dir "ref.txt" in
  ignore (Util.rewrite_absorb ~path:reference (samples_model 1 10));
  let complete = Util.read_file reference in
  let torn = List.nth (String.split_on_char '\n' complete) 3 in
  Util.write_file path (complete ^ String.sub torn 0 (String.length torn / 2));
  let counter = Tir_obs.Metrics.counter "db.torn_dropped" in
  let dropped = Tir_obs.Metrics.counter_value counter in
  let store = Model.Store.open_ path in
  Alcotest.(check int) "torn line counted" (dropped + 1)
    (Tir_obs.Metrics.counter_value counter);
  (match (Model.Store.fit store, Model.Store.load reference) with
  | Some warm, Some want ->
      Alcotest.(check string) "warm fit = load of the complete lines" (Model.save want)
        (Model.save warm)
  | _ -> Alcotest.fail "store did not load");
  let m = samples_model ~group:"B" 1 5 in
  Model.Store.add store m;
  ignore (Util.rewrite_absorb ~path:reference m);
  Alcotest.(check string) "rewritten whole" (Util.read_file reference) (Util.read_file path);
  (* A file deleted under the handle is rewritten, not appended to. *)
  Sys.remove path;
  let m = samples_model ~group:"D" 1 3 in
  Model.Store.add store m;
  ignore (Util.rewrite_absorb ~path:reference m);
  Alcotest.(check string) "deleted file rewritten" (Util.read_file reference)
    (Util.read_file path)

let suite =
  [
    Alcotest.test_case "monotone data: spearman > 0.9" `Quick
      test_monotone_spearman;
    Alcotest.test_case "rank loss beats regression on mixed scales" `Quick
      test_rank_beats_regression_on_mixed_scales;
    Alcotest.test_case "analytic prior prefers tensorized" `Quick
      test_analytic_prefers_tensorized;
    Alcotest.test_case "save/load bit-identical, keeps training" `Quick
      test_save_load_bit_identical;
    Alcotest.test_case "spec round-trips" `Quick test_spec_roundtrip;
    Alcotest.test_case "tuned model snapshot identical jobs=1 vs 4" `Quick
      test_tuned_model_save_jobs_identical;
    Alcotest.test_case "trainer matches golden digests" `Quick
      test_golden_trainer;
    Alcotest.test_case "store absorbs across workloads" `Quick
      test_store_absorb_accumulates;
    Alcotest.test_case "warm spec restores the snapshot" `Quick
      test_warm_spec_restores_model;
    Alcotest.test_case "save on a full disk raises, keeps the old file" `Quick
      test_full_disk_save_raises;
    Alcotest.test_case "fit on read: a 32-trial search fits once" `Quick
      test_search_fits_once;
    Alcotest.test_case "fit on read: warm model fits only new samples" `Quick
      test_warm_model_fits_on_new_samples;
    Alcotest.test_case "fit on read: capped group keeps its ensemble" `Quick
      test_capped_group_keeps_ensemble;
    Alcotest.test_case "fit on read: save fits added samples" `Quick
      test_save_fits_added_samples;
    Alcotest.test_case "fit on read: store merge saves samples only" `Quick
      test_merged_model_saves_samples_only;
    Alcotest.test_case "store: absorb = read, merge, rewrite" `Quick
      test_store_absorb_as_rewrite;
    Alcotest.test_case "store: torn sample line dropped" `Quick
      test_store_torn_tail_dropped;
  ]

(* One process of the repository benchmark.

   [run.py] spawns this executable once per measured unit. A unit sets up
   one workload, runs its timed region once, reads peak RSS, then checks
   every delivered schedule and prints one JSON line on stdout. The
   workload is driven only through the program's public entry points:
   [Compile.compile], [Tune.prepare]/[Tune.step], [Jobqueue.submit]/
   [Jobqueue.serve]. Per-layer numbers come from spans this file wraps
   around those calls, plus the spans and counters the program already
   records, all read by name.

     perfbench.exe unit --workload W --seed N [--jobs J] [--trace]
                        [--setup-only] [--interp] [--small] --work DIR
                        [--det-out FILE]
     perfbench.exe selfcheck            determinism test (dune runtest)
     perfbench.exe replay-db W DB       time cold replays of a saved database
     perfbench.exe gen-expected DIR     write the interpreter references *)

module W = Tir_workloads.Workloads
module Dtype = Tir_ir.Dtype
module Fingerprint = Tir_ir.Fingerprint
module Primfunc = Tir_ir.Primfunc
module Target = Tir_sim.Target
module Compile = Tir_graph.Compile
module Models = Tir_graph.Models
module Op = Tir_graph.Op
module Tune = Tir_autosched.Tune
module Evo = Tir_autosched.Evolutionary
module Database = Tir_autosched.Database
module Model = Tir_autosched.Model
module Jobqueue = Tir_service.Jobqueue
module Session = Tir_service.Session
module Metrics = Tir_obs.Metrics
module Trace = Tir_obs.Trace
module Pool = Tir_parallel.Pool
module Interp = Tir_exec.Interp

(* Module init registers the tensor intrinsics, as every executable of the
   repository does; without it every search is scalar-only. *)
let () = Tir_intrin.Library.register_all ()

let now = Unix.gettimeofday
let gpu = Target.gpu_tensorcore
let arm = Target.arm_sdot

(* Settings that would change what the program does; the benchmark pins
   them by refusing to run under any of them. *)
let forbidden_env =
  [
    "TIR_FAULTS"; "TIR_DEEPCHECK"; "TIR_APPLY_CACHE"; "TIR_NEST_CACHE";
    "TIR_ANALYSIS_CACHE"; "TIR_STALL_GENS"; "TIR_HALT_AFTER_GEN"; "OCAMLRUNPARAM";
  ]

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec add_json b = function
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; add_json b x) l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_json b (Str k);
          Buffer.add_char b ':';
          add_json b v)
        kvs;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 4096 in
  add_json b j;
  Buffer.contents b

(* Exact float identity for the determinism fields. *)
let hex = Printf.sprintf "%h"

(* ------------------------------------------------------------------ *)
(* Workload scale                                                       *)
(* ------------------------------------------------------------------ *)

(* [full] is what the benchmark measures; [small] is the same code at a
   size the determinism self-check can run four times per workload. *)
type scale = {
  zoo_models : Models.t list;
  zoo_trials : int;
  long_ops : (string * Target.t * W.t) list Lazy.t;
  long_trials : int;
  serve_queues : int;
  serve_pairs : int;  (** tags per wave, at most 8 *)
  serve_trials : int;
  serve_cut_steps : int;
  interp_trials : int;
}

let serve_tags = [ "C1D"; "C2D"; "C3D"; "DEP"; "DIL"; "GMM"; "GRP"; "T2D" ]

let full =
  {
    zoo_models = Models.gpu_models;
    zoo_trials = 32;
    long_ops =
      lazy
        [
          ("gemm-1024-fp16-gpu", gpu, W.gmm ~in_dtype:Dtype.F16 ~acc_dtype:Dtype.F32 ());
          ("c2d-int8-arm", arm, W.c2d ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 ());
        ];
    long_trials = 1024;
    serve_queues = 2;
    serve_pairs = 8;
    serve_trials = 32;
    serve_cut_steps = 10;
    interp_trials = 16;
  }

let small =
  {
    zoo_models = [ Models.bert_large ];
    zoo_trials = 8;
    long_ops =
      lazy
        [
          ( "gemm-256-fp16-gpu",
            gpu,
            W.gmm ~in_dtype:Dtype.F16 ~acc_dtype:Dtype.F32 ~m:256 ~n:256 ~k:256 () );
          ( "c2d-int8-arm",
            arm,
            W.c2d ~in_dtype:Dtype.I8 ~acc_dtype:Dtype.I32 ~h:14 ~w:14 () );
        ];
    long_trials = 64;
    serve_queues = 1;
    serve_pairs = 3;
    serve_trials = 8;
    serve_cut_steps = 4;
    interp_trials = 8;
  }

(* ------------------------------------------------------------------ *)
(* Unit record                                                          *)
(* ------------------------------------------------------------------ *)

type unit_result = {
  mutable t_first : float;  (** wall clock at the first timed operation *)
  mutable wall_s : float;
  mutable trials : int;  (** programs measured on the simulator *)
  mutable attempted : int;  (** tasks, operators or jobs *)
  mutable failures : string list;
  mutable delivered : float list;  (** simulated µs behind best_us_geomean *)
  mutable tuning_min : float;
  mutable time_to_best_s : float;
  mutable peak_rss_mb : float;
  mutable search_lat : float list;
  mutable replay_lat : float list;
  mutable trial_to_best : int list;
  mutable detail : string list;
  mutable inputs : string list;  (** generated task / job list *)
  mutable snap : Metrics.snapshot option;  (** at the end of the timed region *)
  mutable apply_cache : int * int;
  mutable layers : (string * float * string * string) list;
      (** traced-run extras: name, value, unit, base *)
}

let new_result () =
  {
    t_first = 0.0; wall_s = 0.0; trials = 0; attempted = 0; failures = [];
    delivered = []; tuning_min = 0.0; time_to_best_s = 0.0; peak_rss_mb = 0.0;
    search_lat = []; replay_lat = []; trial_to_best = []; detail = []; inputs = [];
    snap = None; apply_cache = (0, 0); layers = [];
  }

(* Failure messages start with the name of the operation they concern. *)
let fail r fmt = Printf.ksprintf (fun m -> r.failures <- m :: r.failures) fmt

let failed_operations r =
  List.sort_uniq compare
    (List.map (fun m -> List.hd (String.split_on_char ':' m)) r.failures)
  |> List.length
let detail r fmt = Printf.ksprintf (fun m -> r.detail <- m :: r.detail) fmt
let layer r name value unit_ base = r.layers <- (name, value, unit_, base) :: r.layers

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        Float.nan (String.split_on_char '\n' s)
  | exception Sys_error _ -> Float.nan

let span = Trace.with_span

(* The timed region. Tracing, when asked for, is on only inside it, with
   room for every event so nothing is dropped. *)
let timed r ~trace f =
  Metrics.reset ();
  if trace then begin
    Trace.reset ();
    Trace.set_capacity 8_000_000;
    Trace.enable ()
  end;
  r.t_first <- now ();
  let x = span "bench.unit" f in
  r.wall_s <- now () -. r.t_first;
  Trace.disable ();
  r.snap <- Some (Metrics.snapshot ());
  r.apply_cache <- Tir_sched.Apply_cache.stats ();
  r.peak_rss_mb <- peak_rss_mb ();
  x

let search_seed seed name = Hashtbl.hash (seed, name) land 0x3fffffff

let geomean xs =
  let xs = List.filter (fun x -> Float.is_finite x && x > 0.0) xs in
  match xs with
  | [] -> Float.nan
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Trial index at which the best first came within 1 % of the final best. *)
let trial_to_best (res : Tune.result) =
  let final = Tune.latency_us res in
  List.sort compare res.Tune.stats.Evo.best_curve
  |> List.find_opt (fun (_, b) -> b <= final *. 1.01)
  |> Option.fold ~none:0 ~some:fst

(* ------------------------------------------------------------------ *)
(* One search through Tune.prepare / Tune.step                         *)
(* ------------------------------------------------------------------ *)

type searched = {
  s_name : string;
  s_target : Target.t;
  s_w : W.t;
  s_res : Tune.result;
  s_wall : float;
  s_ttb : float;  (** wall time to the first generation within 1 % of final *)
}

let search ~pool ~name cfg (w : W.t) target =
  let t0 = now () in
  let d = span "bench.prepare" (fun () -> Tune.prepare ~pool cfg w target) in
  let rec go curve =
    match span "bench.step" (fun () -> Tune.step d) with
    | Tune.Stepped { best_us; _ } -> go ((now () -. t0, best_us) :: curve)
    | Tune.Finished res -> (res, (now () -. t0, Tune.latency_us res) :: curve)
  in
  let res, curve = go [] in
  let wall = now () -. t0 in
  let final = Tune.latency_us res in
  let ttb =
    List.rev curve
    |> List.find_opt (fun (_, b) -> b <= final *. 1.01)
    |> Option.fold ~none:wall ~some:fst
  in
  { s_name = name; s_target = target; s_w = w; s_res = res; s_wall = wall; s_ttb = ttb }

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let fp_hex f = Fingerprint.to_hex (Fingerprint.func f)

let check_program r name (f : Primfunc.t) =
  (match Tir_sched.Validate.check_func f with
  | [] -> ()
  | issues -> fail r "%s: replayed program fails validation (%d issues)" name (List.length issues));
  match Tir_analysis.Analysis.errors f with
  | [] -> ()
  | ds -> fail r "%s: replayed program has %d analyzer errors" name (List.length ds)

(* Zoo-compile and long-search have no replay jobs. Their replay samples
   answer a request for a stored schedule from the database a unit saved,
   in a fresh process, as a server process answering replay jobs does, so
   they do not depend on the heap and caches the timed region left
   behind. The process prints one line per record: its name and the
   fastest of [replay_passes] replays, with the caches dropped before
   each. Each pass replays every record once, so a record's replays are
   spread over the whole process; the first two passes, while the heap
   grows, are the slowest. The machine has slow phases, from a fraction
   of a second to many seconds, in which every replay takes 20-50 %
   longer, so [run.py] replays each database in several such processes
   spread over its run and keeps each record's fastest replay. *)
let replay_passes = 8

let replay_db (ws : (Target.t * W.t) list) db_path =
  let db = Database.load db_path in
  let recs =
    List.filter_map
      (fun (target, (w : W.t)) ->
        Database.find db ~target_name:target.Target.name ~workload_name:w.W.name
        |> Option.map (fun rc -> (target, w, rc, ref infinity)))
      ws
  in
  for _ = 1 to replay_passes do
    List.iter
      (fun (target, w, rc, fastest) ->
        Tir_autosched.Eval.clear_caches ();
        Tir_analysis.Analysis.clear_cache ();
        Tir_sched.Apply_cache.clear ();
        let t0 = now () in
        if Option.is_none (Database.replay target ~workload:w ~sketches:[] rc) then exit 3;
        fastest := Float.min !fastest (now () -. t0))
      recs
  done;
  List.iter (fun (_, (w : W.t), _, fastest) -> Printf.printf "%s %.9f\n" w.W.name !fastest) recs

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Every best goes through Database.save / Database.load and is replayed
   from its trace alone: same fingerprint, same simulated latency, valid,
   analyzer-clean. Returns the replayed programs by search name. *)
let check_searched r ~db_path (ss : searched list) =
  let db = Database.create () in
  List.iter
    (fun s ->
      match s.s_res.Tune.best with
      | Some b when Float.is_finite b.Evo.latency_us -> Database.commit db s.s_target s.s_w b
      | _ -> fail r "%s: no finite best" s.s_name)
    ss;
  Database.save db db_path;
  let t0 = now () in
  let loaded = Database.load db_path in
  layer r "db.load_ms" ((now () -. t0) *. 1e3) "ms" "one Database.load of the saved bests";
  layer r "db.bytes" (float_of_int (file_size db_path)) "bytes" "saved database of the bests";
  List.filter_map
    (fun s ->
      match s.s_res.Tune.best with
      | None -> None
      | Some b -> (
          match
            Database.find loaded ~target_name:s.s_target.Target.name
              ~workload_name:s.s_w.W.name
          with
          | None ->
              fail r "%s: best missing after Database.save/load" s.s_name;
              None
          | Some rc -> (
              match Database.replay s.s_target ~workload:s.s_w ~sketches:[] rc with
              | None ->
                  fail r "%s: trace replay failed" s.s_name;
                  None
              | Some m ->
                  if fp_hex m.Evo.func <> fp_hex b.Evo.func then
                    fail r "%s: replayed fingerprint differs" s.s_name;
                  if not (same_float m.Evo.latency_us b.Evo.latency_us) then
                    fail r "%s: replayed latency %h differs from %h" s.s_name m.Evo.latency_us
                      b.Evo.latency_us;
                  check_program r s.s_name m.Evo.func;
                  Some (s.s_name, m.Evo.func))))
    ss

(* --- interpreter references for small-shape instances --------------- *)

(* Small instance of each operator family, per target kind: 16 output
   positions or more, so the Tensor Core and sdot sketches apply. CPU jobs
   use the int8 variants of C2D and GMM, as Jobqueue.resolve does. *)
let small_instance tag (target : Target.t) =
  let i8 = target.Target.kind = Target.Cpu in
  let d = if i8 then (Dtype.I8, Dtype.I32) else (Dtype.F16, Dtype.F32) in
  let in_dtype, acc_dtype = d in
  match tag with
  | "GMM" -> W.gmm ~in_dtype ~acc_dtype ~m:16 ~n:48 ~k:32 ()
  | "C2D" -> W.c2d ~in_dtype ~acc_dtype ~h:4 ~w:4 ~ci:16 ~co:48 ()
  | "C1D" -> W.c1d ~l:16 ~ci:16 ~co:16 ()
  | "C3D" -> W.c3d ~d:1 ~h:4 ~w:4 ~ci:16 ~co:16 ()
  | "DEP" -> W.dep ~h:8 ~w:8 ~c:16 ()
  | "DIL" -> W.dil ~h:4 ~w:4 ~ci:16 ~co:16 ()
  | "GRP" -> W.grp ~h:4 ~w:4 ~groups:2 ~ci:32 ~co:32 ()
  | "T2D" -> W.t2d ~h:2 ~w:2 ~ci:16 ~co:16 ()
  | t -> invalid_arg ("small_instance: " ^ t)

let target_key (t : Target.t) = match t.Target.kind with Target.Gpu -> "gpu" | Target.Cpu -> "cpu"
let expected_key tag t = String.lowercase_ascii tag ^ "-" ^ target_key t

(* Inputs exactly representable in fp16 and int8 (so every summation
   order gives the same result), independent of buffer ids. *)
let interp_inputs (f : Primfunc.t) =
  let params = f.Primfunc.params in
  let n = List.length params in
  List.mapi
    (fun i (b : Tir_ir.Buffer.t) ->
      let st = Random.State.make [| 7; i |] in
      Array.init (Tir_ir.Buffer.numel b) (fun _ ->
          if i = n - 1 then 0.0
          else if Dtype.is_int b.Tir_ir.Buffer.dtype then float_of_int (Random.State.int st 7 - 3)
          else float_of_int (Random.State.int st 17 - 8) /. 8.0))
    params

let interp_output (f : Primfunc.t) =
  let env = Interp.run f (interp_inputs f) in
  let params = f.Primfunc.params in
  Interp.output env (List.nth params (List.length params - 1))

(* Relative to the root of a checkout, where run.py runs every unit. *)
let read_expected key =
  In_channel.with_open_text ("perfbench/expected/" ^ key ^ ".txt") In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map float_of_string |> Array.of_list

(* Tune each family's small instance, replay its best from the database,
   run the replayed program in the interpreter and compare with the
   reference computed once from the unscheduled program. *)
let interp_check r sc ~seed ~pool ~dir fams =
  let ss =
    List.map
      (fun (tag, target) ->
        let w = small_instance tag target in
        let cfg =
          Tune.Config.(
            default |> with_trials sc.interp_trials
            |> with_seed (search_seed seed ("interp" ^ w.W.name)))
        in
        search ~pool ~name:(expected_key tag target) cfg w target)
      fams
  in
  let replayed = check_searched r ~db_path:(Filename.concat dir "interp-db.txt") ss in
  List.iter
    (fun (key, f) ->
      match read_expected key with
      | exception (Sys_error _ | Failure _) -> fail r "%s: no reference output" key
      | expect ->
          let got = interp_output f in
          if not (Interp.allclose got expect) then fail r "%s: interpreter output differs" key)
    replayed;
  detail r "interp-check %d families, best sketch of each: %s" (List.length replayed)
    (String.concat " "
       (List.map
          (fun s ->
            s.s_name ^ ":"
            ^ Option.fold ~none:"none" ~some:(fun b -> b.Evo.sketch_name) s.s_res.Tune.best)
          ss))

let gen_expected dir =
  List.iter
    (fun tag ->
      List.iter
        (fun target ->
          let w = small_instance tag target in
          let out = interp_output w.W.func in
          let path = Filename.concat dir (expected_key tag target ^ ".txt") in
          Out_channel.with_open_text path (fun oc ->
              Printf.fprintf oc "# %s, unscheduled %s, %d values\n" (expected_key tag target)
                w.W.name (Array.length out);
              Array.iter (fun v -> Printf.fprintf oc "%.17g\n" v) out))
        [ gpu; arm ])
    serve_tags

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

let searched_totals r (ss : searched list) =
  r.trials <- List.fold_left (fun a s -> a + s.s_res.Tune.stats.Evo.trials) 0 ss;
  r.tuning_min <- List.fold_left (fun a s -> a +. Tune.tuning_minutes s.s_res) 0.0 ss;
  r.time_to_best_s <- List.fold_left (fun a s -> a +. s.s_ttb) 0.0 ss;
  r.search_lat <- List.map (fun s -> s.s_wall) ss;
  r.trial_to_best <- List.map (fun s -> trial_to_best s.s_res) ss;
  r.attempted <- List.length ss

(* Each operator's final model: time one retrain and one batch score. *)
let model_layers r models =
  let retrain = ref [] and score = ref [] and samples = ref 0 in
  List.iter
    (fun m ->
      let rows = ref [] in
      Model.iter_samples m (fun ~group:_ ~features ~latency_us:_ -> rows := features :: !rows);
      let rows = Array.of_list !rows in
      samples := !samples + Array.length rows;
      let t0 = now () in
      Model.retrain m;
      retrain := (now () -. t0) :: !retrain;
      if Array.length rows > 0 then begin
        let t0 = now () in
        ignore (Model.score_batch m rows);
        score := ((now () -. t0) /. float_of_int (Array.length rows)) :: !score
      end)
    models;
  let mean = function [] -> Float.nan | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let n = List.length models in
  layer r "model.samples" (float_of_int !samples) "count" (Printf.sprintf "%d final models" n);
  layer r "model.retrain_ms" (mean !retrain *. 1e3) "ms" (Printf.sprintf "mean of %d Model.retrain" n);
  layer r "model.score_us" (mean !score *. 1e6) "us" "per row of Model.score_batch on its own samples"

(* Task extraction and op lowering: the distinct fp16 workloads of the
   models' heavy operators. *)
let zoo_tasks sc =
  List.concat_map
    (fun (m : Models.t) ->
      List.filter_map
        (fun { Models.op; _ } -> Op.workload ~in_dtype:Dtype.F16 ~acc_dtype:Dtype.F32 op)
        m.Models.layers)
    sc.zoo_models
  |> List.sort_uniq (fun (a : W.t) b -> String.compare a.W.name b.W.name)

let zoo_compile sc ~seed ~pool ~trace ~setup_only ~interp ~dir r =
  let pool = Lazy.force pool in
  let tasks = zoo_tasks sc in
  r.inputs <- List.map (fun (w : W.t) -> w.W.name) tasks;
  if not setup_only then begin
    let ss = ref [] in
    let tune_op target (w : W.t) =
      let cfg =
        Tune.Config.(default |> with_trials sc.zoo_trials |> with_seed (search_seed seed w.W.name))
      in
      let s = search ~pool ~name:w.W.name cfg w target in
      ss := s :: !ss;
      Some s.s_res
    in
    let sched =
      let base = Compile.tensorir ~trials:sc.zoo_trials () in
      { base with Compile.sname = Printf.sprintf "%s/seed%d" base.Compile.sname seed; tune_op }
    in
    let reports =
      timed r ~trace (fun () ->
          List.map (fun m -> span "bench.compile" (fun () -> Compile.compile sched gpu m)) sc.zoo_models)
    in
    let ss = List.rev !ss in
    searched_totals r ss;
    r.delivered <- List.map (fun (m : Compile.model_report) -> m.Compile.latency_us) reports;
    List.iter
      (fun (m : Compile.model_report) ->
        detail r "model %-14s latency_us=%.3f ops=%d tuning_min=%.4f" m.Compile.model
          m.Compile.latency_us (List.length m.Compile.ops) m.Compile.total_tuning_minutes)
      reports;
    List.iter
      (fun s ->
        detail r "task  %-40s best_us=%.3f trials=%d search_s=%.3f" s.s_name
          (Tune.latency_us s.s_res) s.s_res.Tune.stats.Evo.trials s.s_wall)
      ss;
    (* run.py times replays of this database; see [replay_db]. *)
    ignore (check_searched r ~db_path:(Filename.concat dir "db.txt") ss);
    if interp then begin
      let tags = List.sort_uniq compare (List.map (fun (w : W.t) -> w.W.tag) tasks) in
      interp_check r sc ~seed ~pool ~dir (List.map (fun t -> (t, gpu)) tags)
    end;
    if trace then begin
      layer r "graph.tasks" (float_of_int (List.length ss)) "count" "distinct tuning tasks";
      model_layers r (List.filter_map (fun s -> s.s_res.Tune.model) ss)
    end
  end

let long_search sc ~seed ~pool ~trace ~setup_only ~interp ~dir r =
  let pool = Lazy.force pool in
  let ops = Lazy.force sc.long_ops in
  r.inputs <- List.map (fun (n, _, (w : W.t)) -> n ^ ":" ^ w.W.name) ops;
  if not setup_only then begin
    let ss =
      timed r ~trace (fun () ->
          List.map
            (fun (name, target, (w : W.t)) ->
              let cfg =
                Tune.Config.(default |> with_trials sc.long_trials |> with_seed (search_seed seed name))
              in
              search ~pool ~name cfg w target)
            ops)
    in
    searched_totals r ss;
    r.delivered <- List.map (fun s -> Tune.latency_us s.s_res) ss;
    List.iter
      (fun s ->
        detail r "op    %-20s best_us=%.3f trials=%d search_s=%.3f time_to_best_s=%.3f trial_to_best=%d"
          s.s_name (Tune.latency_us s.s_res) s.s_res.Tune.stats.Evo.trials s.s_wall s.s_ttb
          (trial_to_best s.s_res))
      ss;
    (* run.py times replays of this database; see [replay_db]. *)
    ignore (check_searched r ~db_path:(Filename.concat dir "db.txt") ss);
    if interp then interp_check r sc ~seed ~pool ~dir [ ("GMM", gpu); ("C2D", arm) ];
    if trace then model_layers r (List.filter_map (fun s -> s.s_res.Tune.model) ss)
  end

(* --- serve-mixed ---------------------------------------------------- *)

type sjob = {
  job : Jobqueue.job;
  queue : string;
  replays : string option;  (** name of the earlier job whose pair it repeats *)
  mutable submitted : float;
}

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let take n l = List.filteri (fun i _ -> i < n) l

(* Per queue, two waves. Wave 1 searches [serve_pairs] tags on one target
   (GPU in even queues, CPU in odd ones). Wave 2 searches the same tags on
   the other target and re-submits wave 1's pairs under new names and
   seeds. The seed sets each group's FIFO order (the names), which half of
   it runs at priority 2, and every job seed; the mix of work is the same
   in every unit. Re-submissions' names sort after the searches', so they
   queue behind them. *)
let serve_waves sc ~seed ~work =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let tags = take sc.serve_pairs serve_tags in
  List.init sc.serve_queues (fun q ->
      let queue = Filename.concat work (Printf.sprintf "queue%d" q) in
      let first, second = if q mod 2 = 0 then ("gpu", "cpu") else ("cpu", "gpu") in
      let group ~wave ~cls pairs =
        let n = List.length pairs in
        let slot = Array.of_list (shuffle st (List.init n Fun.id)) in
        let prio = Array.of_list (shuffle st (List.init n (fun i -> if i < n / 2 then 2 else 1))) in
        List.mapi
          (fun i ((tag, target), replays) ->
            let j_name =
              Printf.sprintf "w%d%c%02d-%04x-%s-%s" wave cls slot.(i) (Random.State.int st 0x10000)
                (String.lowercase_ascii tag) target
            in
            {
              job =
                {
                  Jobqueue.j_name; j_workload = tag; j_target = target;
                  j_seed = Random.State.int st 1_000_000; j_trials = sc.serve_trials;
                  j_priority = prio.(i);
                };
              queue; replays; submitted = Float.nan;
            })
          pairs
      in
      let fresh target = List.map (fun t -> ((t, target), None)) tags in
      let wave1 = group ~wave:1 ~cls:'a' (fresh first) in
      let resubmit =
        List.map
          (fun (j : sjob) ->
            ((j.job.Jobqueue.j_workload, j.job.Jobqueue.j_target), Some j.job.Jobqueue.j_name))
          wave1
      in
      let wave2 = group ~wave:2 ~cls:'a' (fresh second) @ group ~wave:2 ~cls:'b' resubmit in
      (queue, [ wave1; wave2 ]))

let serve_mixed sc ~seed ~jobs ~trace ~setup_only ~interp ~dir ~pool r =
  let work = Filename.concat dir "serve" in
  let queues = serve_waves sc ~seed ~work in
  List.iter (fun (q, _) -> Jobqueue.ensure_queue q) queues;
  let all = List.concat_map (fun (_, waves) -> List.concat waves) queues in
  r.inputs <- List.map (fun j -> String.concat "," (String.split_on_char '\n' (String.trim (Jobqueue.job_to_string j.job)))) all;
  if not setup_only then begin
    let nq = List.length queues in
    timed r ~trace (fun () ->
        List.iteri
          (fun qi (queue, waves) ->
            List.iteri
              (fun wi wave ->
                List.iter
                  (fun j ->
                    j.submitted <- now ();
                    ignore (span "bench.submit" (fun () -> Jobqueue.submit ~queue j.job)))
                  wave;
                let cfg = { (Jobqueue.default_config queue) with Jobqueue.jobs = Some jobs } in
                let serve c = span "bench.serve" (fun () -> Jobqueue.serve c) in
                (* The last queue's first wave is cut at a step budget and
                   finished by a restarted server that adopts the running
                   jobs. It holds searches only: an adopted session skips
                   the database, so an adopted re-submission would search
                   instead of replaying. *)
                if qi = nq - 1 && wi = 0 then begin
                  let o = serve { cfg with Jobqueue.max_steps = Some sc.serve_cut_steps } in
                  if not o.Jobqueue.o_budget then fail r "%s: cut wave finished inside its budget" queue
                end;
                let o = serve cfg in
                if o.Jobqueue.o_failed > 0 then fail r "%s: %d jobs failed" queue o.Jobqueue.o_failed)
              waves)
          queues);
    let results = Hashtbl.create 64 in
    List.iter
      (fun j ->
        let name = j.job.Jobqueue.j_name in
        match Jobqueue.find_job j.queue name with
        | Some Jobqueue.Done ->
            let kv = Jobqueue.read_result ~queue:j.queue ~name in
            let get k = Option.value (List.assoc_opt k kv) ~default:"" in
            let lat = (Unix.stat (Jobqueue.result_file j.queue name)).Unix.st_mtime -. j.submitted in
            if get "status" <> "ok" then fail r "%s: status %s" name (get "status")
            else Hashtbl.replace results name (kv, lat)
        | _ -> fail r "%s: not in done/" name)
      all;
    let res name = Hashtbl.find_opt results name in
    let latency_of kv = float_of_string (List.assoc "latency_us" kv) in
    r.attempted <- List.length all;
    List.iter
      (fun j ->
        match res j.job.Jobqueue.j_name with
        | None -> ()
        | Some (kv, lat) ->
            r.trials <- r.trials + int_of_string (List.assoc "trials_done" kv);
            r.delivered <- latency_of kv :: r.delivered;
            if j.replays = None then r.search_lat <- lat :: r.search_lat
            else r.replay_lat <- lat :: r.replay_lat;
            detail r "job   %-26s %-6s best_us=%.3f trials=%s latency_s=%.3f"
              j.job.Jobqueue.j_name (if j.replays = None then "search" else "replay")
              (latency_of kv) (List.assoc "trials_done" kv) lat)
      all;
    r.delivered <- List.rev r.delivered;
    (* A client sees a job's best only when its result appears. *)
    r.time_to_best_s <- List.fold_left ( +. ) 0.0 r.search_lat;
    if trace then begin
      let wal_bytes =
        List.fold_left
          (fun a j -> a + file_size (Jobqueue.wal_file j.queue Jobqueue.Done j.job.Jobqueue.j_name))
          0 all
      in
      layer r "wal.bytes" (float_of_int wal_bytes) "bytes" "sum of job WALs";
      let db_bytes = List.fold_left (fun a (q, _) -> a + file_size (Jobqueue.db_file q)) 0 queues in
      layer r "db.bytes" (float_of_int db_bytes) "bytes" "sum of queue db.txt"
    end;
    (* Checks. Every search job's best is in its queue's db.txt (written
       by Database.save); replaying that record from its trace alone must
       reproduce the job's latency and trace, and the program that the
       job's own WAL reconstructs. *)
    let dbs =
      List.mapi
        (fun i (q, _) ->
          let t0 = now () in
          let db = Database.load (Jobqueue.db_file q) in
          if trace && i = 0 then
            layer r "db.load_ms" ((now () -. t0) *. 1e3) "ms" "Database.load of the first queue's db.txt";
          (q, db))
        queues
    in
    List.iter
      (fun j ->
        let name = j.job.Jobqueue.j_name in
        match res name with
        | None -> ()
        | Some (kv, _) -> (
            let target, w = Jobqueue.resolve ~name j.job in
            let session =
              Session.resume ~workload:w ~path:(Jobqueue.wal_file j.queue Jobqueue.Done name) ()
            in
            let sres = Session.run session in
            r.tuning_min <- r.tuning_min +. Tune.tuning_minutes sres;
            let trace_s = List.assoc "trace" kv in
            match j.replays with
            | Some orig -> (
                match res orig with
                | Some (okv, _) ->
                    if List.assoc "trace" okv <> trace_s then
                      fail r "%s: replayed trace differs from %s" name orig;
                    if not (same_float (latency_of okv) (latency_of kv)) then
                      fail r "%s: replayed latency differs from %s" name orig
                | None -> ())
            | None -> (
                r.trial_to_best <- trial_to_best sres :: r.trial_to_best;
                let db = List.assoc j.queue dbs in
                match
                  Database.find db ~target_name:target.Target.name ~workload_name:w.W.name
                with
                | None -> fail r "%s: best missing from db.txt" name
                | Some rc -> (
                    (match rc.Database.trace with
                    | Some t when Tir_sched.Trace.to_string t = trace_s -> ()
                    | _ -> fail r "%s: db.txt trace differs from the job result" name);
                    match Database.replay target ~workload:w ~sketches:[] rc with
                    | None -> fail r "%s: trace replay failed" name
                    | Some m ->
                        if not (same_float m.Evo.latency_us (latency_of kv)) then
                          fail r "%s: replayed latency differs" name;
                        (match sres.Tune.best with
                        | Some b when fp_hex b.Evo.func = fp_hex m.Evo.func -> ()
                        | _ -> fail r "%s: replayed fingerprint differs from the WAL's best" name);
                        check_program r name m.Evo.func))))
      all;
    r.trial_to_best <- List.rev r.trial_to_best;
    if interp then
      interp_check r sc ~seed ~pool:(Lazy.force pool) ~dir
        (List.concat_map (fun t -> [ (t, gpu); (t, arm) ]) serve_tags);
    if trace then begin
      (* Serve exposes no Tune.result.model; the final store stands in for
         the per-operator models. *)
      let store = Jobqueue.model_file (fst (List.hd queues)) in
      layer r "store.bytes" (float_of_int (file_size store)) "bytes" "first queue's model.txt";
      let t0 = now () in
      let stored = Model.Store.load store in
      layer r "store.load_ms" ((now () -. t0) *. 1e3) "ms" "one Model.Store.load";
      match stored with
      | None -> fail r "%s: model store missing" store
      | Some m ->
          layer r "store.samples" (float_of_int (Model.stats m).Model.samples) "count" "first queue's store";
          (* Absorb one finished search's model (the first wave-1 job,
             re-run standalone) into a copy of the final store. *)
          let j = List.hd (snd (List.hd queues) |> List.hd) in
          let target, w = Jobqueue.resolve ~name:j.job.Jobqueue.j_name j.job in
          let one =
            search ~pool:(Lazy.force pool) ~name:j.job.Jobqueue.j_name
              Tune.Config.(
                default |> with_seed j.job.Jobqueue.j_seed |> with_trials j.job.Jobqueue.j_trials)
              w target
          in
          let copy = Filename.concat dir "store-copy.txt" in
          Model.Store.save ~path:copy m;
          (match one.s_res.Tune.model with
          | Some om ->
              let t0 = now () in
              ignore (Model.Store.absorb ~path:copy om);
              layer r "store.absorb_ms" ((now () -. t0) *. 1e3) "ms" "absorb one search's model into a copy of the store"
          | None -> ());
          model_layers r [ m ]
    end
  end

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of the traced run                                  *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* The highest whole percentile with at least ten samples beyond it; the
   maximum when there are ten samples or fewer. *)
let tail_pct n = if n <= 10 then 100 else 100 * (n - 10) / n

type span_stat = { count : int; total_s : float; self_s : float; durs : float array }

let span_stats () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.e_kind = Trace.Span then begin
        let c, t, s, d =
          Option.value (Hashtbl.find_opt tbl e.Trace.e_name) ~default:(0, 0.0, 0.0, [])
        in
        Hashtbl.replace tbl e.Trace.e_name
          (c + 1, t +. (e.Trace.e_dur_us /. 1e6), s +. (e.Trace.e_self_us /. 1e6), e.Trace.e_dur_us :: d)
      end)
    (Trace.events ());
  Hashtbl.fold
    (fun name (count, total_s, self_s, d) acc ->
      let durs = Array.of_list d in
      Array.sort compare durs;
      (name, { count; total_s; self_s; durs }) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let trace_layers r ~jobs =
  let snap = Option.get r.snap in
  let spans = span_stats () in
  let sp name = List.assoc_opt name spans in
  let ctr name = Option.map float_of_int (Metrics.find_counter snap name) in
  let ( / ) a b = if b = 0.0 then Float.nan else a /. b in
  let add name v unit_ base = layer r name (Option.value v ~default:Float.nan) unit_ base in
  let missing name = layer r name Float.nan "missing" "not recorded by this build" in
  let count name = add name (ctr name) "count" "counter" in
  let span_count metric name =
    add metric (Option.map (fun s -> float_of_int s.count) (sp name)) "count" (name ^ " spans")
  in
  let span_pcts metric name =
    match sp name with
    | None -> missing (metric ^ "_p50"); missing (metric ^ "_tail")
    | Some s ->
        let n = Array.length s.durs in
        add (metric ^ "_p50") (Some (percentile s.durs 50.0 /. 1e3)) "ms" (Printf.sprintf "p50 of %d %s spans" n name);
        add (metric ^ "_tail")
          (Some (percentile s.durs (float_of_int (tail_pct n)) /. 1e3))
          "ms" (Printf.sprintf "p%d of %d %s spans" (tail_pct n) n name)
  in
  (* graph / tune: the benchmark's spans around Compile.compile and
     Tune.prepare; engine: the program's engine.step span. *)
  (match sp "bench.compile" with
  | Some s -> add "graph.compile_s" (Some s.total_s) "s" (Printf.sprintf "%d Compile.compile calls" s.count)
  | None -> ());
  (match sp "bench.prepare" with
  | Some s ->
      add "tune.prepare_ms_p50" (Some (percentile s.durs 50.0 /. 1e3)) "ms"
        (Printf.sprintf "p50 of %d Tune.prepare calls" s.count);
      add "tune.prepare_s" (Some s.total_s) "s" (Printf.sprintf "%d Tune.prepare calls" s.count)
  | None -> ());
  span_count "engine.steps" "engine.step";
  span_pcts "engine.step_ms" "engine.step";
  add "engine.step_self_s" (Option.map (fun s -> s.self_s) (sp "engine.step")) "s" "self time of engine.step spans";
  (* search funnel *)
  List.iter
    (fun c -> count ("search." ^ c))
    [ "proposed"; "deduped"; "pruned_static"; "inapplicable"; "invalid"; "unsound"; "trials" ];
  (match (ctr "search.trials", ctr "search.proposed", ctr "search.deduped") with
  | Some t, Some p, Some d -> add "search.yield" (Some (t / (p +. d))) "ratio" "trials / (proposed + deduped)"
  | _ -> missing "search.yield");
  (* eval and sim: the program's evaluate and measure spans *)
  (match sp "evaluate" with
  | Some s ->
      add "eval.calls" (Some (float_of_int s.count)) "count" "evaluate spans";
      add "eval.busy_s" (Some s.total_s) "s" "sum of evaluate span durations, all domains";
      add "eval.us_per_call" (Some (s.total_s *. 1e6 / float_of_int s.count)) "us" "eval.busy_s / eval.calls"
  | None -> List.iter missing [ "eval.calls"; "eval.busy_s"; "eval.us_per_call" ]);
  let memo metric hits misses =
    match (hits, misses) with
    | Some h, Some m ->
        add (metric ^ ".hit_rate") (Some (h / (h +. m))) "ratio" (Printf.sprintf "of %.0f probes" (h +. m));
        add (metric ^ ".probes") (Some (h +. m)) "count" "hits + misses";
        add (metric ^ ".misses") (Some m) "count" "entries added"
    | _ -> List.iter (fun s -> missing (metric ^ s)) [ ".hit_rate"; ".probes"; ".misses" ]
  in
  List.iter
    (fun n -> memo ("memo." ^ n) (ctr ("memo." ^ n ^ ".hits")) (ctr ("memo." ^ n ^ ".misses")))
    [ "eval"; "measure"; "analysis.race" ];
  (let h, m = r.apply_cache in
   memo "apply_cache" (Some (float_of_int h)) (Some (float_of_int m)));
  count "sim.measurements";
  (match sp "measure" with
  | Some s -> add "sim.us_per_measure" (Some (s.total_s *. 1e6 / float_of_int s.count)) "us" (Printf.sprintf "mean of %d measure spans" s.count)
  | None -> missing "sim.us_per_measure");
  (* pool *)
  count "pool.tasks";
  count "pool.regions";
  (match sp "pool.task" with
  | Some s ->
      add "pool.parallel_eff" (Some (s.total_s / (r.wall_s *. float_of_int jobs))) "ratio"
        (Printf.sprintf "pool.task time / (wall_s x %d domains)" jobs)
  | None -> missing "pool.parallel_eff");
  add "pool.busy_frac" (Metrics.find_gauge snap "pool.busy_frac") "ratio" "gauge";
  (* db, session / wal, scheduler, jobqueue *)
  List.iter count
    [ "db.found"; "db.replayed"; "db.committed"; "wal.appends"; "wal.rewrites"; "session.resumes";
      "session.generations"; "scheduler.steps"; "serve.jobs_started"; "serve.jobs_adopted";
      "serve.jobs_done"; "serve.jobs_failed" ];
  span_pcts "scheduler.slice_ms" "scheduler.slice";
  (match sp "bench.serve" with
  | Some s -> add "jobqueue.serve_s" (Some (s.total_s / float_of_int s.count)) "s" (Printf.sprintf "mean of %d Jobqueue.serve calls" s.count)
  | None -> ());
  (match sp "bench.submit" with
  | Some s -> add "jobqueue.submit_ms" (Some (s.total_s *. 1e3 / float_of_int s.count)) "ms" (Printf.sprintf "mean of %d Jobqueue.submit calls" s.count)
  | None -> ());
  (* trace itself, and what no span accounts for *)
  let c = Trace.counts () in
  add "trace.events" (Some (float_of_int (c.Trace.spans + c.Trace.instants + c.Trace.counters))) "count" "recorded events";
  add "trace.dropped" (Some (float_of_int c.Trace.dropped)) "count" "must be 0";
  (* A dropped event would undercount every span-derived metric above. *)
  if c.Trace.dropped > 0 then fail r "trace: %d events dropped" c.Trace.dropped;
  (match sp "bench.unit" with
  | Some s ->
      add "wall.unaccounted_s" (Some s.self_s) "s" "part of wall_s outside every layer span";
      add "wall.unaccounted_frac" (Some (s.self_s / r.wall_s)) "ratio" "wall.unaccounted_s / wall_s"
  | None -> missing "wall.unaccounted_s");
  spans

(* ------------------------------------------------------------------ *)
(* One unit                                                             *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let det_json r =
  let snap = Option.get r.snap in
  let keep (name, _) =
    List.exists (fun p -> String.starts_with ~prefix:p name) [ "search."; "db."; "wal." ]
  in
  Obj
    [
      ("best_us_geomean", Str (hex (geomean r.delivered)));
      ("tuning_min", Str (hex r.tuning_min));
      ("counters", Obj (List.map (fun (n, v) -> (n, Int v)) (List.filter keep snap.Metrics.counters)));
      ("trial_to_best", Arr (List.map (fun i -> Int i) r.trial_to_best));
    ]

let run_unit ~workload ~seed ~jobs ~trace ~setup_only ~interp ~sc ~work ~det_out =
  mkdir_p work;
  (* Zoo-compile and long-search search on this pool, so they create it in
     set-up. Serve-mixed uses it only for the checks after the timed
     region: there the server's own pools are the only ones alive while
     it is timed, and the pool.busy_frac gauge is theirs alone. *)
  let pool = lazy (Pool.create ~jobs ()) in
  let r = new_result () in
  let dir = work in
  (match workload with
  | "zoo-compile" -> zoo_compile sc ~seed ~pool ~trace ~setup_only ~interp ~dir r
  | "long-search" -> long_search sc ~seed ~pool ~trace ~setup_only ~interp ~dir r
  | "serve-mixed" -> serve_mixed sc ~seed ~jobs ~pool ~trace ~setup_only ~interp ~dir r
  | w -> invalid_arg ("unknown workload " ^ w));
  if setup_only then r.t_first <- now ();
  let spans =
    if trace && not setup_only then begin
      layer r "search.time_to_best_s" r.time_to_best_s "s" "this unit's time_to_best_s";
      trace_layers r ~jobs
    end
    else []
  in
  if Lazy.is_val pool then Pool.shutdown (Lazy.force pool);
  let inputs_hash = Digest.to_hex (Digest.string (String.concat "\n" r.inputs)) in
  let fields =
    [
      ("workload", Str workload); ("seed", Int seed); ("jobs", Int jobs);
      ("t_first", Num r.t_first); ("inputs_n", Int (List.length r.inputs));
      ("inputs_hash", Str inputs_hash);
    ]
  in
  let body =
    if setup_only then []
    else begin
      let det = json_to_string (det_json r) in
      Option.iter (fun p -> Out_channel.with_open_text p (fun oc -> output_string oc det)) det_out;
      [
        ("wall_s", Num r.wall_s); ("trials", Int r.trials); ("attempted", Int r.attempted);
        ("failed", Int (min r.attempted (failed_operations r)));
        ("failures", Arr (List.rev_map (fun s -> Str s) r.failures));
        ("delivered", Arr (List.map (fun x -> Num x) r.delivered));
        ("best_us_geomean", Num (geomean r.delivered)); ("tuning_min", Num r.tuning_min);
        ("time_to_best_s", Num r.time_to_best_s); ("peak_rss_mb", Num r.peak_rss_mb);
        ("search_lat", Arr (List.map (fun x -> Num x) r.search_lat));
        ("replay_lat", Arr (List.map (fun x -> Num x) r.replay_lat));
        ("det", Str det);
        ("detail", Arr (List.rev_map (fun s -> Str s) r.detail));
        ("layers", Arr (List.rev_map (fun (n, v, u, b) -> Arr [ Str n; Num v; Str u; Str b ]) r.layers));
        ( "spans",
          Arr
            (List.map
               (fun (n, s) ->
                 let k = Array.length s.durs in
                 Arr
                   [
                     Str n; Int s.count; Num s.total_s; Num s.self_s;
                     Num (percentile s.durs 50.0 /. 1e3);
                     Num (percentile s.durs (float_of_int (tail_pct k)) /. 1e3);
                     Int (tail_pct k);
                   ])
               spans) );
      ]
    end
  in
  print_endline (json_to_string (Obj (fields @ body)))

(* ------------------------------------------------------------------ *)
(* Determinism self-check                                               *)
(* ------------------------------------------------------------------ *)

(* Each workload at the small scale, one seed, three processes: twice at
   two domains and once at one, with the settings the benchmark pins
   removed from their environment. The deterministic fields must agree
   bit for bit. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let selfcheck () =
  let work = Filename.concat (Sys.getcwd ()) "selfcheck.work" in
  rm_rf work;
  mkdir_p work;
  let pinned kv =
    List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) ("TIR_JOBS" :: forbidden_env)
  in
  let inherited = List.filter (fun kv -> not (pinned kv)) (Array.to_list (Unix.environment ())) in
  let run workload i jobs =
    let dir = Filename.concat work (Printf.sprintf "%s-%d" workload i) in
    let det = dir ^ ".det" in
    let env = Array.of_list (Printf.sprintf "TIR_JOBS=%d" jobs :: inherited) in
    let argv =
      [| Sys.executable_name; "unit"; "--workload"; workload; "--seed"; "11"; "--jobs";
         string_of_int jobs; "--small"; "--work"; dir; "--det-out"; det |]
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid = Unix.create_process_env Sys.executable_name argv env Unix.stdin devnull Unix.stderr in
    Unix.close devnull;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> In_channel.with_open_text det In_channel.input_all
    | _ -> Printf.sprintf "run %d (jobs=%d) failed" i jobs
  in
  let ok =
    List.for_all Fun.id
      (List.map
         (fun workload ->
           match List.mapi (run workload) [ 2; 2; 1 ] with
           | d0 :: rest ->
               let same = List.for_all (String.equal d0) rest in
               Printf.printf "%s: deterministic fields %s\n%!" workload
                 (if same then "identical" else "DIFFER:\n  " ^ String.concat "\n  " (d0 :: rest));
               same
           | [] -> false)
         [ "zoo-compile"; "long-search"; "serve-mixed" ])
  in
  rm_rf work;
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "unit" :: rest ->
      (match List.filter (fun v -> Sys.getenv_opt v <> None) forbidden_env with
      | [] -> ()
      | set ->
          prerr_endline ("perfbench: refusing to run with " ^ String.concat ", " set ^ " set");
          exit 2);
      let workload = ref "" and seed = ref 1 and jobs = ref 2 and trace = ref false in
      let setup_only = ref false and interp = ref false and sc = ref full in
      let work = ref "" and det_out = ref None in
      let rec parse = function
        | "--workload" :: v :: t -> workload := v; parse t
        | "--seed" :: v :: t -> seed := int_of_string v; parse t
        | "--jobs" :: v :: t -> jobs := int_of_string v; parse t
        | "--work" :: v :: t -> work := v; parse t
        | "--det-out" :: v :: t -> det_out := Some v; parse t
        | "--trace" :: t -> trace := true; parse t
        | "--setup-only" :: t -> setup_only := true; parse t
        | "--interp" :: t -> interp := true; parse t
        | "--small" :: t -> sc := small; parse t
        | [] -> ()
        | a :: _ -> invalid_arg ("unknown argument " ^ a)
      in
      parse rest;
      if !work = "" then invalid_arg "--work DIR is required";
      run_unit ~workload:!workload ~seed:!seed ~jobs:!jobs ~trace:!trace ~setup_only:!setup_only
        ~interp:!interp ~sc:!sc ~work:!work ~det_out:!det_out
  | [ _; "selfcheck" ] -> selfcheck ()
  | [ _; "replay-db"; "zoo-compile"; db ] -> replay_db (List.map (fun w -> (gpu, w)) (zoo_tasks full)) db
  | [ _; "replay-db"; "long-search"; db ] ->
      replay_db (List.map (fun (_, t, w) -> (t, w)) (Lazy.force full.long_ops)) db
  | [ _; "gen-expected"; dir ] -> gen_expected dir
  | _ ->
      prerr_endline "usage: perfbench.exe (unit ARGS | selfcheck | gen-expected DIR)";
      exit 2

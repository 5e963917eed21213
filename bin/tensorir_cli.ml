(* Command-line interface.

     tensorir show <workload>             print the lowered TensorIR program
     tensorir candidates <workload>       show tensorization candidates
     tensorir tune <workload> [opts]      auto-schedule and report
     tensorir model <name> [opts]         end-to-end model compilation report
     tensorir intrinsics                  list registered tensor intrinsics
     tensorir report <trace>              summarize a Chrome trace from
                                          tune/serve --trace-out (spans,
                                          generations, metrics)
     tensorir lint [targets] [--all]      semantic static analysis (races,
                                          region soundness, bounds)
     tensorir session <status|compact>    inspect / compact a session log
     tensorir serve --queue <dir>         multi-tenant tuning server over a
                                          job directory
     tensorir submit <workload> [opts]    drop a job into a queue directory
     tensorir jobs --queue <dir>          list a queue's jobs and states
     tensorir top <telemetry-file>        render a serve telemetry snapshot

   Exit codes: 0 ok, 1 findings, 2 usage, then one per error kind
   (Parse 3, Io 4, Corrupt 5, Fault 7) and 8 when a session
   run halted early (tune --halt-after, serve --max-steps). *)

open Cmdliner
module W = Tir_workloads.Workloads
module Tune = Tir_autosched.Tune
module TI = Tir_intrin.Tensor_intrin
module Session = Tir_service.Session
module Jobqueue = Tir_service.Jobqueue
module Error = Tir_core.Error

let () = Tir_intrin.Library.register_all ()

let exit_halted = 8

(* Unified error surface: every typed failure becomes a distinct exit
   code, so scripts driving the CLI can tell a torn database from a
   missing file from an injected-fault exhaustion. *)
let with_errors f =
  match f () with
  | () -> ()
  | exception Error.Error e ->
      Fmt.epr "tensorir: %s@." (Error.to_string e);
      exit (Error.exit_code e.Error.kind)
  | exception Session.Halted { path; gen } ->
      Fmt.pr "halted after generation %d; resume with: tensorir tune --session %s --resume@."
        gen path;
      exit exit_halted

let load_database path =
  match Tir_autosched.Database.load_result path with
  | Ok db -> db
  | Error e ->
      Fmt.epr "tensorir: %s@." (Error.to_string e);
      exit (Error.exit_code e.Error.kind)

let workload_arg =
  let doc = "Workload tag: C1D C2D C3D DEP DIL GMM GRP T2D." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let target_arg =
  let doc = "Target: gpu (Tensor Core) or arm (sdot)." in
  Arg.(value & opt string "gpu" & info [ "target"; "t" ] ~docv:"TARGET" ~doc)

let trials_arg =
  let doc = "Number of measured trials for the evolutionary search." in
  Arg.(value & opt int 64 & info [ "trials"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let workload_for target tag =
  let t = Tir_sim.Target.by_name target in
  match t.Tir_sim.Target.kind with
  | Tir_sim.Target.Gpu -> (t, W.by_tag tag)
  | Tir_sim.Target.Cpu -> (
      ( t,
        match String.uppercase_ascii tag with
        | "C2D" -> W.c2d ~in_dtype:Tir_ir.Dtype.I8 ~acc_dtype:Tir_ir.Dtype.I32 ()
        | "GMM" ->
            W.gmm ~in_dtype:Tir_ir.Dtype.I8 ~acc_dtype:Tir_ir.Dtype.I32 ~m:512 ~n:512
              ~k:512 ()
        | _ -> W.by_tag tag ))

(* --- show --- *)

let show_cmd =
  let run tag script =
    let w = W.by_tag tag in
    if script then print_string (Tir_ir.Printer.func_to_script w.W.func)
    else begin
      Fmt.pr "%s" (Tir_ir.Printer.func_to_string w.W.func);
      Fmt.pr "@.%.2f GFLOP, tensorizable: %b@." (w.W.flops /. 1e9) w.W.tensorizable
    end
  in
  let script =
    Arg.(
      value & flag
      & info [ "script" ]
          ~doc:
            "Emit the parseable script dialect (the output round-trips \
             through $(b,tensorir parse) and $(b,tensorir lint)).")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the lowered TensorIR program of a workload")
    Term.(const run $ workload_arg $ script)

(* --- candidates --- *)

let candidates_cmd =
  let run tag target =
    let t, w = workload_for target tag in
    let intrins = Tune.target_intrinsics t in
    let cands = Tir_autosched.Candidate.candidates w intrins in
    if cands = [] then Fmt.pr "no tensorization candidates@."
    else
      List.iter
        (fun (c : Tir_autosched.Candidate.t) ->
          Fmt.pr "=== intrinsic %s: fused M=%d N=%d K=%d (real %d %d %d) ===@.%s@."
            c.Tir_autosched.Candidate.intrin.TI.name c.Tir_autosched.Candidate.fm
            c.Tir_autosched.Candidate.fn c.Tir_autosched.Candidate.fk
            c.Tir_autosched.Candidate.real_m c.Tir_autosched.Candidate.real_n
            c.Tir_autosched.Candidate.real_k
            (Tir_ir.Printer.func_to_string c.Tir_autosched.Candidate.func))
        cands
  in
  Cmd.v
    (Cmd.info "candidates"
       ~doc:"Show tensorization candidates (the canonical rewritten programs)")
    Term.(const run $ workload_arg $ target_arg)

(* --- tune --- *)

(* Run [f] traced inside the job context "tune", then record the final
   registry counters and gauges as trace counters (args [metric]) and
   write the Chrome trace to [path] — also when [f] raises, so a halted
   session leaves its trace behind. *)
let traced ~path f =
  let module T = Tir_obs.Trace in
  let module M = Tir_obs.Metrics in
  T.enable ();
  let in_ctx g = T.with_ctx ~job:"tune" g in
  let write () =
    in_ctx (fun () ->
        let snap = M.snapshot () in
        List.iter
          (fun (n, v) -> T.counter ~args:[ ("metric", "counter") ] n (float_of_int v))
          snap.M.counters;
        List.iter (fun (n, v) -> T.counter ~args:[ ("metric", "gauge") ] n v) snap.M.gauges);
    try Out_channel.with_open_bin path (fun oc -> output_string oc (T.export_chrome ()))
    with Sys_error msg -> Error.raise_error ~context:path Error.Io msg
  in
  match in_ctx f with
  | r ->
      write ();
      r
  | exception e ->
      write ();
      raise e

let tune_cmd =
  let run tag target trials seed print_best db_path trace_out session_path
      resume halt_after jobs model_store =
    with_errors @@ fun () ->
    let database = Option.map load_database db_path in
    (* Warm-start from the model store when it exists; a fresh or corrupt
       store is a cold start, never an error. *)
    let model =
      match Option.map Tir_autosched.Model.Store.load model_store with
      | Some (Some m) ->
          Tir_autosched.Model.Warm (Tir_autosched.Model.save m)
      | Some None | None -> Tune.Config.default.Tune.Config.model
    in
    let cfg = Tune.Config.{ default with seed; trials; database; jobs; model } in
    let tune () =
      match session_path with
      | None ->
          let t, w = workload_for target tag in
          Tune.run cfg w t
      | Some path when resume ->
          (* Workload, target, seed, trial budget and model spec come
             from the session log; the positional args are ignored. *)
          Session.run ?halt_after (Session.resume ?jobs ?database ~path ())
      | Some path ->
          let t, w = workload_for target tag in
          Session.run ?halt_after (Session.create ~path cfg w t)
    in
    let r =
      match trace_out with None -> tune () | Some path -> traced ~path tune
    in
    let t = r.Tune.target and w = r.Tune.workload in
    Option.iter
      (fun db -> Tir_autosched.Database.save db (Option.get db_path))
      database;
    (* Fold what this run learned back into the store. *)
    (match (model_store, r.Tune.model) with
    | Some path, Some m ->
        ignore (Tir_autosched.Model.Store.absorb ~path m);
        Fmt.pr "model store updated: %s@." path
    | _ -> ());
    Option.iter
      (fun p -> Fmt.pr "trace written to %s (summarize with `tensorir report %s`)@." p p)
      trace_out;
    Fmt.pr "workload: %s on %s@." w.W.name t.Tir_sim.Target.name;
    Fmt.pr "best latency: %.2f us (%.0f GFLOPS)@." (Tune.latency_us r) (Tune.gflops r);
    Fmt.pr "search: %d trials, %d proposed, %d invalid, %d unsound, %d inapplicable, %d unmeasurable@."
      r.Tune.stats.trials r.Tune.stats.proposed r.Tune.stats.invalid
      r.Tune.stats.unsound r.Tune.stats.inapplicable r.Tune.stats.unmeasurable;
    Fmt.pr "simulated tuning time: %.2f minutes@." (Tune.tuning_minutes r);
    match r.Tune.best with
    | Some b ->
        Fmt.pr "sketch: %s@.decisions: %s@." b.Tir_autosched.Evolutionary.sketch_name
          (Tir_autosched.Space.key_of b.Tir_autosched.Evolutionary.decisions);
        if print_best then
          Fmt.pr "@.%s"
            (Tir_ir.Printer.func_to_string b.Tir_autosched.Evolutionary.func)
    | None -> Fmt.pr "no valid schedule found@."
  in
  let print_best =
    Arg.(value & flag & info [ "print-best"; "p" ] ~doc:"Print the best program.")
  in
  let db_arg =
    let doc = "Tuning-record database file: replay stored schedules, save new ones." in
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc =
      "Trace the run and write a Chrome trace-event JSON (open in Perfetto; \
       summarize with $(b,tensorir report)) to $(docv): spans, one \
       $(b,gen.commit) instant per generation, and the final metrics."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let session_arg =
    let doc =
      "Crash-safe session log: every generation is checkpointed to $(docv); \
       a killed run resumes bit-identically with $(b,--resume)."
    in
    Arg.(value & opt (some string) None & info [ "session" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume the session given by $(b,--session) from its last \
             committed generation (workload/target/seed come from the log).")
  in
  let halt_after_arg =
    let doc =
      "Stop after $(docv) generations committed this run (exit code 8); \
       used to exercise kill-and-resume. Also read from TIR_HALT_AFTER_GEN."
    in
    Arg.(value & opt (some int) None & info [ "halt-after" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc = "Evaluation pool size for this run (default: TIR_JOBS or all cores)." in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let model_store_arg =
    let doc =
      "Cost-model store file: warm-start the search from the stored model \
       (cold start when missing) and fold this run's trained model back in."
    in
    Arg.(value & opt (some string) None & info [ "model-store" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Auto-schedule a workload with the tensorization-aware tuner")
    Term.(
      const run $ workload_arg $ target_arg $ trials_arg $ seed_arg $ print_best
      $ db_arg $ trace_arg $ session_arg $ resume_arg $ halt_after_arg
      $ jobs_arg $ model_store_arg)

(* --- session --- *)

let session_cmd =
  let run action path =
    with_errors @@ fun () ->
    match action with
    | "status" ->
        let s = Session.status ~path in
        Fmt.pr "workload:    %s@." s.Session.workload;
        Fmt.pr "target:      %s@." s.Session.target;
        Fmt.pr "seed:        %d@." s.Session.seed;
        Fmt.pr "trials:      %d / %d@." s.Session.trials_done s.Session.trials_target;
        Fmt.pr "generations: %d committed@." s.Session.generations;
        Fmt.pr "state:       %s@."
          (if s.Session.completed then "completed" else "resumable");
        (match s.Session.best_us with
        | Some b -> Fmt.pr "best:        %.2f us@." b
        | None -> Fmt.pr "best:        (none yet)@.")
    | "compact" ->
        Session.compact ~path;
        Fmt.pr "compacted %s@." path
    | other ->
        Fmt.epr "unknown session action %S (expected status or compact)@." other;
        exit 2
  in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION" ~doc:"status | compact")
  in
  let path =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"FILE" ~doc:"Session log written by tune --session.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Inspect or compact a crash-safe tuning session log")
    Term.(const run $ action $ path)

(* --- model --- *)

let model_cmd =
  let run name target trials =
    let t = Tir_sim.Target.by_name target in
    let m = Tir_graph.Models.by_name name in
    let module C = Tir_graph.Compile in
    List.iter
      (fun s ->
        let r = C.compile s t m in
        Fmt.pr "%-10s %10.1f us  (%7.1f inf/s)  tuning %.2f min@." r.C.scheduler
          r.C.latency_us (C.throughput r) r.C.total_tuning_minutes)
      [ C.tensorir ~trials (); C.tvm ~trials (); C.pytorch () ]
  in
  let model_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODEL" ~doc:"resnet50 | mobilenetv2 | bert | vit")
  in
  Cmd.v
    (Cmd.info "model" ~doc:"End-to-end model compilation report")
    Term.(const run $ model_name $ target_arg $ trials_arg)

(* --- codegen --- *)

let codegen_cmd =
  let run tag target trials =
    let t, w = workload_for target tag in
    let r = Tune.run Tune.Config.(default |> with_trials trials) w t in
    match r.Tune.best with
    | Some b ->
        print_string (Tir_codegen.Codegen.emit ~target:t b.Tir_autosched.Evolutionary.func)
    | None -> Fmt.epr "no valid schedule found@."
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Tune a workload and emit the best program as CUDA-like/C-like source")
    Term.(const run $ workload_arg $ target_arg $ trials_arg)

(* --- parse --- *)

let parse_cmd =
  let run path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match Tir_ir.Parser.parse_func src with
    | exception Tir_ir.Parser.Parse_error m ->
        Fmt.epr "parse error: %s@." m;
        exit 1
    | f -> (
        Fmt.pr "parsed %s: %d parameters, %d blocks@." f.Tir_ir.Primfunc.name
          (List.length f.Tir_ir.Primfunc.params)
          (List.length (Tir_ir.Primfunc.blocks f));
        match Tir_sched.Validate.check_func f with
        | [] -> Fmt.pr "validation: OK@."
        | issues ->
            Fmt.pr "validation issues:@.%a@."
              (Fmt.list ~sep:Fmt.cut Tir_sched.Validate.pp_issue)
              issues)
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Script file.")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and validate a TensorIR script file")
    Term.(const run $ path)

(* --- lint --- *)

let lint_cmd =
  let module A = Tir_analysis.Analysis in
  let module BC = Tir_analysis.Bounds_check in
  let module L = Tir_analysis.Legality in
  let module J = Tir_obs.Json_min in
  let item_message (it : L.item) =
    match it.L.it_verdict with
    | L.Illegal d -> d.Tir_analysis.Diagnostic.message
    | L.Legal | L.Unknown -> ""
  in
  let run targets all validate json =
    let read_file path =
      let ic = open_in path in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      match Tir_ir.Parser.parse_func src with
      | f -> (path, f)
      | exception Tir_ir.Parser.Parse_error m ->
          Fmt.epr "%s: parse error: %s@." path m;
          exit 2
    in
    let of_workload (w : W.t) = (w.W.name, w.W.func) in
    let named =
      (if all then List.map of_workload (W.gpu_suite () @ W.arm_suite ()) else [])
      @ List.map
          (fun t ->
            if Sys.file_exists t then read_file t
            else
              match W.by_tag t with
              | w -> of_workload w
              | exception _ ->
                  Fmt.epr "%s: not a file and not a workload tag@." t;
                  exit 2)
          targets
    in
    if named = [] then begin
      Fmt.epr "nothing to lint: give workload tags, .tir files, or --all@.";
      exit 2
    end;
    let findings = ref 0 in
    let json_files = ref [] in
    List.iter
      (fun (name, f) ->
        (* Validation issues (§3.3) are lint findings too when requested:
           the analyzer assumes a validated program. *)
        let issues = if validate then Tir_sched.Validate.check_func f else [] in
        let ds = A.lint f in
        (* Per-primitive legality verdicts. Items are informational, not
           findings: an "illegal to parallelize" advisory on a serial
           reduce loop is the prover doing its job, and the non-advisory
           illegal items are already covered by analyzer errors. *)
        let items = L.survey f in
        let proven, unknown, oob = BC.tally (BC.collect f) in
        findings := !findings + List.length issues + List.length ds;
        if json then begin
          let b = Buffer.create 512 in
          Printf.bprintf b "    {\"name\": \"%s\",\n" (J.escape name);
          Printf.bprintf b "     \"findings\": %d,\n"
            (List.length issues + List.length ds);
          Printf.bprintf b
            "     \"bounds\": {\"proven\": %d, \"unknown\": %d, \"oob\": %d},\n"
            proven unknown oob;
          Printf.bprintf b "     \"validate\": [";
          List.iteri
            (fun i is ->
              Printf.bprintf b "%s\"%s\""
                (if i = 0 then "" else ", ")
                (J.escape (Fmt.str "%a" Tir_sched.Validate.pp_issue is)))
            issues;
          Printf.bprintf b "],\n     \"diagnostics\": [";
          List.iteri
            (fun i (d : Tir_analysis.Diagnostic.t) ->
              Printf.bprintf b
                "%s\n      {\"severity\": \"%s\", \"kind\": \"%s\", \
                 \"block\": \"%s\", \"buffer\": \"%s\", \"loops\": [%s], \
                 \"message\": \"%s\"}"
                (if i = 0 then "" else ",")
                (Tir_analysis.Diagnostic.severity_to_string d.severity)
                (Tir_analysis.Diagnostic.kind_to_string d.kind)
                (J.escape d.block) (J.escape d.buffer)
                (String.concat ", "
                   (List.map (fun l -> "\"" ^ J.escape l ^ "\"") d.loops))
                (J.escape d.message))
            ds;
          Printf.bprintf b "],\n     \"legality\": [";
          List.iteri
            (fun i (it : L.item) ->
              Printf.bprintf b
                "%s\n      {\"primitive\": \"%s\", \"loop\": \"%s\", \
                 \"block\": \"%s\", \"advisory\": %b, \"detail\": \"%s\", \
                 \"verdict\": \"%s\", \"message\": \"%s\"}"
                (if i = 0 then "" else ",")
                (J.escape it.L.it_primitive)
                (J.escape it.L.it_loop)
                (J.escape it.L.it_block)
                it.L.it_advisory
                (J.escape it.L.it_detail)
                (L.verdict_to_string it.L.it_verdict)
                (J.escape (item_message it)))
            items;
          Printf.bprintf b "]}";
          json_files := Buffer.contents b :: !json_files
        end
        else begin
          let summary =
            Fmt.str "bounds: %d proven, %d unknown, %d out-of-bounds" proven
              unknown oob
          in
          if issues = [] && ds = [] then Fmt.pr "%s: OK (%s)@." name summary
          else begin
            Fmt.pr "%s: %d finding(s) (%s)@." name
              (List.length issues + List.length ds)
              summary;
            List.iter
              (fun i -> Fmt.pr "  validate: %a@." Tir_sched.Validate.pp_issue i)
              issues;
            List.iter
              (fun d -> Fmt.pr "  %a@." Tir_analysis.Diagnostic.pp d)
              ds
          end;
          List.iter
            (fun (it : L.item) ->
              let detail =
                if it.L.it_detail = "" then "" else " (" ^ it.L.it_detail ^ ")"
              in
              Fmt.pr "  legality: %s%s loop %s — %a@." it.L.it_primitive detail
                it.L.it_loop L.pp_verdict it.L.it_verdict)
            items
        end)
      named;
    if json then begin
      Fmt.pr "{\"schema\": 1, \"findings\": %d, \"files\": [\n%s\n]}@."
        !findings
        (String.concat ",\n" (List.rev !json_files))
    end;
    if !findings > 0 then exit 1
  in
  let targets =
    let doc = "Workload tags (e.g. GMM C2D) and/or TensorIR script files." in
    Arg.(value & pos_all string [] & info [] ~docv:"TARGET" ~doc)
  in
  let all =
    Arg.(
      value & flag
      & info [ "all"; "a" ] ~doc:"Lint every workload in the GPU and ARM suites.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:"Also report \\$(b,§3.3) validation issues, not just analyzer findings.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one machine-readable JSON document (diagnostics, bounds \
             tallies, and per-primitive legality verdicts) instead of text.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the semantic static analyzer (data races, region soundness, \
          bounds) and the schedule-legality survey over workloads or script \
          files; non-zero exit on analyzer findings")
    Term.(const run $ targets $ all $ validate $ json)

(* --- report --- *)

(* What [report] gathers for one tenant (or job) of a trace. *)
type report_block = {
  spans : (string, int * float) Hashtbl.t;  (** name -> count, total us *)
  mutable gens : (string * Tir_obs.Json_min.v) list list;
      (** [gen.commit] args, newest first *)
  counters : (string, float) Hashtbl.t;  (** the final registry dump *)
  gauges : (string, float) Hashtbl.t;
}

let report_cmd =
  let module J = Tir_obs.Json_min in
  (* One block per tenant (or job, when there is no tenant), in order of
     first appearance; later samples of a counter replace earlier ones. *)
  let blocks_of events =
    let blocks = ref [] in
    let block ctx =
      let s k = match List.assoc_opt k ctx with Some (J.Str v) -> Some v | _ -> None in
      let key =
        match (s "tenant", s "job") with
        | Some t, _ -> "tenant " ^ t
        | None, Some j -> "job " ^ j
        | None, None -> "no context"
      in
      match List.assoc_opt key !blocks with
      | Some b -> b
      | None ->
          let b =
            { spans = Hashtbl.create 16; gens = []; counters = Hashtbl.create 64;
              gauges = Hashtbl.create 16 }
          in
          blocks := (key, b) :: !blocks;
          b
    in
    List.iter
      (fun ev ->
        let ev = J.obj "event" ev in
        let get k = J.field "event" ev k in
        let name = J.str "name" (get "name") in
        let args () = J.obj "args" (get "args") in
        match J.str "ph" (get "ph") with
        | "X" ->
            let b = block (args ()) in
            let n, total = Option.value (Hashtbl.find_opt b.spans name) ~default:(0, 0.0) in
            Hashtbl.replace b.spans name (n + 1, total +. J.num "dur" (get "dur"))
        | "i" when name = "gen.commit" ->
            let b = block (args ()) in
            b.gens <- args () :: b.gens
        | "C" -> (
            let a = args () in
            let ctx = J.obj "args.ctx" (J.field "args" a "ctx") in
            let v = J.num "value" (J.field "args" a "value") in
            match List.assoc_opt "metric" ctx with
            | Some (J.Str "counter") -> Hashtbl.replace (block ctx).counters name v
            | Some (J.Str "gauge") -> Hashtbl.replace (block ctx).gauges name v
            | _ -> ())
        | _ -> ())
      events;
    List.rev !blocks
  in
  let gen_field parse g k =
    let v = J.str ("gen.commit." ^ k) (J.field "gen.commit" g k) in
    match parse v with Some x -> x | None -> J.fail "gen.commit.%s: bad value %S" k v
  in
  let gen_int = gen_field int_of_string_opt and gen_float = gen_field float_of_string_opt in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let print_block (label, b) =
    Fmt.pr "== %s ==@." label;
    let spans =
      Hashtbl.fold (fun name (n, total) acc -> (name, n, total) :: acc) b.spans []
      |> List.sort (fun (_, _, x) (_, _, y) -> Float.compare y x)
    in
    if spans <> [] then begin
      Fmt.pr "@.%-34s %8s %14s@." "span" "count" "total (us)";
      List.iter (fun (name, n, total) -> Fmt.pr "%-34s %8d %14.1f@." name n total) spans
    end;
    let gens = List.rev b.gens in
    let best g = gen_float g "best_us" and rank_corr g = gen_float g "rank_corr" in
    if gens <> [] then begin
      Fmt.pr "@.%-5s %9s %14s %10s@." "gen" "measured" "best (us)" "rank-corr";
      List.iter
        (fun g ->
          Fmt.pr "%-5d %9d %14.2f %10.2f@." (gen_int g "gen") (gen_int g "measured") (best g)
            (rank_corr g))
        gens
    end;
    if Hashtbl.length b.counters > 0 then begin
      Fmt.pr "@.counters:@.";
      List.iter (fun (name, v) -> Fmt.pr "  %-34s %14.0f@." name v) (sorted b.counters);
      let bytes scope =
        Option.value (Hashtbl.find_opt b.counters ("sim.bytes." ^ scope)) ~default:0.0
      in
      Fmt.pr "@.data movement: global %.0f bytes, shared %.0f bytes, local %.0f bytes@."
        (bytes "global") (bytes "shared") (bytes "local")
    end;
    if Hashtbl.length b.gauges > 0 then begin
      Fmt.pr "@.gauges:@.";
      List.iter (fun (name, v) -> Fmt.pr "  %-34s %14.4f@." name v) (sorted b.gauges)
    end;
    (* funnel totals and the best-so-far check (NaN = nothing measured yet) *)
    let total k = List.fold_left (fun acc g -> acc + gen_int g k) 0 gens in
    let monotone, _ =
      List.fold_left
        (fun (ok, prev) g ->
          let x = best g in
          if Float.is_nan x then (ok, prev) else (ok && x <= prev, x))
        (true, Float.infinity) gens
    in
    let last f = match List.rev gens with g :: _ -> f g | [] -> Float.nan in
    Fmt.pr "@.summary: %d generation(s)@." (List.length gens);
    Fmt.pr "  proposed %d (+%d deduped), invalid %d, unsound %d, inapplicable %d@."
      (total "proposed") (total "deduped") (total "invalid") (total "unsound")
      (total "inapplicable");
    Fmt.pr "  measured %d (memo hits %d of %d lookups), mutations %d, crossovers %d, accepted %d@."
      (total "measured") (total "memo_hits") (total "lookups") (total "mutations")
      (total "crossovers") (total "accepted");
    Fmt.pr "  best latency: %.2f us; best-so-far monotone: %b@." (last best) monotone;
    Fmt.pr "  cost-model rank correlation (last generation): %.2f@.@." (last rank_corr)
  in
  let run path =
    with_errors @@ fun () ->
    try
      let top = J.obj "trace" (J.parse_file path) in
      List.iter print_block (blocks_of (J.arr "traceEvents" (J.field "trace" top "traceEvents")))
    with
    | J.Invalid msg -> Error.raise_error ~context:path Error.Parse msg
    | Sys_error msg -> Error.raise_error ~context:path Error.Io msg
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"Chrome trace written by $(b,tune --trace-out) or $(b,serve --trace-out).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a trace per tenant or job: span totals, the per-generation \
          curve, search funnel totals, and the final metrics")
    Term.(const run $ path)

(* --- intrinsics --- *)

let intrinsics_cmd =
  let run () =
    List.iter
      (fun (i : TI.t) ->
        Fmt.pr "%-22s %s scope=%s params=%a@." i.TI.name
          (if i.TI.is_copy then "copy" else "mma ")
          (match i.TI.exec_scope with TI.Warp -> "warp" | TI.Thread -> "thread")
          Fmt.(list ~sep:(any ", ") Tir_ir.Buffer.pp_decl)
          i.TI.desc_params)
      (List.sort (fun (a : TI.t) b -> compare a.TI.name b.TI.name) (TI.all ()))
  in
  Cmd.v
    (Cmd.info "intrinsics" ~doc:"List registered tensor intrinsics")
    Term.(const run $ const ())

(* --- serve / submit / jobs --- *)

let queue_arg =
  let doc = "Queue directory (pending/, running/, done/, failed/, db.txt)." in
  Arg.(required & opt (some string) None & info [ "queue"; "q" ] ~docv:"DIR" ~doc)

let serve_cmd =
  let run queue jobs drain max_steps metrics_out telemetry_out trace_out poll =
    with_errors @@ fun () ->
    let cfg =
      {
        Jobqueue.queue;
        jobs;
        drain;
        max_steps;
        metrics_out;
        telemetry_out;
        trace_out;
        poll_interval_s = poll;
      }
    in
    let o = Jobqueue.serve cfg in
    Fmt.pr "serve: %d completed, %d failed@." o.Jobqueue.o_completed
      o.Jobqueue.o_failed;
    if o.Jobqueue.o_budget then begin
      Fmt.pr "step budget exhausted; resume with: tensorir serve --queue %s@."
        queue;
      exit exit_halted
    end
  in
  let jobs_arg =
    let doc =
      "Server-private evaluation pool size (default: the shared TIR_JOBS pool)."
    in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let drain_arg =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:
            "Exit once pending and running are empty instead of polling for \
             new jobs.")
  in
  let max_steps_arg =
    let doc =
      "Stop after $(docv) scheduler steps (generations) across all tenants \
       (exit code 8); every tenant's WAL stays committed, so a later serve \
       resumes bit-identically. Used to exercise kill-and-resume."
    in
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let metrics_arg =
    let doc =
      "Dump the metrics registry as JSON to $(docv) (atomic tmp+rename) on \
       every scheduler event and every idle poll tick — a scrape-able \
       snapshot of counters, gauges, and histograms."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let telemetry_arg =
    let doc =
      "Write a Prometheus-style text exposition of the metrics registry to \
       $(docv) at the same cadence and atomicity as $(b,--metrics-out). \
       $(b,tensorir top) renders this file."
    in
    Arg.(
      value & opt (some string) None & info [ "telemetry-out" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc =
      "Enable causal tracing and snapshot a Chrome trace-event JSON (open in \
       Perfetto or chrome://tracing) to $(docv), same cadence and atomicity."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let poll_arg =
    let doc = "Poll interval in seconds when waiting for new jobs." in
    Arg.(value & opt float 0.2 & info [ "poll" ] ~docv:"SECONDS" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a job-directory queue: multi-tenant fair-share tuning")
    Term.(
      const run $ queue_arg $ jobs_arg $ drain_arg $ max_steps_arg $ metrics_arg
      $ telemetry_arg $ trace_arg $ poll_arg)

let submit_cmd =
  let run queue tag target trials seed priority name =
    with_errors @@ fun () ->
    let jname =
      match name with
      | Some n -> n
      | None ->
          (* Auto-name: workload-target-seed, suffixed until unique. *)
          let base =
            Printf.sprintf "%s-%s-s%d" (String.lowercase_ascii tag) target seed
          in
          let rec unique i =
            let c = if i = 0 then base else Printf.sprintf "%s-%d" base (i + 1) in
            if Jobqueue.find_job queue c = None then c else unique (i + 1)
          in
          unique 0
    in
    let j =
      {
        Jobqueue.j_name = jname;
        j_workload = tag;
        j_target = target;
        j_seed = seed;
        j_trials = trials;
        j_priority = priority;
      }
    in
    (* Resolve up front so a bad workload/target fails the client with a
       Parse error instead of dead-lettering on the server. *)
    ignore (Jobqueue.resolve ~name:jname j);
    let path = Jobqueue.submit ~queue j in
    Fmt.pr "submitted %s -> %s@." jname path
  in
  let priority_arg =
    let doc =
      "Scheduling weight: a priority-2 job gets ~2x the generations of a \
       priority-1 job while both run."
    in
    Arg.(value & opt int 1 & info [ "priority" ] ~docv:"N" ~doc)
  in
  let name_arg =
    let doc = "Job name (default: derived from workload/target/seed)." in
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Drop a tuning job into a queue directory")
    Term.(
      const run $ queue_arg $ workload_arg $ target_arg $ trials_arg $ seed_arg
      $ priority_arg $ name_arg)

let top_cmd =
  let module Telemetry = Tir_obs.Telemetry in
  let run file =
    with_errors @@ fun () ->
    let src =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error msg -> Error.raise_error Error.Io msg
    in
    let samples =
      try Telemetry.parse src
      with Failure msg ->
        Error.raise_error ~context:file Error.Parse msg
    in
    let g name = Option.value ~default:0.0 (Telemetry.find samples name) in
    Fmt.pr "queue: %.0f pending, %.0f running, %.0f done, %.0f failed@."
      (g "tir_serve_queue_pending") (g "tir_serve_queue_running")
      (g "tir_serve_queue_done") (g "tir_serve_queue_failed");
    Fmt.pr "pool: busy %.0f%%, scheduler steps %.0f, stalled tenants %.0f@."
      (100.0 *. g "tir_pool_busy_frac")
      (g "tir_scheduler_steps")
      (g "tir_search_stalled_tenants");
    (match Telemetry.tenants samples with
    | [] -> Fmt.pr "@.no tenants@."
    | tenants ->
        Fmt.pr "@.%-28s %6s %6s %12s  %s@." "TENANT" "GENS" "STEPS" "BEST_US"
          "STATE";
        List.iter
          (fun tn ->
            let v m = Telemetry.tenant_value samples m tn in
            let num m = Option.value ~default:0.0 (v m) in
            let best =
              match v "best_us" with
              | Some b when Float.is_finite b -> Printf.sprintf "%.2f" b
              | _ -> "-"
            in
            let state = if num "stalled" > 0.0 then "stalled" else "running" in
            Fmt.pr "%-28s %6.0f %6.0f %12s  %s@." tn (num "generations")
              (num "steps") best state)
          tenants)
  in
  let file_arg =
    let doc =
      "Telemetry snapshot written by $(b,tensorir serve --telemetry-out)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Render a serve telemetry snapshot: queue depth, pool utilization, \
          per-tenant progress and stall state")
    Term.(const run $ file_arg)

let jobs_cmd =
  let run queue =
    with_errors @@ fun () ->
    match Jobqueue.list_jobs ~queue with
    | [] -> Fmt.pr "queue is empty@."
    | jobs ->
        List.iter
          (fun (nm, st) ->
            match st with
            | Jobqueue.Done ->
                let kv = Jobqueue.read_result ~queue ~name:nm in
                let find k =
                  Option.value ~default:"?" (List.assoc_opt k kv)
                in
                let lat =
                  match List.assoc_opt "latency_us" kv with
                  | Some h -> (
                      match float_of_string_opt h with
                      | Some f -> Printf.sprintf "%.2f us" f
                      | None -> "?")
                  | None -> "(no valid schedule)"
                in
                Fmt.pr "%-28s done     %s %s GFLOPS %s@." nm (find "workload")
                  (find "gflops") lat
            | Jobqueue.Failed ->
                let kv =
                  try Jobqueue.read_error ~queue ~name:nm with _ -> []
                in
                Fmt.pr "%-28s failed   %s@." nm
                  (Option.value ~default:"(no diagnostic)"
                     (List.assoc_opt "message" kv))
            | st -> Fmt.pr "%-28s %s@." nm (Jobqueue.state_dir st))
          jobs
  in
  Cmd.v
    (Cmd.info "jobs" ~doc:"List a queue directory's jobs and their states")
    Term.(const run $ queue_arg)

let () =
  let info =
    Cmd.info "tensorir" ~version:"1.0.0"
      ~doc:"TensorIR: automatic tensorized program optimization (OCaml reproduction)"
  in
  exit (Cmd.eval (Cmd.group info
       [ show_cmd; candidates_cmd; tune_cmd; model_cmd; parse_cmd; codegen_cmd;
         intrinsics_cmd; report_cmd; lint_cmd; session_cmd; serve_cmd;
         submit_cmd; jobs_cmd; top_cmd ]))

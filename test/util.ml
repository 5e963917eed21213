(** Shared test helpers: canonical workloads and semantics-preservation
    checks. *)

open Tir_ir

let () = Tir_intrin.Library.register_all ()

let matmul_relu ?(m = 64) ?(n = 64) ?(k = 64) () =
  let a = Te.placeholder "A" [ m; k ] Dtype.F32 in
  let b = Te.placeholder "B" [ k; n ] Dtype.F32 in
  let c =
    Te.reduce "C" ~shape:[ m; n ] ~rdom:[ k ] (fun sp rd ->
        match (sp, rd) with
        | [ i; j ], [ r ] -> Expr.mul (Te.get a [ i; r ]) (Te.get b [ r; j ])
        | _ -> assert false)
  in
  let d =
    Te.compute "D" [ m; n ] (fun idx -> Expr.max_ (Te.get c idx) (Expr.float 0.0))
  in
  Te.lower ~name:"matmul_relu" ~args:[ a; b; d ] [ d ]

let matmul ?(m = 32) ?(n = 32) ?(k = 32) () =
  let a = Te.placeholder "A" [ m; k ] Dtype.F32 in
  let b = Te.placeholder "B" [ k; n ] Dtype.F32 in
  let c =
    Te.reduce "C" ~shape:[ m; n ] ~rdom:[ k ] (fun sp rd ->
        match (sp, rd) with
        | [ i; j ], [ r ] -> Expr.mul (Te.get a [ i; r ]) (Te.get b [ r; j ])
        | _ -> assert false)
  in
  Te.lower ~name:"matmul" ~args:[ a; b; c ] [ c ]

let elementwise_chain ?(n = 32) () =
  let a = Te.placeholder "A" [ n; n ] Dtype.F32 in
  let b =
    Te.compute "B" [ n; n ] (fun idx -> Expr.add (Te.get a idx) (Expr.float 1.0))
  in
  let c = Te.compute "C" [ n; n ] (fun idx -> Expr.Call ("exp", Dtype.F32, [ Te.get b idx ])) in
  Te.lower ~name:"fuse_add_exp" ~args:[ a; c ] [ c ]

(** Run both functions on identical random inputs and compare outputs. *)
let same_semantics ?(seed = 42) (reference : Primfunc.t) (candidate : Primfunc.t) =
  let inputs =
    List.map (fun b -> Tir_exec.Interp.random_input ~seed b) reference.Primfunc.params
  in
  let env_ref = Tir_exec.Interp.run reference (List.map Array.copy inputs) in
  let env_can = Tir_exec.Interp.run candidate (List.map Array.copy inputs) in
  List.for_all2
    (fun (br : Buffer.t) (bc : Buffer.t) ->
      Tir_exec.Interp.allclose
        (Tir_exec.Interp.output env_ref br)
        (Tir_exec.Interp.output env_can bc))
    reference.Primfunc.params candidate.Primfunc.params

let check_same_semantics ?seed msg reference candidate =
  if not (same_semantics ?seed reference candidate) then begin
    Fmt.epr "=== reference ===@.%s@.=== candidate ===@.%s@."
      (Printer.func_to_string reference)
      (Printer.func_to_string candidate);
    Alcotest.failf "%s: semantics changed" msg
  end

let check_valid msg (f : Primfunc.t) =
  match Tir_sched.Validate.check_func f with
  | [] -> ()
  | issues ->
      Fmt.epr "%s@." (Printer.func_to_string f);
      Alcotest.failf "%s: %a" msg
        (Fmt.list ~sep:Fmt.comma Tir_sched.Validate.pp_issue)
        issues

(* Optional-argument wrapper over the Config-based tuning API, so tests
   read like their call sites did before the redesign. *)
let tune ?(seed = 42) ?(trials = 64) ?use_cost_model ?evolve ?sketches
    ?database ?jobs target w =
  let open Tir_autosched.Tune.Config in
  let opt f v cfg = match v with Some v -> f v cfg | None -> cfg in
  let cfg =
    default |> with_seed seed |> with_trials trials
    |> opt with_use_cost_model use_cost_model
    |> opt with_evolve evolve
    |> opt with_sketches sketches
    |> opt with_database database
    |> opt with_jobs jobs
  in
  Tir_autosched.Tune.run cfg w target

(* Small instances of every workload family, per target, as the
   benchmark's interpreter check sizes them. *)
let small_instance tag (target : Tir_sim.Target.t) =
  let module W = Tir_workloads.Workloads in
  let cpu = target.Tir_sim.Target.kind = Tir_sim.Target.Cpu in
  let in_dtype, acc_dtype = if cpu then (Dtype.I8, Dtype.I32) else (Dtype.F16, Dtype.F32) in
  match tag with
  | "GMM" -> W.gmm ~in_dtype ~acc_dtype ~m:16 ~n:48 ~k:32 ()
  | "C2D" -> W.c2d ~in_dtype ~acc_dtype ~h:4 ~w:4 ~ci:16 ~co:48 ()
  | "C1D" -> W.c1d ~l:16 ~ci:16 ~co:16 ()
  | "C3D" -> W.c3d ~d:1 ~h:4 ~w:4 ~ci:16 ~co:16 ()
  | "DEP" -> W.dep ~h:8 ~w:8 ~c:16 ()
  | "DIL" -> W.dil ~h:4 ~w:4 ~ci:16 ~co:16 ()
  | "GRP" -> W.grp ~h:4 ~w:4 ~groups:2 ~ci:32 ~co:32 ()
  | _ -> W.t2d ~h:2 ~w:2 ~ci:16 ~co:16 ()

(* Every sketch of every family on both targets, with five seeded decision
   vectors each, and the workload it schedules. Some vectors are ones the
   sketch rejects: [apply] raises [Schedule_error] on them. *)
let sketch_programs () =
  let rng = Tir_autosched.Rng.create 11 in
  List.concat_map
    (fun target ->
      List.concat_map
        (fun tag ->
          let w = small_instance tag target in
          let sketches =
            Tir_autosched.Sketch.generate target w
              (Tir_autosched.Tune.target_intrinsics target)
          in
          List.concat_map
            (fun (sk : Tir_autosched.Sketch.t) ->
              List.map
                (fun _ ->
                  (w, sk, Tir_autosched.Space.random_decisions rng sk.knobs))
                [ 1; 2; 3; 4; 5 ])
            sketches)
        [ "GMM"; "C1D"; "C2D"; "C3D"; "DEP"; "DIL"; "GRP"; "T2D" ])
    [ Tir_sim.Target.gpu_tensorcore; Tir_sim.Target.arm_sdot ]

(* --- the shared files' old writers, kept as references ----------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* [Database.save] as a full rewrite: the version header and every
   record's line, in insertion order. *)
let database_text (records : Tir_autosched.Database.record list) =
  String.concat ""
    ("# tensorir database v2\n"
    :: List.map (fun r -> Tir_autosched.Database.record_to_line r ^ "\n") records)

(* [Model.Store.absorb] as it was before the store appended: read the
   whole store (a missing or unparseable file is empty), merge [model]'s
   samples under exact dedup, rewrite the whole file untrained, return
   the merge. *)
let rewrite_absorb ~path (model : Tir_autosched.Model.t) =
  let module Model = Tir_autosched.Model in
  let key ~group ~features ~latency_us =
    String.concat "|"
      (group :: Printf.sprintf "%h" latency_us
      :: Array.to_list (Array.map (Printf.sprintf "%h") features))
  in
  let seen = Hashtbl.create 256 and merged = Model.gbdt () in
  (if Sys.file_exists path then
     match Model.load (read_file path) with
     | stored ->
         Model.iter_samples stored (fun ~group ~features ~latency_us ->
             Hashtbl.replace seen (key ~group ~features ~latency_us) ();
             Model.add merged ~group ~features ~latency_us)
     | exception Model.Parse_error _ -> ());
  Model.iter_samples model (fun ~group ~features ~latency_us ->
      let k = key ~group ~features ~latency_us in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        Model.add merged ~group ~features ~latency_us
      end);
  write_file path (Model.save merged);
  merged

(** Schedule traces: serialization round-trips over every instruction
    form (including adversarial string payloads), parse-error handling,
    the replay law [instructions (replay tr f) = tr] on recorded
    schedules, and one recorded trace per schedule whether or not the
    apply cache is consulted. *)

module S = Tir_sched.Schedule
module Trace = Tir_sched.Trace

(* One instance of every instruction constructor, with representative
   payloads. Purely a serialization fixture — never replayed. *)
let every_instr : Trace.t =
  [
    Trace.Get_loops { block = Trace.Bname "C"; outs = [ 0; 1; 2 ] };
    Trace.Split { loop = 0; factors = [ 4; 0 ]; outs = [ 3; 4 ] };
    Trace.Fuse { a = 3; b = 4; out = 5 };
    Trace.Fuse_many { loops = [ 5; 1 ]; out = 6 };
    Trace.Reorder { loops = [ 6; 2 ] };
    Trace.Bind { loop = 6; thread = "blockIdx.x" };
    Trace.Parallel { loop = 2 };
    Trace.Vectorize { loop = 2 };
    Trace.Unroll { loop = 2 };
    Trace.Annotate { loop = 2; key = "pragma"; value = "unroll_depth=4" };
    Trace.Annotate_block { block = Trace.Bname "C"; key = "k"; value = "v" };
    Trace.Compute_at { block = Trace.Brv 0; loop = 6 };
    Trace.Reverse_compute_at { block = Trace.Bname "D"; loop = 6 };
    Trace.Compute_inline { block = Trace.Bname "B" };
    Trace.Reverse_compute_inline { block = Trace.Bname "D" };
    Trace.Cache_read { block = Trace.Bname "C"; buffer = "A"; scope = "shared"; out = 0 };
    Trace.Cache_write { block = Trace.Bname "C"; buffer = "C"; scope = "wmma.accumulator"; out = 1 };
    Trace.Set_scope { buffer = "C_shared"; scope = "global" };
    Trace.Blockize { loop = 2; out = 2 };
    Trace.Tensorize { loop = 2; intrin = "wmma.mma_16x16x16"; out = 3 };
    Trace.Tensorize_block { block = Trace.Brv 3; intrin = "wmma.load_a" };
    Trace.Decompose_reduction { block = Trace.Bname "C"; loop = 2; out = 4 };
    Trace.Merge_reduction { init = Trace.Brv 4; update = Trace.Bname "C" };
    Trace.Rfactor { block = Trace.Bname "C"; loop = 2; out = 5 };
    Trace.Decide { knob = "tile_i"; choice = 3 };
  ]

let roundtrip tr = Trace.of_string (Trace.to_string tr)

let test_every_constructor_roundtrips () =
  Alcotest.(check bool) "text -> parse -> same trace" true
    (Trace.equal every_instr (roundtrip every_instr));
  (* Each instruction also round-trips alone, so a single corrupted line
     in a database record cannot be masked by its neighbours. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        ("single-instruction roundtrip: " ^ Trace.instr_to_string i)
        true
        (Trace.equal [ i ] (roundtrip [ i ])))
    every_instr

let test_adversarial_strings_roundtrip () =
  let nasty = "a\"b, c)(\n[]|%=\\" in
  let tr : Trace.t =
    [
      Trace.Get_loops { block = Trace.Bname nasty; outs = [ 0 ] };
      Trace.Annotate { loop = 0; key = nasty; value = nasty };
      Trace.Annotate_block { block = Trace.Bname nasty; key = "k"; value = nasty };
      Trace.Cache_read { block = Trace.Bname nasty; buffer = nasty; scope = nasty; out = 1 };
      Trace.Tensorize { loop = 0; intrin = nasty; out = 2 };
      Trace.Decide { knob = nasty; choice = -1 };
    ]
  in
  Alcotest.(check bool) "nasty payloads survive" true (Trace.equal tr (roundtrip tr))

let test_comments_and_blanks_skipped () =
  let text = "# schedule trace (1 primitives)\n\n  \nparallel(l0)\n" in
  Alcotest.(check bool) "comments and blanks ignored" true
    (Trace.equal [ Trace.Parallel { loop = 0 } ] (Trace.of_string text))

let expect_parse_error text =
  match Trace.of_string text with
  | _ -> Alcotest.failf "expected Parse_error on %S" text
  | exception Trace.Parse_error _ -> ()

let test_parse_errors () =
  expect_parse_error "parallel l0";          (* no argument list *)
  expect_parse_error "no_such_primitive(l0)";
  expect_parse_error "parallel(b0)";         (* block RV where loop expected *)
  expect_parse_error "split(l0)";            (* missing factor list *)
  expect_parse_error "l0 = parallel(l0)";    (* output where none allowed *)
  expect_parse_error "parallel(l0) trailing"

(* Record a representative CPU schedule, then replay its trace against the
   original function: the replayed schedule must carry the identical
   trace, validate, and compute the same result. *)
let recorded_matmul () =
  let original = Util.matmul () in
  let t = S.create original in
  let a = List.hd (S.func t).Tir_ir.Primfunc.params in
  (match S.get_loops t "C" with
  | [ i; j; k ] ->
      let io, ii =
        match S.split t i ~factors:[ 4; 8 ] with [ a; b ] -> (a, b) | _ -> assert false
      in
      let jo, ji =
        match S.split t j ~factors:[ 4; 8 ] with [ a; b ] -> (a, b) | _ -> assert false
      in
      S.reorder t [ io; jo; ii; ji; k ];
      let cr = S.cache_read t "C" a "global" in
      S.compute_at t cr jo;
      S.annotate t ji "pragma" "auto_unroll,step=8";
      S.parallel t io;
      S.record_decision t "tile_i" 1
  | _ -> assert false);
  (original, t)

let test_replay_law () =
  let original, t = recorded_matmul () in
  let tr = S.instructions t in
  let t' = S.replay tr original in
  Alcotest.(check bool) "instructions (replay tr f) = tr" true
    (Trace.equal tr (S.instructions t'));
  Alcotest.(check bool) "replayed schedule validates" true (S.is_valid t');
  Util.check_same_semantics "replay" (S.func t) (S.func t')

let test_replay_from_text () =
  let original, t = recorded_matmul () in
  let tr = Trace.of_string (Trace.to_string (S.instructions t)) in
  let t' = S.replay tr original in
  Alcotest.(check bool) "text-roundtripped trace replays identically" true
    (Trace.equal (S.instructions t) (S.instructions t'));
  Util.check_same_semantics "replay-from-text" (S.func t) (S.func t')

let test_replay_decisions_preserved () =
  let original, t = recorded_matmul () in
  let t' = S.replay (S.instructions t) original in
  Alcotest.(check (list (pair string int))) "decision vector survives replay"
    [ ("tile_i", 1) ]
    (Trace.decisions (S.instructions t'))

let expect_schedule_error tr f =
  match S.replay tr f with
  | _ -> Alcotest.fail "expected Schedule_error"
  | exception S.Schedule_error _ -> ()

let test_replay_errors () =
  let f = Util.matmul () in
  (* Unbound loop RV. *)
  expect_schedule_error [ Trace.Parallel { loop = 7 } ] f;
  (* Unbound block RV. *)
  expect_schedule_error [ Trace.Compute_inline { block = Trace.Brv 3 } ] f;
  (* Unknown block name. *)
  expect_schedule_error [ Trace.Get_loops { block = Trace.Bname "nope"; outs = [ 0 ] } ] f;
  (* Arity mismatch between instruction outs and what the primitive made. *)
  expect_schedule_error
    [
      Trace.Get_loops { block = Trace.Bname "C"; outs = [ 0; 1; 2 ] };
      Trace.Split { loop = 0; factors = [ 4; 8 ]; outs = [ 3 ] };
    ]
    f;
  (* Unknown buffer name. *)
  expect_schedule_error
    [ Trace.Cache_read { block = Trace.Bname "C"; buffer = "nope"; scope = "shared"; out = 0 } ]
    f

(* The loops of a schedule's program, outermost first, read from its body:
   no instruction has defined them yet, so the step that consumes them
   interns them. *)
let untraced_loops t =
  let acc = ref [] in
  Tir_ir.Stmt.iter
    (function Tir_ir.Stmt.For r -> acc := r.Tir_ir.Stmt.loop_var :: !acc | _ -> ())
    (S.body t);
  List.rev !acc

(* A step over untraced loops records the same instruction whether or not
   the schedule consults the apply cache: the inputs are interned in
   argument order on both paths. *)
let test_untraced_inputs_in_argument_order () =
  let check name expected step =
    List.iter
      (fun (path, create) ->
        let t = create (Util.matmul ()) in
        step t (untraced_loops t);
        Alcotest.(check (list string)) (name ^ " on " ^ path) expected (S.trace t))
      [ ("create", S.create); ("create_cached", S.create_cached) ]
  in
  check "fuse" [ "l2 = fuse(l0, l1)" ] (fun t -> function
    | i :: j :: _ -> ignore (S.fuse t i j)
    | _ -> assert false);
  check "fuse_many" [ "l2 = fuse_many([l0, l1])" ] (fun t -> function
    | i :: j :: _ -> ignore (S.fuse_many t [ i; j ])
    | _ -> assert false);
  check "reorder" [ "reorder([l0, l1, l2])" ] (fun t -> function
    | [ i; j; k ] -> S.reorder t [ j; i; k ]
    | _ -> assert false)

(* The replay law over every sketch program: the cached, the re-cached and
   the uncached application record one trace, which round-trips through
   text and replays to itself and to the same program. *)
let test_sketch_traces_cache_independent () =
  let module Ac = Tir_sched.Apply_cache in
  let checked = ref 0 in
  List.iter
    (fun (w, (sk : Tir_autosched.Sketch.t), d) ->
      match sk.apply d with
      | exception Tir_sched.State.Schedule_error _ -> ()
      | first ->
          incr checked;
          let tr = S.instructions first in
          let text = Trace.to_string tr in
          let name = sk.name ^ " " ^ w.Tir_workloads.Workloads.name in
          let hits0, _ = Ac.stats () in
          let again = sk.apply d in
          Alcotest.(check bool) (name ^ ": re-application adopts") true
            (fst (Ac.stats ()) > hits0);
          let uncached =
            Ac.set_enabled false;
            Fun.protect ~finally:(fun () -> Ac.set_enabled true) (fun () -> sk.apply d)
          in
          Alcotest.(check string) (name ^ ": re-applied") text
            (Trace.to_string (S.instructions again));
          Alcotest.(check string) (name ^ ": cache off") text
            (Trace.to_string (S.instructions uncached));
          Alcotest.(check bool) (name ^ ": text round-trips") true
            (Trace.equal tr (roundtrip tr));
          let base =
            match Tir_autosched.Database.base_func w sk.base with
            | Some f -> f
            | None -> Alcotest.failf "%s: no base function" name
          in
          let replayed = S.replay tr base in
          Alcotest.(check bool) (name ^ ": replay law") true
            (Trace.equal tr (S.instructions replayed));
          Alcotest.(check bool) (name ^ ": same program") true
            (Tir_ir.Fingerprint.func (S.func first)
            = Tir_ir.Fingerprint.func (S.func replayed)))
    (Util.sketch_programs ());
  Alcotest.(check bool) "some sketch applied" true (!checked >= 48)

let suite =
  [
    ("every constructor roundtrips", `Quick, test_every_constructor_roundtrips);
    ("adversarial strings roundtrip", `Quick, test_adversarial_strings_roundtrip);
    ("comments and blanks skipped", `Quick, test_comments_and_blanks_skipped);
    ("parse errors", `Quick, test_parse_errors);
    ("replay law: instructions o replay = id", `Quick, test_replay_law);
    ("replay from serialized text", `Quick, test_replay_from_text);
    ("decisions preserved across replay", `Quick, test_replay_decisions_preserved);
    ("replay errors", `Quick, test_replay_errors);
    ( "untraced inputs interned in argument order",
      `Quick,
      test_untraced_inputs_in_argument_order );
    ( "sketch traces: cache on, again, off and replayed",
      `Quick,
      test_sketch_traces_cache_independent );
  ]

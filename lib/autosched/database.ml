(** Tuning-record database (paper §5.2).

    "TensorIR can eliminate search time further by caching historical cost
    models and search records. So no search is needed to build a model for
    an operator already tuned." Records map (target, workload) to the best
    schedule found, carrying the full instruction trace of that schedule:
    [replay] re-applies the trace to a freshly built start function — no
    sketch regeneration, so records survive search-space refactors — and
    falls back to re-applying the recorded decisions through the sketch for
    traceless (v1) records.

    On-disk format v2 is line-oriented, append-friendly and
    human-inspectable:
    {v
    # tensorir database v2
    target|workload|sketch|base|decisions|latency_us|trace
    v}
    Every field is percent-escaped, so names containing the [|] field
    separator (or the [,]/[=] used inside the decisions field, or newlines)
    cannot inject fields. The serialized trace has its newlines escaped to
    keep one record per line. Headerless files are read as the v1 format
    ([target|workload|sketch|decisions|latency_us], no escaping) for
    backward compatibility. *)

module W = Tir_workloads.Workloads
module TI = Tir_intrin.Tensor_intrin

type record = {
  target_name : string;
  workload_name : string;
  sketch_name : string;
  base : string;  (** [Sketch.base]: intrinsic name of the tensorization
                      candidate the schedule starts from, or [""] *)
  decisions : Space.decisions;
  latency_us : float;
  trace : Tir_sched.Trace.t option;
      (** [None] only for records loaded from v1 files *)
}

(* What the file a database was loaded from or saved to holds, and how
   many bytes long it was left. *)
type disk =
  | Unknown
  | Read of { path : string; size : int; lines : string list }
      (** a v2 file [load] read whole: its lines after the header *)
  | Holds of { path : string; size : int; n : int }
      (** exactly the v2 rendering of the first [n] records *)

type t = {
  mutable records : record list;  (** newest first *)
  mutable disk : disk;
}

(* Registry counters: replays attempted / replayed from trace alone /
   fresh results committed. *)
let m_found = Tir_obs.Metrics.counter "db.found"
let m_replayed = Tir_obs.Metrics.counter "db.replayed"
let m_committed = Tir_obs.Metrics.counter "db.committed"

let create () = { records = []; disk = Unknown }

let find t ~target_name ~workload_name =
  (* Compare the name pair, not a joined string: a '|' inside a name must
     not let ("a|b", "c") alias ("a", "b|c"). *)
  List.fold_left
    (fun best r ->
      if String.equal r.target_name target_name && String.equal r.workload_name workload_name
      then
        match best with
        | Some b when b.latency_us <= r.latency_us -> best
        | _ -> Some r
      else best)
    None t.records

let add t r = t.records <- r :: t.records

let size t = List.length t.records

(* --- serialization --- *)

let version_header = "# tensorir database v2"

(* Every field escapes what has structural meaning in the line format:
   '|' (field separator), '\n'/'\r' (record separator), ',' and '='
   (decision-list separators). *)
let field_chars = Tir_core.Percent.reserved "|\n\r,="
let esc = Tir_core.Percent.escape field_chars
let unesc = Tir_core.Percent.unescape

let decisions_to_string (d : Space.decisions) =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" (esc k) v) (List.sort compare d))

let decisions_of_string ~unescape_keys s =
  if String.equal s "" then []
  else
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
            let k = String.sub kv 0 i in
            ( (if unescape_keys then unesc k else k),
              int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
        | None -> failwith ("bad decision entry " ^ kv))
      (String.split_on_char ',' s)

let record_to_line r =
  Printf.sprintf "%s|%s|%s|%s|%s|%.6f|%s" (esc r.target_name)
    (esc r.workload_name) (esc r.sketch_name) (esc r.base)
    (decisions_to_string r.decisions)
    r.latency_us
    (match r.trace with Some tr -> esc (Tir_sched.Trace.to_string tr) | None -> "")

let record_of_line_v2 line =
  match String.split_on_char '|' line with
  | [ target_name; workload_name; sketch_name; base; decisions; latency; trace ] ->
      {
        target_name = unesc target_name;
        workload_name = unesc workload_name;
        sketch_name = unesc sketch_name;
        base = unesc base;
        decisions = decisions_of_string ~unescape_keys:true decisions;
        latency_us = float_of_string latency;
        trace =
          (if String.equal trace "" then None
           else Some (Tir_sched.Trace.of_string (unesc trace)));
      }
  | _ -> failwith ("bad database line: " ^ line)

(* v1: [target|workload|sketch|decisions|latency_us], unescaped. *)
let record_of_line_v1 line =
  match String.split_on_char '|' line with
  | [ target_name; workload_name; sketch_name; decisions; latency ] ->
      {
        target_name;
        workload_name;
        sketch_name;
        base = "";
        decisions = decisions_of_string ~unescape_keys:false decisions;
        latency_us = float_of_string latency;
        trace = None;
      }
  | _ -> failwith ("bad database line: " ^ line)

(* One guarded write under the fault-injection harness (site [Db_write]):
   injected failures are retried a bounded number of times; exhaustion
   surfaces as [Error.Error] with kind [Fault], never as a silent partial
   write. No-op (beyond the write itself) when injection is off. *)
let db_write_guard ~key =
  if Tir_core.Fault.enabled Tir_core.Fault.Db_write then
    try
      Tir_parallel.Retry.with_retries ~site:"db" ~key (fun ~attempt ->
          Tir_core.Fault.maybe_fail Tir_core.Fault.Db_write
            ~key:(Printf.sprintf "%s@%d" key attempt))
    with Tir_parallel.Retry.Exhausted { site; key; attempts } ->
      Tir_core.Error.raise_error ~context:key Tir_core.Error.Fault
        (Printf.sprintf "%s write failed after %d attempts" site attempts)

(* The number of leading records the file at [path] holds, if it holds
   exactly their rendering, and its size. A file [load] read is checked
   against its records here, at the first save, so loading renders
   nothing. *)
let held t path =
  match t.disk with
  | Holds { path = p; size; n } when String.equal p path -> Some (n, size)
  | Read { path = p; size; lines } when String.equal p path ->
      let rec matches lines recs =
        match (lines, recs) with
        | [], _ -> true
        | l :: ls, r :: rs -> String.equal l (record_to_line r) && matches ls rs
        | _ :: _, [] -> false
      in
      if matches lines (List.rev t.records) then Some (List.length lines, size)
      else None
  | _ -> None

let lines_size = List.fold_left (fun acc l -> acc + String.length l + 1) 0

let save t path =
  let all = List.rev t.records in
  let appended =
    match held t path with
    | None -> None
    | Some (k, size) ->
        (* Records are only ever added, in order, so the records past the
           [k] the file holds are all that is missing. Every injected
           fault is decided before the first byte is written. *)
        let fresh = List.filteri (fun i _ -> i >= k) all in
        List.iteri
          (fun i _ -> db_write_guard ~key:(Printf.sprintf "dbsave:%d" (k + i)))
          fresh;
        let lines = List.map record_to_line fresh in
        (* A failed append may leave a torn line: until one succeeds, the
           next save rewrites the file whole. *)
        t.disk <- Unknown;
        if
          Tir_core.File.append path ~size (fun oc ->
              List.iter
                (fun l ->
                  output_string oc l;
                  output_char oc '\n')
                lines)
        then Some (size + lines_size lines)
        else None
  in
  let size =
    match appended with
    | Some size -> size
    | None ->
        (* Write-then-rename: a crash, a failed write (a full disk) or an
           exhausted injected fault mid-save leaves the previous snapshot
           intact — readers never observe a half-written database. *)
        let lines = version_header :: List.map record_to_line all in
        Tir_core.File.write_atomic path (fun oc ->
            List.iteri
              (fun i l ->
                if i > 0 then db_write_guard ~key:(Printf.sprintf "dbsave:%d" (i - 1));
                output_string oc l;
                output_char oc '\n')
              lines);
        lines_size lines
  in
  t.disk <- Holds { path; size; n = List.length all }

let m_torn = Tir_obs.Metrics.counter "db.torn_dropped"

let load path =
  if not (Sys.file_exists path) then create ()
  else begin
    (* A crash mid-append leaves an unterminated final line. It is
       dropped unparsed: a record cut inside its trace can parse as a
       shorter one. Newline-terminated garbage is still an error — that
       is corruption, not a torn write. *)
    let lines, torn = Tir_core.File.read_lines path in
    if torn <> None then Tir_obs.Metrics.incr m_torn;
    let records = ref [] in
    let v2 = ref false in
    List.iter
      (fun line ->
        let trimmed = String.trim line in
        if String.equal trimmed version_header then v2 := true
        else if trimmed <> "" && trimmed.[0] <> '#' then
          records :=
            (if !v2 then record_of_line_v2 line else record_of_line_v1 line)
            :: !records)
      lines;
    let disk =
      match lines with
      | first :: rest when torn = None && String.equal first version_header ->
          Read { path; size = lines_size lines; lines = rest }
      | _ -> Unknown
    in
    { records = !records; disk }
  end

(** [load] through the unified error surface: [Io] when the filesystem
    refuses, [Corrupt] when a (complete) line violates the format. *)
let load_result path : (t, Tir_core.Error.t) result =
  match load path with
  | db -> Ok db
  | exception Failure msg ->
      Error (Tir_core.Error.make ~context:path Tir_core.Error.Corrupt msg)
  | exception Tir_sched.Trace.Parse_error msg ->
      Error
        (Tir_core.Error.make ~context:path Tir_core.Error.Corrupt
           ("bad trace field: " ^ msg))
  | exception Tir_core.Error.Error e -> Error e

(** Record the best result of a tuning run. *)
let commit t (target : Tir_sim.Target.t) (w : W.t) (best : Evolutionary.measured) =
  Tir_obs.Metrics.incr m_committed;
  add t
    {
      target_name = target.Tir_sim.Target.name;
      workload_name = w.W.name;
      sketch_name = best.Evolutionary.sketch_name;
      base = best.Evolutionary.base;
      decisions = best.Evolutionary.decisions;
      latency_us = best.Evolutionary.latency_us;
      trace = Some best.Evolutionary.trace;
    }

(* --- replay --- *)

(* The function the record's trace was applied to: the workload's func for
   scalar sketches, or the tensorization candidate's canonical program for
   [base = <intrinsic>]. *)
let base_func (w : W.t) (base : string) =
  if String.equal base "" then Some w.W.func
  else
    match TI.lookup base with
    | intrin -> Option.map (fun c -> c.Candidate.func) (Candidate.generate w intrin)
    | exception TI.Not_registered _ -> None

(* Replay from the serialized trace alone: rebuild the start function from
   (workload, base), re-apply every instruction, re-validate, measure once
   (memoized on the digest of the replayed program). *)
let replay_from_trace (target : Tir_sim.Target.t) (w : W.t) (r : record) :
    Evolutionary.measured option =
  match r.trace with
  | None -> None
  | Some tr -> (
      match base_func w r.base with
      | None -> None
      | Some f -> (
          match Tir_sched.Schedule.replay tr f with
          | exception Tir_sched.State.Schedule_error _ -> None
          | sch -> (
              let func = Tir_sched.Schedule.func sch in
              match Tir_sched.Validate.check_func func with
              | _ :: _ -> None
              | [] -> (
                  (* [prog# ^ structural fingerprint] — the same key form
                     the search's measurement memo uses, so a replayed
                     record hits the entry a live search already paid
                     for (and vice versa). *)
                  let key =
                    Eval.cache_prefix target ^ "prog#"
                    ^ Sketch.workload_digest func
                  in
                  match snd (Eval.measure_cached ~key ~target func) with
                  | Eval.Unsupported_target | Eval.Unmeasurable -> None
                  | Eval.Measured latency_us ->
                      Some
                        {
                          Evolutionary.sketch_name = r.sketch_name;
                          base = r.base;
                          decisions = Tir_sched.Trace.decisions tr;
                          trace = tr;
                          func;
                          latency_us;
                        }))))

(* Legacy path for traceless (v1) records: re-apply the stored decisions
   through the matching freshly generated sketch. [Space.Unknown_knob]
   means the sketch's knob set changed since the record was written — the
   record is stale, not an error. *)
let replay_from_sketch (target : Tir_sim.Target.t) (sketches : Sketch.t list)
    (r : record) : Evolutionary.measured option =
  match
    List.find_opt (fun s -> String.equal s.Sketch.name r.sketch_name) sketches
  with
  | None -> None
  | Some sk -> (
      (* The evaluation key is the canonical (knob-projected) form the
         search uses; [Space.canonical_key] reads the vector with
         [decide_exn], so a missing knob — the search space changed since
         the record was written — parks the record as stale below. *)
      match
        let key =
          Eval.cache_prefix target ^ sk.Sketch.space_id ^ "|"
          ^ Space.canonical_key sk.Sketch.knobs r.decisions
        in
        snd (Eval.evaluate_cached ~key ~target sk r.decisions)
      with
      | exception Space.Unknown_knob _ -> None
      | Eval.Inapplicable | Eval.Invalid | Eval.Unsound
      | Eval.Unsupported ->
          None
      | Eval.Evaluated { func; fp; trace; _ } -> (
          let key =
            Eval.cache_prefix target ^ "prog#"
            ^ Tir_ir.Fingerprint.to_hex fp
          in
          match snd (Eval.measure_cached ~key ~target func) with
          | Eval.Unsupported_target | Eval.Unmeasurable -> None
          | Eval.Measured latency_us ->
              Some
                {
                  Evolutionary.sketch_name = r.sketch_name;
                  base = sk.Sketch.base;
                  decisions = Tir_sched.Trace.decisions trace;
                  trace;
                  func;
                  latency_us;
                }))

(** Replay a stored record: trace-first (no sketch regeneration — the
    record is portable across search-space versions), falling back to
    re-applying the recorded decisions through [sketches] for v1 records.
    Returns [None] if neither path yields a valid, measurable schedule.
    Re-application and the verification measurement go through the
    process-wide memo in [Eval], so replaying a schedule tuned
    earlier in the same process re-simulates nothing. *)
let replay (target : Tir_sim.Target.t) ~(workload : W.t) ~(sketches : Sketch.t list)
    (r : record) : Evolutionary.measured option =
  Tir_obs.Metrics.incr m_found;
  match replay_from_trace target workload r with
  | Some m ->
      Tir_obs.Metrics.incr m_replayed;
      Some m
  | None -> replay_from_sketch target sketches r

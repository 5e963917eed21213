(* Causal tracing: wide structured events with a propagated context
   (tenant / job / session / generation / candidate), recorded into
   per-domain sharded buffers and aggregated deterministically.

   Determinism contract (mirrors Metrics): an event's *identity* is its
   kind, name, context, args and counter value. Timestamps, durations,
   self-time, the recording domain (track) and the enclosing span stack
   are placement- and time-derived views — they vary run to run and
   between job counts (a task that runs inline at TIR_JOBS=1 runs on a
   worker domain at TIR_JOBS=4), so they are excluded from identity. A
   deterministic workload records a bit-identical multiset of identities
   at any TIR_JOBS; [identities ()] returns it sorted for comparison.

   Recording is off by default and near-free when disabled (one atomic
   load per site). Context propagation is dynamically scoped via
   Domain.DLS: [with_ctx] merges fields over the ambient context for the
   extent of a callback, and the pool captures the submitter's ambient
   context at region entry and installs it in the workers, so events
   recorded inside a fan-out keep the submitting tenant's identity. *)

type ctx = {
  tenant : string option;
  job : string option;
  session : string option;
  generation : int option;
  candidate : string option;
}

let empty_ctx =
  { tenant = None; job = None; session = None; generation = None; candidate = None }

type kind = Span | Instant | Counter

type event = {
  e_kind : kind;
  e_name : string;
  e_ctx : ctx;
  e_args : (string * string) list;
  e_value : float;  (* Counter only *)
  e_ts_us : float;  (* not identity *)
  e_dur_us : float;  (* Span only; not identity *)
  e_self_us : float;  (* Span only; not identity *)
  e_track : int;  (* recording domain; not identity *)
  e_stack : string list;  (* enclosing spans, outermost first; not identity *)
}

(* --- enable / capacity --- *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let default_capacity = 1_000_000
let capacity = Atomic.make default_capacity
let set_capacity n = Atomic.set capacity (max 0 n)

(* --- sharded buffers (same layout as Metrics: cheap uncontended
   writes, aggregate on read) --- *)

let shard_count = 64

type shard = { lock : Mutex.t; mutable events : event list }

let shards =
  Array.init shard_count (fun _ -> { lock = Mutex.create (); events = [] })

let shard_index () = (Domain.self () :> int) land (shard_count - 1)
let recorded = Atomic.make 0
let dropped = Atomic.make 0
let m_dropped = Metrics.counter "trace.dropped"

(* --- dynamically scoped context and span stack --- *)

let ctx_key = Domain.DLS.new_key (fun () -> empty_ctx)

type frame = { f_name : string; f_start : float; mutable f_child_us : float }

let stack_key : frame list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let ambient () = Domain.DLS.get ctx_key

let with_ambient c f =
  let old = Domain.DLS.get ctx_key in
  Domain.DLS.set ctx_key c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key old) f

let with_ctx ?tenant ?job ?session ?generation ?candidate f =
  let c = Domain.DLS.get ctx_key in
  let merge o cur = match o with Some _ -> o | None -> cur in
  with_ambient
    {
      tenant = merge tenant c.tenant;
      job = merge job c.job;
      session = merge session c.session;
      generation = merge generation c.generation;
      candidate = merge candidate c.candidate;
    }
    f

(* --- recording --- *)

let push e =
  let n = Atomic.fetch_and_add recorded 1 in
  if n >= Atomic.get capacity then begin
    Atomic.incr dropped;
    Metrics.incr m_dropped
  end
  else begin
    let s = shards.(shard_index ()) in
    Mutex.lock s.lock;
    s.events <- e :: s.events;
    Mutex.unlock s.lock
  end

let stack_names () =
  List.rev_map (fun f -> f.f_name) (Domain.DLS.get stack_key)

let instant ?(args = []) name =
  if is_enabled () then
    push
      {
        e_kind = Instant;
        e_name = name;
        e_ctx = ambient ();
        e_args = args;
        e_value = 0.0;
        e_ts_us = Clock.now_us ();
        e_dur_us = 0.0;
        e_self_us = 0.0;
        e_track = (Domain.self () :> int);
        e_stack = stack_names () @ [ name ];
      }

let counter ?(args = []) name value =
  (* Non-finite samples are dropped rather than recorded: the Chrome
     export has no representation for them and validation rejects null. *)
  if is_enabled () && Float.is_finite value then
    push
      {
        e_kind = Counter;
        e_name = name;
        e_ctx = ambient ();
        e_args = args;
        e_value = value;
        e_ts_us = Clock.now_us ();
        e_dur_us = 0.0;
        e_self_us = 0.0;
        e_track = (Domain.self () :> int);
        e_stack = [];
      }

let with_span ?(args = []) name f =
  if not (is_enabled ()) then f ()
  else begin
    let start = Clock.now_us () in
    let frame = { f_name = name; f_start = start; f_child_us = 0.0 } in
    let outer = Domain.DLS.get stack_key in
    Domain.DLS.set stack_key (frame :: outer);
    Fun.protect
      ~finally:(fun () ->
        let dur = Float.max 0.0 (Clock.now_us () -. frame.f_start) in
        Domain.DLS.set stack_key outer;
        (match outer with
        | parent :: _ -> parent.f_child_us <- parent.f_child_us +. dur
        | [] -> ());
        push
          {
            e_kind = Span;
            e_name = name;
            e_ctx = ambient ();
            e_args = args;
            e_value = 0.0;
            e_ts_us = start;
            e_dur_us = dur;
            e_self_us = Float.max 0.0 (dur -. frame.f_child_us);
            e_track = (Domain.self () :> int);
            e_stack = List.rev_map (fun fr -> fr.f_name) outer @ [ name ];
          })
      f
  end

let reset () =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      s.events <- [];
      Mutex.unlock s.lock)
    shards;
  Atomic.set recorded 0;
  Atomic.set dropped 0

(* --- aggregation --- *)

let sep = '\x1f'

let identity e =
  let b = Buffer.create 64 in
  let add s = Buffer.add_string b s; Buffer.add_char b sep in
  add (match e.e_kind with Span -> "S" | Instant -> "I" | Counter -> "C");
  add e.e_name;
  let opt = function Some s -> s | None -> "" in
  add (opt e.e_ctx.tenant);
  add (opt e.e_ctx.job);
  add (opt e.e_ctx.session);
  add (match e.e_ctx.generation with Some g -> string_of_int g | None -> "");
  add (opt e.e_ctx.candidate);
  List.iter (fun (k, v) -> add k; add v) e.e_args;
  if e.e_kind = Counter then add (Printf.sprintf "%h" e.e_value);
  Buffer.contents b

let events () =
  let all =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.lock;
        let evs = s.events in
        Mutex.unlock s.lock;
        List.rev_append evs acc)
      [] shards
  in
  (* Stable total order: timestamp first (the Chrome export must be
     time-sorted), identity as the deterministic tie-break. *)
  List.sort
    (fun a b ->
      let c = Float.compare a.e_ts_us b.e_ts_us in
      if c <> 0 then c else String.compare (identity a) (identity b))
    all

let identities () = List.sort String.compare (List.map identity (events ()))

type counts = { spans : int; instants : int; counters : int; dropped : int }

let counts () =
  let spans = ref 0 and instants = ref 0 and counters = ref 0 in
  List.iter
    (fun e ->
      match e.e_kind with
      | Span -> incr spans
      | Instant -> incr instants
      | Counter -> incr counters)
    (events ());
  { spans = !spans; instants = !instants; counters = !counters;
    dropped = Atomic.get dropped }

(* --- Chrome trace-event export (Perfetto / chrome://tracing) --- *)

let ctx_args c args =
  let b = Buffer.create 64 in
  let first = ref true in
  let add k v =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (Json_min.escape k) (Json_min.escape v))
  in
  Buffer.add_char b '{';
  (match c.tenant with Some t -> add "tenant" t | None -> ());
  (match c.job with Some j -> add "job" j | None -> ());
  (match c.session with Some s -> add "session" s | None -> ());
  (match c.generation with Some g -> add "generation" (string_of_int g) | None -> ());
  (match c.candidate with Some f -> add "candidate" f | None -> ());
  List.iter (fun (k, v) -> add k v) args;
  Buffer.add_char b '}';
  Buffer.contents b

let export_chrome () =
  let evs = events () in
  let t0 = match evs with [] -> 0.0 | e :: _ -> e.e_ts_us in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b s
  in
  (* Metadata: name each pool domain's track. *)
  let tracks =
    List.sort_uniq Int.compare (List.map (fun e -> e.e_track) evs)
  in
  List.iter
    (fun t ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
           t t))
    tracks;
  List.iter
    (fun e ->
      let ts = Float.max 0.0 (e.e_ts_us -. t0) in
      let args = ctx_args e.e_ctx e.e_args in
      match e.e_kind with
      | Span ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
               (Json_min.escape e.e_name) e.e_track ts e.e_dur_us args)
      | Instant ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":%s}"
               (Json_min.escape e.e_name) e.e_track ts args)
      | Counter ->
          let args_v =
            (* counter tracks plot args values; keep the ctx (and the
               event's own args) alongside *)
            let inner = ctx_args e.e_ctx e.e_args in
            Printf.sprintf "{\"value\":%.6f,\"ctx\":%s}" e.e_value inner
          in
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":%s}"
               (Json_min.escape e.e_name) e.e_track ts args_v))
    evs;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Validate an exported Chrome trace: well-formed JSON, the trace-event
   envelope, finite non-negative non-decreasing timestamps, and — the
   causal-identity requirement — every non-metadata event carrying a
   tenant or job in its args (counters keep theirs under args.ctx).
   Returns the number of non-metadata events. *)
let validate_chrome src =
  let module J = Json_min in
  try
    let top = J.obj "top level" (J.parse src) in
    let evs = J.arr "traceEvents" (J.field "top level" top "traceEvents") in
    let last_ts = ref (-1.0) in
    let n = ref 0 in
    List.iter
      (fun ev ->
        let ev = J.obj "event" ev in
        let ph = J.str "ph" (J.field "event" ev "ph") in
        match ph with
        | "M" -> ()
        | "X" | "i" | "C" ->
            incr n;
            let ts = J.num "ts" (J.field "event" ev "ts") in
            if ts < 0.0 then J.fail "negative timestamp %g" ts;
            if ts < !last_ts then J.fail "timestamps not sorted (%g after %g)" ts !last_ts;
            last_ts := ts;
            (match List.assoc_opt "dur" ev with
            | Some d -> if J.num "dur" d < 0.0 then J.fail "negative duration"
            | None -> ());
            let args = J.obj "args" (J.field "event" ev "args") in
            let ctx_of args =
              List.assoc_opt "tenant" args <> None || List.assoc_opt "job" args <> None
            in
            let has_ctx =
              ctx_of args
              || (match List.assoc_opt "ctx" args with
                 | Some c -> ctx_of (J.obj "args.ctx" c)
                 | None -> false)
            in
            if not has_ctx then
              J.fail "event %S carries neither tenant nor job context"
                (match List.assoc_opt "name" ev with
                | Some (J.Str s) -> s
                | _ -> "?")
        | ph -> J.fail "unknown event phase %S" ph)
      evs;
    Ok !n
  with J.Invalid msg -> Error msg

(* --- collapsed-stacks export (flamegraph.pl / speedscope format:
   "outer;inner self_us" per line, sorted, deterministic given
   deterministic self-times) --- *)

let export_collapsed () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.e_kind = Span then begin
        let key = String.concat ";" e.e_stack in
        let cur = try Hashtbl.find tbl key with Not_found -> 0.0 in
        Hashtbl.replace tbl key (cur +. e.e_self_us)
      end)
    (events ());
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int (int_of_float (Float.round v)));
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let parse_collapsed src =
  String.split_on_char '\n' src
  |> List.filter (fun l -> String.length l > 0)
  |> List.map (fun line ->
         match String.rindex_opt line ' ' with
         | None -> failwith ("collapsed stack line without a count: " ^ line)
         | Some i ->
             let stack = String.sub line 0 i in
             let count =
               int_of_string (String.sub line (i + 1) (String.length line - i - 1))
             in
             (stack, count))

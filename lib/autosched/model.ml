(** The learned cost model (paper §4.4): a rank-trained GBDT, plus a
    versioned on-disk store for cross-workload warm starts.

    The search only consumes the {e order} a model induces over a
    population, never its absolute outputs, so the model trains on a
    pairwise rank loss with labels normalized {e per group} (one group
    per tuning task): a sample's label is [best_group_latency / latency]
    — relative throughput against the best program of its own task —
    which makes samples from workloads with incomparable latency scales
    (c1d at 80µs next to gmm at 8000µs) coexist in one dataset without
    the cross-task pairs that made the old latency-regression model rank
    worse than random.

    Models serialize to a versioned percent-escaped text format (like the
    session WAL): the full sample set plus the fitted ensemble, if any,
    [%h] floats throughout, so [save -> load -> save] is bit-identical
    and a loaded model can keep training. [Store] maintains one such
    file, samples only, alongside a trace database, merges finished runs
    into it, and fits it once per load. *)

type stats = {
  samples : int;  (** measurement samples accumulated *)
  groups : int;  (** distinct tuning tasks contributing samples *)
  trained : bool;  (** an ensemble has been fitted *)
}

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Analytic prior, the score of a model with no fitted ensemble yet:
   prefer tensorized, high-occupancy programs. Operates on raw
   (untransformed) features. *)
let prior (features : float array) =
  (0.5 *. features.(11)) +. (0.2 *. features.(17)) -. (0.05 *. features.(4))

(* --- percent escaping: the sample and ensemble fields ------------------ *)

let esc = Tir_core.Percent.escape (Tir_core.Percent.reserved "|\n\r")

let unesc s =
  try Tir_core.Percent.unescape s
  with Failure msg -> parse_fail "model: %s in %S" msg s

(* --- the rank-trained GBDT ---------------------------------------------- *)

let header = "# tensorir model v1 gbdt-rank"

(* A group whose sample count hits the cap stops accepting — keeps the
   persisted store bounded while staying deterministic (first-come
   wins, independent of job count: [add] only runs in sequential
   reduces). Far above any single run's trial budget. *)
let group_cap = 512

type t = {
  mutable feats : float array array;  (** raw rows, capacity >= [n] *)
  mutable lats : float array;
  mutable grps : int array;  (** group id per row *)
  mutable n : int;
  group_ids : (string, int) Hashtbl.t;
  mutable group_names : string array;  (** id -> name, capacity >= count *)
  mutable group_best : float array;  (** id -> best latency *)
  mutable group_count : int array;  (** id -> samples in the group *)
  mutable n_groups : int;
  mutable model : Gbdt.t option;
  mutable fitted : int;  (** samples the last fit saw *)
}

let initial_capacity = 64

let gbdt () =
  {
    feats = Array.make initial_capacity [||];
    lats = Array.make initial_capacity 0.0;
    grps = Array.make initial_capacity 0;
    n = 0;
    group_ids = Hashtbl.create 8;
    group_names = Array.make 8 "";
    group_best = Array.make 8 Float.infinity;
    group_count = Array.make 8 0;
    n_groups = 0;
    model = None;
    fitted = 0;
  }

let group_id t name =
  match Hashtbl.find_opt t.group_ids name with
  | Some id -> id
  | None ->
      let id = t.n_groups in
      if id = Array.length t.group_names then begin
        let grow a fill = Array.append a (Array.make (Array.length a) fill) in
        t.group_names <- grow t.group_names "";
        t.group_best <- grow t.group_best Float.infinity;
        t.group_count <- grow t.group_count 0
      end;
      t.group_names.(id) <- name;
      Hashtbl.add t.group_ids name id;
      t.n_groups <- id + 1;
      id

(* [add], reporting whether the sample was kept (false: its group was at
   the cap). *)
let accept t ~group ~features ~latency_us =
  let g = group_id t group in
  if t.group_count.(g) >= group_cap then false
  else begin
    if t.n = Array.length t.lats then begin
      let grow a fill = Array.append a (Array.make (Array.length a) fill) in
      t.feats <- grow t.feats [||];
      t.lats <- grow t.lats 0.0;
      t.grps <- grow t.grps 0
    end;
    t.feats.(t.n) <- features;
    t.lats.(t.n) <- latency_us;
    t.grps.(t.n) <- g;
    t.n <- t.n + 1;
    t.group_count.(g) <- t.group_count.(g) + 1;
    if latency_us < t.group_best.(g) then t.group_best.(g) <- latency_us;
    true
  end

let add t ~group ~features ~latency_us =
  ignore (accept t ~group ~features ~latency_us)

(* Feature transform: NaN -> 0, clamp, then signed log1p. The raw rows
   mix O(1) ratios with O(1e9) byte/flop counts; squashing to log space
   keeps split midpoints numerically sane and puts every feature on a
   comparable scale. Applied at fit and score time (the stored rows
   stay raw, so merging models never double-transforms). *)
let squash x =
  let x = if Float.is_nan x then 0.0 else Float.max (-1e12) (Float.min 1e12 x) in
  if x < 0.0 then -.Float.log1p (-.x) else Float.log1p x

let transform row = Array.map squash row

let retrain t =
  if t.n > 0 then begin
    let xs = Array.init t.n (fun i -> transform t.feats.(i)) in
    (* Per-group label: relative throughput against the group's own
       best — in (0, 1], scale-free across tasks. *)
    let ys = Array.init t.n (fun i -> t.group_best.(t.grps.(i)) /. t.lats.(i)) in
    let groups = Array.sub t.grps 0 t.n in
    t.model <- Some (Gbdt.fit_rank xs ys ~groups);
    t.fitted <- t.n
  end

(* Fit on read: the readers refit first when samples were added since
   the last fit. The ensemble is a function of the ordered samples, so
   this is the model an eager refit after every batch of adds would
   hold; a batch that nothing reads is never fitted, and adds refused at
   the group cap leave the ensemble as it is. *)
let refresh t =
  if t.n > t.fitted then Tir_obs.Trace.with_span "model.retrain" (fun () -> retrain t)

let score t features =
  refresh t;
  match t.model with
  | Some m -> Gbdt.predict m (transform features)
  | None -> prior features

let score_batch t (rows : float array array) =
  refresh t;
  match t.model with
  | Some m -> Gbdt.predict_batch m (Array.map transform rows)
  | None -> Array.map prior rows

let iter_samples t f =
  for i = 0 to t.n - 1 do
    f ~group:t.group_names.(t.grps.(i)) ~features:t.feats.(i)
      ~latency_us:t.lats.(i)
  done

(* One sample's line, without its newline. The store appends exactly
   this, and it is the store's exact-dedup key: identical programs
   measured in different runs give bit-identical (group, features,
   latency) triples, hence identical lines. *)
let add_sample_line b ~group ~features ~latency_us =
  Printf.bprintf b "sample|%s|%h|" (esc group) latency_us;
  Array.iteri
    (fun j x ->
      if j > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%h" x)
    features

let sample_line ~group ~features ~latency_us =
  let b = Buffer.create 256 in
  add_sample_line b ~group ~features ~latency_us;
  Buffer.contents b

(* A model without an ensemble (a store merge, or a search that never
   scored after measuring) saves its samples only. *)
let save t =
  if t.model <> None then refresh t;
  let b = Buffer.create 4096 in
  Buffer.add_string b (header ^ "\n");
  iter_samples t (fun ~group ~features ~latency_us ->
      add_sample_line b ~group ~features ~latency_us;
      Buffer.add_char b '\n');
  (match t.model with
  | None -> ()
  | Some m -> Printf.bprintf b "gbdt|%s\n" (esc (Gbdt.to_string m)));
  Buffer.contents b

let float_field what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> parse_fail "model: bad %s %S" what s

type line =
  | Sample of { group : string; features : float array; latency_us : float }
  | Ensemble of Gbdt.t
  | Blank

let parse_line line =
  if line = "" then Blank
  else
    match String.split_on_char '|' line with
    | [ "sample"; group; lat; feats ] ->
        Sample
          {
            group = unesc group;
            features =
              Array.of_list
                (List.map (float_field "feature") (String.split_on_char ',' feats));
            latency_us = float_field "latency" lat;
          }
    | [ "gbdt"; text ] -> (
        match Gbdt.of_string (unesc text) with
        | m -> Ensemble m
        | exception Gbdt.Parse_error e -> parse_fail "model: %s" e)
    | _ -> parse_fail "model: bad line %S" line

(* The model the lines after the header describe. *)
let of_lines lines =
  let t = gbdt () in
  List.iter
    (fun line ->
      match parse_line line with
      | Sample { group; features; latency_us } -> add t ~group ~features ~latency_us
      | Ensemble m -> t.model <- Some m
      | Blank -> ())
    lines;
  (* A stored ensemble counts as the fit of the stored samples. *)
  if t.model <> None then t.fitted <- t.n;
  t

let load s =
  match String.split_on_char '\n' s with
  | first :: rest when String.equal first header -> of_lines rest
  | first :: _ -> parse_fail "model: bad header %S" first
  | [] -> parse_fail "model: empty input"

let stats t =
  { samples = t.n; groups = t.n_groups; trained = t.model <> None }

(* --- specs: how a config names a model ---------------------------------- *)

(** How a tuning config (or a WAL meta record) names its model: a fresh
    GBDT, or a warm start from a serialized snapshot. [Warm] carries the
    full snapshot text — embedding it (rather than a file path) in the
    session WAL is what makes kill+resume bit-identical even while the
    live store file keeps absorbing other runs. *)
type spec = Gbdt | Warm of string

let of_spec = function Gbdt -> gbdt () | Warm text -> load text
let spec_to_string = function Gbdt -> "gbdt" | Warm text -> "warm:" ^ text

let spec_of_string s =
  if String.equal s "gbdt" then Gbdt
  else if String.length s >= 5 && String.equal (String.sub s 0 5) "warm:" then
    Warm (String.sub s 5 (String.length s - 5))
  else parse_fail "model: unknown spec %S" s

(* --- the persisted store ------------------------------------------------ *)

module Store = struct
  let m_torn = Tir_obs.Metrics.counter "db.torn_dropped"

  (* The lines after the header, and whether the file ended cleanly.
     [None] when there is no file or its header is not this format's. A
     torn final line (crash mid-append) is dropped unparsed. *)
  let read path =
    if not (Sys.file_exists path) then None
    else
      let lines, torn = Tir_core.File.read_lines path in
      if torn <> None then Tir_obs.Metrics.incr m_torn;
      match lines with
      | first :: rest when String.equal first header -> Some (rest, torn = None)
      | _ -> None

  (* The file holds samples only; the one fit of a load happens here. A
     store that does not parse degrades to a cold start. *)
  let load path =
    match read path with
    | None -> None
    | Some (lines, _) -> (
        match of_lines lines with
        | m ->
            retrain m;
            Some m
        | exception Parse_error _ -> None)

  (* Atomic publish: a crashed or failed writer never leaves a torn
     store. *)
  let save ~path model =
    Tir_core.File.write_atomic path (fun oc -> output_string oc (save model))

  type handle = {
    path : string;
    merged : t;  (** the stored samples, then each one [add] kept *)
    text : Buffer.t;  (** [save merged], kept line by line *)
    seen : (string, unit) Hashtbl.t;  (** sample lines read or offered *)
    stored : bool;  (** the file existed and parsed *)
    mutable synced : bool;  (** the file holds exactly [text] *)
  }

  let empty path =
    let text = Buffer.create 4096 in
    Buffer.add_string text (header ^ "\n");
    {
      path;
      merged = gbdt ();
      text;
      seen = Hashtbl.create 256;
      stored = false;
      synced = false;
    }

  (* Offer a sample under its line: kept unless the group is at its cap;
     a kept sample's line joins [text]. *)
  let keep h ~group ~features ~latency_us line =
    Hashtbl.replace h.seen line ();
    accept h.merged ~group ~features ~latency_us
    && begin
         Buffer.add_string h.text line;
         Buffer.add_char h.text '\n';
         true
       end

  (* One parse. The file is in sync, so [add] may append to it, when it
     ended cleanly and every line is a sample that [accept] kept, spelled
     as [sample_line] spells it: exactly what [save] of the merge
     writes. Anything else (an ensemble, a blank line, another spelling
     of a float, a sample over the group cap) is rewritten once. *)
  let open_ path =
    match read path with
    | None -> empty path
    | Some (lines, clean) -> (
        let h = { (empty path) with stored = true } in
        match
          List.fold_left
            (fun synced line ->
              match parse_line line with
              | Sample { group; features; latency_us } ->
                  let key = sample_line ~group ~features ~latency_us in
                  keep h ~group ~features ~latency_us key
                  && synced && String.equal key line
              | Ensemble _ | Blank -> false)
            clean lines
        with
        | synced -> { h with synced }
        | exception Parse_error _ -> empty path)

  let fit h =
    if not h.stored then None
    else begin
      let m = gbdt () in
      iter_samples h.merged (fun ~group ~features ~latency_us ->
          add m ~group ~features ~latency_us);
      retrain m;
      Some m
    end

  let add h model =
    (* A warm-started run's model carries the store's own samples; exact
       dedup keeps re-absorbing them from doubling the store. *)
    let held = Buffer.length h.text in
    iter_samples model (fun ~group ~features ~latency_us ->
        let line = sample_line ~group ~features ~latency_us in
        if not (Hashtbl.mem h.seen line) then
          ignore (keep h ~group ~features ~latency_us line));
    (* Append only to the file this handle left, at the length it left it
       (the file may have changed since). A failed append may leave a
       torn line: until a write succeeds, the next one rewrites the file
       whole. *)
    let synced = h.synced in
    h.synced <- false;
    if
      not
        (synced
        && Tir_core.File.append h.path ~size:held (fun oc ->
               output_string oc (Buffer.sub h.text held (Buffer.length h.text - held))))
    then Tir_core.File.write_atomic h.path (fun oc -> Buffer.output_buffer oc h.text);
    h.synced <- true

  let absorb ~path model =
    let h = open_ path in
    add h model;
    h.merged
end

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

let add t ~group ~features ~latency_us =
  let g = group_id t group in
  if t.group_count.(g) < group_cap then begin
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
    if latency_us < t.group_best.(g) then t.group_best.(g) <- latency_us
  end

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

(* A model without an ensemble (a store merge, or a search that never
   scored after measuring) saves its samples only. *)
let save t =
  if t.model <> None then refresh t;
  let b = Buffer.create 4096 in
  Buffer.add_string b (header ^ "\n");
  for i = 0 to t.n - 1 do
    Printf.bprintf b "sample|%s|%h|" (esc t.group_names.(t.grps.(i))) t.lats.(i);
    Array.iteri
      (fun j x ->
        if j > 0 then Buffer.add_char b ',';
        Printf.bprintf b "%h" x)
      t.feats.(i);
    Buffer.add_char b '\n'
  done;
  (match t.model with
  | None -> ()
  | Some m -> Printf.bprintf b "gbdt|%s\n" (esc (Gbdt.to_string m)));
  Buffer.contents b

let float_field what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> parse_fail "model: bad %s %S" what s

let load s =
  let t = gbdt () in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | first :: _ when String.equal first header -> ()
  | first :: _ -> parse_fail "model: bad header %S" first
  | [] -> parse_fail "model: empty input");
  List.iteri
    (fun i line ->
      if i > 0 && line <> "" then
        match String.split_on_char '|' line with
        | [ "sample"; group; lat; feats ] ->
            let features =
              Array.of_list
                (List.map (float_field "feature")
                   (String.split_on_char ',' feats))
            in
            add t ~group:(unesc group) ~features
              ~latency_us:(float_field "latency" lat)
        | [ "gbdt"; text ] -> (
            match Gbdt.of_string (unesc text) with
            | m -> t.model <- Some m
            | exception Gbdt.Parse_error e -> parse_fail "model: %s" e)
        | _ -> parse_fail "model: bad line %S" line)
    lines;
  (* A stored ensemble counts as the fit of the stored samples. *)
  if t.model <> None then t.fitted <- t.n;
  t

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
  let parse path =
    if Sys.file_exists path then
      match load (Tir_core.File.read path) with
      | m -> Some m
      | exception Parse_error _ -> None
    else None

  (* The file holds samples only; the one fit of a load happens here. *)
  let load path =
    let m = parse path in
    Option.iter retrain m;
    m

  (* Atomic publish: a crashed or failed writer never leaves a torn
     store. *)
  let save ~path model =
    Tir_core.File.write_atomic path (fun oc -> output_string oc (save model))

  let absorb ~path model =
    (* A warm-started run's model carries the store's own samples; exact
       dedup keeps re-absorbing them from doubling the store. Identical
       programs measured in different runs produce bit-identical
       (group, features, latency) triples, so an exact key is enough. *)
    let seen = Hashtbl.create 256 in
    let key ~group ~features ~latency_us =
      let b = Buffer.create 128 in
      Buffer.add_string b group;
      Buffer.add_string b (Printf.sprintf "|%h" latency_us);
      Array.iter (fun f -> Buffer.add_string b (Printf.sprintf "|%h" f)) features;
      Buffer.contents b
    in
    (* The merge is untrained: [load] fits the samples it finds, and the
       ensemble is a function of the ordered samples alone. *)
    let merged = gbdt () in
    Option.iter
      (fun stored ->
        iter_samples stored (fun ~group ~features ~latency_us ->
            Hashtbl.replace seen (key ~group ~features ~latency_us) ();
            add merged ~group ~features ~latency_us))
      (parse path);
    iter_samples model (fun ~group ~features ~latency_us ->
        let k = key ~group ~features ~latency_us in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          add merged ~group ~features ~latency_us
        end);
    save ~path merged;
    merged
end

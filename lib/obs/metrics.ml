(** Process-wide metrics registry: named counters, gauges, and log-scale
    histograms.

    Write-side design: counters and histogram buckets are arrays of atomics
    indexed by [Domain.self () mod shards], so concurrent recorders (pool
    worker domains in the middle of a parallel region) touch disjoint cache
    lines in the common case and never contend on a lock. Reads aggregate
    across the shards.

    Determinism contract (extends the tuner's jobs-independence guarantee):
    counter and histogram values are integers, so aggregation is
    order-independent — a deterministic workload records bit-identical
    counters at [TIR_JOBS=1] and [TIR_JOBS=n]. Gauges are last-write-wins
    floats: deterministic only when written from sequential code (e.g. the
    search's reduce step); time-derived gauges (utilization) are exempt,
    like span durations. Callers that need deterministic byte counts round
    to integers before [Counter.add] — integer sums do not depend on which
    domain recorded which part. *)

let shard_count = 64 (* >= the pool's max job count *)

let shard_index () = (Domain.self () :> int) land (shard_count - 1)

(* --- counters --- *)

type counter = { c_name : string; cells : int Atomic.t array }

(* --- gauges --- *)

type gauge = { g_name : string; value : float Atomic.t }

(* --- histograms --- *)

(** Fixed log-scale buckets: bucket [i] counts observations with
    [value <= le.(i)]; the last bucket is the +infinity overflow. *)
type histogram = {
  h_name : string;
  le : float array;  (** upper bounds, strictly increasing, no overflow *)
  buckets : int Atomic.t array array;  (** [shard].(bucket) *)
}

(** Default bucket bounds: powers of two from 1 to 2^39 (~5.5e11), enough
    for microsecond latencies and byte counts alike. *)
let default_buckets = Array.init 40 (fun i -> Float.of_int (1 lsl i))

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

(* --- registry --- *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  match f () with
  | v ->
      Mutex.unlock registry_lock;
      v
  | exception e ->
      Mutex.unlock registry_lock;
      raise e

exception Kind_mismatch of string

let register name make select =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match select m with
          | Some v -> v
          | None -> raise (Kind_mismatch name))
      | None ->
          let m, v = make () in
          Hashtbl.replace registry name m;
          v)

(** Find-or-create the counter [name]. Raises [Kind_mismatch] if the name
    is already registered as another kind. *)
let counter name =
  register name
    (fun () ->
      let c = { c_name = name; cells = Array.init shard_count (fun _ -> Atomic.make 0) } in
      (M_counter c, c))
    (function M_counter c -> Some c | _ -> None)

let add c n = ignore (Atomic.fetch_and_add c.cells.(shard_index ()) n)
let incr c = add c 1

let counter_value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

(** Find-or-create the gauge [name]. *)
let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; value = Atomic.make 0.0 } in
      (M_gauge g, g))
    (function M_gauge g -> Some g | _ -> None)

let set g v = Atomic.set g.value v
let gauge_value g = Atomic.get g.value

(** Find-or-create the histogram [name]. [buckets] gives the upper bounds
    of the fixed log-scale buckets (default: powers of two, 1 .. 2^39); an
    implicit +infinity overflow bucket is always present. The bound array
    is only consulted on first creation. *)
let histogram ?(buckets = default_buckets) name =
  register name
    (fun () ->
      let h =
        {
          h_name = name;
          le = buckets;
          buckets =
            Array.init shard_count (fun _ ->
                Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0));
        }
      in
      (M_histogram h, h))
    (function M_histogram h -> Some h | _ -> None)

let bucket_of h v =
  (* First bound >= v; the extra slot is the overflow bucket. *)
  let n = Array.length h.le in
  let rec go i = if i >= n then n else if v <= h.le.(i) then i else go (i + 1) in
  go 0

let observe h v = ignore (Atomic.fetch_and_add h.buckets.(shard_index ()).(bucket_of h v) 1)

(* --- snapshots --- *)

type hist_snapshot = {
  le : float array;  (** bucket upper bounds (no overflow entry) *)
  counts : int array;  (** per-bucket counts; last entry is the overflow *)
  total : int;
}

let hist_value (h : histogram) =
  let n = Array.length h.le + 1 in
  let counts = Array.make n 0 in
  Array.iter
    (fun shard -> Array.iteri (fun i c -> counts.(i) <- counts.(i) + Atomic.get c) shard)
    h.buckets;
  { le = h.le; counts; total = Array.fold_left ( + ) 0 counts }

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

(** Aggregate every registered metric. Safe to call at any time; values
    are per-metric consistent (each metric is summed atomically enough for
    reporting, not as one cross-metric transaction). *)
let snapshot () =
  let metrics = locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun m ->
      match m with
      | M_counter c -> counters := (c.c_name, counter_value c) :: !counters
      | M_gauge g -> gauges := (g.g_name, gauge_value g) :: !gauges
      | M_histogram h -> hists := (h.h_name, hist_value h) :: !hists)
    metrics;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !hists;
  }

let find_counter s name = List.assoc_opt name s.counters
let find_gauge s name = List.assoc_opt name s.gauges

(** Zero every registered metric (tests, fresh-run comparisons). Metrics
    stay registered — handles held by instrumented code remain valid. *)
let reset () =
  let metrics = locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  List.iter
    (fun m ->
      match m with
      | M_counter c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
      | M_gauge g -> Atomic.set g.value 0.0
      | M_histogram h ->
          Array.iter (fun shard -> Array.iter (fun cell -> Atomic.set cell 0) shard) h.buckets)
    metrics

(* --- scrape-able JSON rendering --- *)

(** Render a snapshot as one JSON object (counters/gauges/histograms maps,
    sorted by name; non-finite gauge values become [null]) — the payload
    behind every scrape endpoint ([tensorir serve --metrics-out]). *)
let snapshot_json (s : snapshot) =
  let b = Buffer.create 4096 in
  let map name render items =
    Buffer.add_string b (Printf.sprintf "\"%s\":{" name);
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" (Json_min.escape k) (render v)))
      items;
    Buffer.add_char b '}'
  in
  Buffer.add_char b '{';
  map "counters" string_of_int s.counters;
  Buffer.add_char b ',';
  map "gauges" Json_min.number s.gauges;
  Buffer.add_char b ',';
  map "histograms"
    (fun (h : hist_snapshot) ->
      let arr render xs =
        "[" ^ String.concat "," (List.map render (Array.to_list xs)) ^ "]"
      in
      Printf.sprintf "{\"le\":%s,\"counts\":%s,\"total\":%d}"
        (arr Json_min.number h.le) (arr string_of_int h.counts) h.total)
    s.histograms;
  Buffer.add_char b '}';
  Buffer.contents b

(** Inverse of {!snapshot_json}; a [null] gauge reads back as NaN. *)
let snapshot_of_json text =
  let module J = Json_min in
  let top = J.obj "metrics" (J.parse text) in
  let map name read =
    List.map
      (fun (k, v) -> (k, read (name ^ "." ^ k) v))
      (J.obj name (J.field "metrics" top name))
  in
  let array read what v = Array.of_list (List.map (read what) (J.arr what v)) in
  {
    counters = map "counters" J.int_;
    gauges =
      map "gauges" (fun what -> function J.Null -> Float.nan | v -> J.num what v);
    histograms =
      map "histograms" (fun what v ->
          let h = J.obj what v in
          {
            le = array J.num what (J.field what h "le");
            counts = array J.int_ what (J.field what h "counts");
            total = J.int_ what (J.field what h "total");
          });
  }

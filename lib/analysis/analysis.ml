(** Facade over the three semantic analyses.

    [check_func] runs the data-race detector, the region-soundness
    checker, and the bounds prover, returning deduplicated diagnostics in
    a stable order (errors first, then by block/buffer/message). Counters
    go through the [Tir_obs] registry; they are pure per-call counts
    (recorded on cache hits too), so totals stay bit-identical at any
    [TIR_JOBS] and identical with the cache on or off.

    Results are memoized per structural fingerprint
    ({!Tir_ir.Fingerprint.func}): the search evaluates many schedules that
    lower to structurally identical functions, and analysis is pure, so a
    fingerprint hit can return the cached diagnostics. The cache is on by
    default; tests call [set_cache_enabled false] for their uncached
    reference runs. *)

open Tir_ir
module Metrics = Tir_obs.Metrics
module Memo = Tir_parallel.Memo

let m_checked = Metrics.counter "analysis.checked"

(* [analysis.flagged] counts functions with at least one error-severity
   diagnostic — the candidates the search actually rejects as unsound.
   It used to count any function with a non-empty diagnostic list, which
   made it read ~99% of checked: nearly every scheduled candidate picks
   up warning-level race notes. Warning-only functions are now counted
   separately in [analysis.warned], and the raw diagnostic volume in
   [analysis.diagnostics]. *)
let m_flagged = Metrics.counter "analysis.flagged"
let m_warned = Metrics.counter "analysis.warned"
let m_diagnostics = Metrics.counter "analysis.diagnostics"
let m_race = Metrics.counter "analysis.race"
let m_region = Metrics.counter "analysis.region"
let m_bounds = Metrics.counter "analysis.bounds"

let count_kind ds kind =
  List.length (List.filter (fun (d : Diagnostic.t) -> d.kind = kind) ds)

(* Fingerprint-keyed diagnostic caches. [race_memo] holds the race
   detector's output alone (the part [certify] needs); [full_memo] holds
   the merged, deduplicated output of all three analyses. *)
let race_memo : Diagnostic.t list Memo.t = Memo.create ~name:"analysis.race" ()
let full_memo : Diagnostic.t list Memo.t = Memo.create ~name:"analysis.full" ()

let cache_flag = ref true

let cache_enabled () = !cache_flag
let set_cache_enabled b = cache_flag := b

let clear_cache () =
  Memo.clear race_memo;
  Memo.clear full_memo

let key f = Fingerprint.to_hex (Fingerprint.func f)

let race_diags (f : Primfunc.t) =
  if !cache_flag then
    snd (Memo.find_or_add race_memo (key f) (fun () -> Race.check f))
  else Race.check f

let check_func (f : Primfunc.t) : Diagnostic.t list =
  Metrics.incr m_checked;
  let compute () =
    let ds = race_diags f @ Region_check.check f @ Bounds_check.check f in
    List.sort_uniq Diagnostic.compare ds
  in
  let ds =
    if !cache_flag then snd (Memo.find_or_add full_memo (key f) compute)
    else compute ()
  in
  Metrics.add m_race (count_kind ds Diagnostic.Race);
  Metrics.add m_region (count_kind ds Diagnostic.Region_unsound);
  Metrics.add m_bounds (count_kind ds Diagnostic.Out_of_bounds);
  Metrics.add m_diagnostics (List.length ds);
  if List.exists Diagnostic.is_error ds then Metrics.incr m_flagged
  else if ds <> [] then Metrics.incr m_warned;
  ds

let errors f = List.filter Diagnostic.is_error (check_func f)

(** No findings at all, warnings included. *)
let is_clean f = check_func f = []

(** Race-only legality certificate for the current parallel structure of
    [f]: a proven race is an [Illegal] certificate (the function as
    scheduled cannot be sound), warnings leave it [Unknown], and a clean
    race report certifies the parallel loops [Legal]. Served from
    [race_memo], so the search's static pre-filter costs one race check
    per distinct structure. *)
let certify (f : Primfunc.t) : Legality.verdict =
  let ds = race_diags f in
  match List.find_opt Diagnostic.is_error ds with
  | Some d -> Legality.Illegal d
  | None -> if ds = [] then Legality.Legal else Legality.Unknown

(** [check_func] under an [analysis.lint] trace span — the entry point
    for the CLI and other interactive callers; the hot search path calls
    [errors] directly to keep the trace lean. *)
let lint f = Tir_obs.Trace.with_span "analysis.lint" (fun () -> check_func f)

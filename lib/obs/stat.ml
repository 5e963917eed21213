(** Small statistics helpers for the observability layer.

    The search reports cost-model quality (the [costmodel.rank_corr]
    gauge, and per generation on the [gen.commit] trace instant) as the
    Spearman rank correlation between predicted scores and measured
    latencies — rank-based because the cost model is only ever used to
    *rank* candidates (scores are normalized throughput, not absolute
    time), so rank agreement is the right notion of model error. *)

(* Average ranks (1-based); ties share the mean of their positions, the
   standard treatment so exchangeable ties do not bias the correlation. *)
let ranks (xs : float array) =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare xs.(i) xs.(j)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && Float.equal xs.(idx.(!j + 1)) xs.(idx.(!i)) do
      incr j
    done;
    let avg = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let pearson (xs : float array) (ys : float array) =
  let n = Array.length xs in
  let fn = float_of_int n in
  let mean a = Array.fold_left ( +. ) 0.0 a /. fn in
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. sqrt (!sxx *. !syy)

(** Spearman rank correlation of [(x, y)] pairs, in [-1, 1]. Degenerate
    inputs (fewer than two points, or zero variance on either side —
    including pairs polluted by non-finite values) return 0.0 so the gauge
    stays finite and JSON-safe. *)
let spearman (pairs : (float * float) array) =
  let pairs =
    Array.of_seq
      (Seq.filter
         (fun (x, y) -> Float.is_finite x && Float.is_finite y)
         (Array.to_seq pairs))
  in
  if Array.length pairs < 2 then 0.0
  else
    let xs = Array.map fst pairs and ys = Array.map snd pairs in
    pearson (ranks xs) (ranks ys)

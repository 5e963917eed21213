(** Gradient-boosted regression trees, from scratch: the stand-in for the
    paper's XGBoost cost model (§4.4). Depth-limited trees under either a
    squared loss ([fit]) or a LambdaRank-style pairwise rank loss
    ([fit_rank]), grown by the presorted exact greedy split finder: each
    feature is sorted once per fit, and every threshold between adjacent
    distinct values is tried. *)

type tree

type t = { trees : tree list; eta : float; base : float }

val predict : t -> float array -> float

(** Predict a whole population in one pass over the ensemble; identical
    values to mapping [predict] over the rows. *)
val predict_batch : t -> float array array -> float array

(** Fit [rounds] boosting rounds of depth-[depth] trees on (features,
    target) pairs — least-squares regression on the raw labels. *)
val fit : ?rounds:int -> ?depth:int -> ?eta:float -> float array array -> float array -> t

(** Fit a pairwise ranking ensemble: labels are compared only within a
    group ([groups.(i)] is sample [i]'s group id), each round pushes
    logistic pairwise gradients weighted by the label gap, and the next
    tree fits those pseudo-residuals. Absolute outputs are meaningless
    (base 0) — only the induced order matters. Deterministic: sample
    order and group ids fully determine the ensemble. *)
val fit_rank :
  ?rounds:int ->
  ?depth:int ->
  ?eta:float ->
  float array array ->
  float array ->
  groups:int array ->
  t

exception Parse_error of string

(** Versioned text form of an ensemble ([%h] floats): save -> load ->
    save is bit-identical. *)
val to_string : t -> string

(** Inverse of [to_string]; raises {!Parse_error} on malformed input. *)
val of_string : string -> t

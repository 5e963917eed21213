(** Gradient-boosted regression trees, from scratch.

    Stand-in for the XGBoost model the paper uses (§4.4): gradient
    boosting over depth-limited regression trees, with two objectives —
    squared-loss regression ([fit]) and a LambdaRank-style pairwise rank
    loss ([fit_rank]). Trees are grown by the presorted exact greedy
    split finder of XGBoost (Chen & Guestrin, KDD 2016): every threshold
    between adjacent distinct feature values is tried, and each feature
    is sorted once per fit rather than once per node. *)

type tree = Leaf of float | Node of { feat : int; thresh : float; left : tree; right : tree }

type t = {
  trees : tree list;  (** applied in order, scaled by [eta] *)
  eta : float;
  base : float;
}

let rec predict_tree tree (x : float array) =
  match tree with
  | Leaf v -> v
  | Node { feat; thresh; left; right } ->
      if x.(feat) <= thresh then predict_tree left x else predict_tree right x

let predict model x =
  List.fold_left
    (fun acc tree -> acc +. (model.eta *. predict_tree tree x))
    model.base model.trees

(** Predict a whole population in one pass over the ensemble: the tree list
    is walked once (outer loop) with an accumulator per candidate, instead
    of one list walk per candidate. Identical results to mapping [predict]
    (same per-candidate summation order). *)
let predict_batch model (xs : float array array) : float array =
  let out = Array.make (Array.length xs) model.base in
  List.iter
    (fun tree ->
      Array.iteri (fun i x -> out.(i) <- out.(i) +. (model.eta *. predict_tree tree x)) xs)
    model.trees;
  out

(* --- the presorted exact greedy trainer ----------------------------------

   Each feature's sample indices are sorted once per fit, stably, so ties
   stay in index order. A node owns the slice [lo, hi) of every order;
   splitting it partitions each slice stably, so both children stay
   sorted without another sort. One more order lists the node's indices
   ascending: node sums and leaf means are taken in that order. Every
   sum, gain and first-best tie-break is thus a function of the ordered
   samples alone. *)

type trainer = {
  cols : float array array;  (** feature -> sample -> value *)
  sorted : int array array;  (** per-feature orders of the root, then [0..n-1] *)
  order : int array array;  (** working copy, partitioned as the tree grows *)
  goes_left : bool array;  (** per sample: side of the current split *)
  scratch : int array;  (** right-hand half during a partition *)
}

let trainer (xs : float array array) =
  let n = Array.length xs in
  let nfeat = Array.length xs.(0) in
  let cols = Array.init nfeat (fun f -> Array.init n (fun i -> xs.(i).(f))) in
  let sorted =
    Array.init (nfeat + 1) (fun f ->
        let ord = Array.init n Fun.id in
        if f < nfeat then
          Array.stable_sort (fun a b -> Float.compare cols.(f).(a) cols.(f).(b)) ord;
        ord)
  in
  {
    cols;
    sorted;
    order = Array.map Array.copy sorted;
    goes_left = Array.make n false;
    scratch = Array.make n 0;
  }

let by_index t = t.order.(Array.length t.cols)

let slice_sum t (residual : float array) lo hi =
  let ord = by_index t in
  let sum = ref 0.0 in
  for p = lo to hi - 1 do
    sum := !sum +. residual.(ord.(p))
  done;
  !sum

let slice_mean t residual lo hi =
  if hi = lo then 0.0 else slice_sum t residual lo hi /. float_of_int (hi - lo)

(* Best split of the node [lo, hi) on squared error; returns
   (feat, thresh, gain). Candidate thresholds are midpoints between
   adjacent distinct values; the first best wins. *)
let best_split t (residual : float array) lo hi =
  let n = hi - lo in
  if n < 4 then None
  else begin
    let total = slice_sum t residual lo hi in
    let best = ref None in
    Array.iteri
      (fun f col ->
        let ord = t.order.(f) in
        let left_sum = ref 0.0 in
        for p = lo to hi - 2 do
          let i = ord.(p) and j = ord.(p + 1) in
          left_sum := !left_sum +. residual.(i);
          if col.(i) < col.(j) then begin
            let left_n = p - lo + 1 in
            let right_sum = total -. !left_sum in
            let right_n = n - left_n in
            let gain =
              (!left_sum *. !left_sum /. float_of_int left_n)
              +. (right_sum *. right_sum /. float_of_int right_n)
              -. (total *. total /. float_of_int n)
            in
            let thresh = (col.(i) +. col.(j)) /. 2.0 in
            match !best with
            | Some (_, _, g) when g >= gain -> ()
            | _ -> best := Some (f, thresh, gain)
          end
        done)
      t.cols;
    !best
  end

(* Stable in-place partition of [ord]'s slice [lo, hi) by [goes_left]. *)
let partition t ord lo hi =
  let w = ref lo and r = ref 0 in
  for p = lo to hi - 1 do
    let i = ord.(p) in
    if t.goes_left.(i) then begin
      ord.(!w) <- i;
      incr w
    end
    else begin
      t.scratch.(!r) <- i;
      incr r
    end
  done;
  Array.blit t.scratch 0 ord !w !r

let rec grow t residual lo hi depth =
  let leaf () = Leaf (slice_mean t residual lo hi) in
  if depth = 0 then leaf ()
  else
    match best_split t residual lo hi with
    | None -> leaf ()
    | Some (feat, thresh, gain) ->
        if gain < 1e-9 then leaf ()
        else begin
          let col = t.cols.(feat) and ord = by_index t in
          let n_left = ref 0 in
          for p = lo to hi - 1 do
            let i = ord.(p) in
            let l = col.(i) <= thresh in
            t.goes_left.(i) <- l;
            if l then incr n_left
          done;
          if !n_left = 0 || !n_left = hi - lo then leaf ()
          else begin
            Array.iter (fun ord -> partition t ord lo hi) t.order;
            let mid = lo + !n_left in
            let left = grow t residual lo mid (depth - 1) in
            let right = grow t residual mid hi (depth - 1) in
            Node { feat; thresh; left; right }
          end
        end

(* Boosting loop shared by both objectives: [pseudo pred] returns the
   pseudo-residuals the next tree fits, given the current predictions. *)
let boost ~rounds ~depth ~eta ~base xs pseudo =
  let n = Array.length xs in
  let t = trainer xs in
  let pred = Array.make n base in
  let trees = ref [] in
  for _ = 1 to rounds do
    Array.iteri (fun f s -> Array.blit s 0 t.order.(f) 0 n) t.sorted;
    let tree = grow t (pseudo pred) 0 n depth in
    trees := tree :: !trees;
    Array.iteri (fun i _ -> pred.(i) <- pred.(i) +. (eta *. predict_tree tree xs.(i))) pred
  done;
  { trees = List.rev !trees; eta; base }

(** Fit [rounds] boosting rounds of depth-[depth] trees. *)
let fit ?(rounds = 40) ?(depth = 3) ?(eta = 0.3) (xs : float array array)
    (ys : float array) : t =
  let n = Array.length xs in
  if n = 0 then { trees = []; eta; base = 0.0 }
  else
    let base = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
    boost ~rounds ~depth ~eta ~base xs (fun pred ->
        Array.init n (fun i -> ys.(i) -. pred.(i)))

(** Fit a LambdaRank-style pairwise ranking ensemble.

    Labels are only compared {e within} a group ([groups.(i)] is the
    sample's group id — one group per tuning task), so mixing workloads
    with incomparable latency scales in one dataset is sound: the loss
    never asks whether a c1d candidate beats a gmm candidate. Each round
    computes, per ordered pair [(hi, lo)] with [ys.(hi) > ys.(lo)] in the
    same group, the logistic pairwise gradient
    [rho = 1 / (1 + exp (s_hi - s_lo))] weighted by the label gap, pushes
    [+w*rho] on the winner and [-w*rho] on the loser, and fits the next
    tree to those pseudo-residuals. The model's absolute output is
    meaningless (base is 0); only the induced order matters, which is all
    the search consumes. Sequential and deterministic: sample order and
    group ids fully determine the ensemble. *)
let fit_rank ?(rounds = 40) ?(depth = 3) ?(eta = 0.3)
    (xs : float array array) (ys : float array) ~(groups : int array) : t =
  let n = Array.length xs in
  (* Pairs are enumerated once into flat arrays — winner, loser, label
     gap — and walked last-enumerated-first each round. *)
  let each_pair f =
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if groups.(i) = groups.(j) && ys.(i) <> ys.(j) then f i j
      done
    done
  in
  let n_pairs = ref 0 in
  each_pair (fun _ _ -> incr n_pairs);
  if !n_pairs = 0 then { trees = []; eta; base = 0.0 }
  else begin
    let win = Array.make !n_pairs 0 and lose = Array.make !n_pairs 0 in
    let gap = Array.make !n_pairs 0.0 in
    let k = ref 0 in
    each_pair (fun i j ->
        let hi, lo = if ys.(i) > ys.(j) then (i, j) else (j, i) in
        win.(!k) <- hi;
        lose.(!k) <- lo;
        gap.(!k) <- ys.(hi) -. ys.(lo);
        incr k);
    let lambda = Array.make n 0.0 in
    boost ~rounds ~depth ~eta ~base:0.0 xs (fun pred ->
        Array.fill lambda 0 n 0.0;
        for k = !n_pairs - 1 downto 0 do
          let hi = win.(k) and lo = lose.(k) and w = gap.(k) in
          let rho = 1.0 /. (1.0 +. exp (pred.(hi) -. pred.(lo))) in
          lambda.(hi) <- lambda.(hi) +. (w *. rho);
          lambda.(lo) <- lambda.(lo) -. (w *. rho)
        done;
        lambda)
  end

(* --- serialization ------------------------------------------------------ *)

(* Trees serialize to a parenthesized pre-order form with [%h] floats, so
   save -> load -> save is bit-identical:
     (l <value>) | (n <feat> <thresh> <left> <right>) *)

let rec tree_to_buf b = function
  | Leaf v -> Printf.bprintf b "(l %h)" v
  | Node { feat; thresh; left; right } ->
      Printf.bprintf b "(n %d %h " feat thresh;
      tree_to_buf b left;
      Buffer.add_char b ' ';
      tree_to_buf b right;
      Buffer.add_char b ')'

let to_string m =
  let b = Buffer.create 1024 in
  Printf.bprintf b "eta %h base %h trees %d\n" m.eta m.base (List.length m.trees);
  List.iter
    (fun t ->
      tree_to_buf b t;
      Buffer.add_char b '\n')
    m.trees;
  Buffer.contents b

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Recursive-descent over the parenthesized form; tokens are separated by
   single spaces exactly as [tree_to_buf] writes them. *)
let tree_of_string line =
  let len = String.length line in
  let pos = ref 0 in
  let expect c =
    if !pos >= len || line.[!pos] <> c then
      parse_fail "gbdt tree: expected %c at %d in %S" c !pos line;
    incr pos
  in
  let token () =
    let start = !pos in
    while !pos < len && line.[!pos] <> ' ' && line.[!pos] <> ')' do
      incr pos
    done;
    if !pos = start then parse_fail "gbdt tree: empty token at %d in %S" start line;
    String.sub line start (!pos - start)
  in
  let float_tok () =
    let s = token () in
    match float_of_string_opt s with
    | Some f -> f
    | None -> parse_fail "gbdt tree: bad float %S" s
  in
  let int_tok () =
    let s = token () in
    match int_of_string_opt s with
    | Some i -> i
    | None -> parse_fail "gbdt tree: bad int %S" s
  in
  let rec node () =
    expect '(';
    let t =
      match token () with
      | "l" ->
          expect ' ';
          Leaf (float_tok ())
      | "n" ->
          expect ' ';
          let feat = int_tok () in
          expect ' ';
          let thresh = float_tok () in
          expect ' ';
          let left = node () in
          expect ' ';
          let right = node () in
          Node { feat; thresh; left; right }
      | tok -> parse_fail "gbdt tree: unknown tag %S" tok
    in
    expect ')';
    t
  in
  let t = node () in
  if !pos <> len then parse_fail "gbdt tree: trailing garbage in %S" line;
  t

let of_string s =
  match String.split_on_char '\n' s with
  | [] -> parse_fail "gbdt: empty input"
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ "eta"; eta; "base"; base; "trees"; count ] ->
          let eta =
            match float_of_string_opt eta with
            | Some f -> f
            | None -> parse_fail "gbdt: bad eta %S" eta
          in
          let base =
            match float_of_string_opt base with
            | Some f -> f
            | None -> parse_fail "gbdt: bad base %S" base
          in
          let count =
            match int_of_string_opt count with
            | Some i -> i
            | None -> parse_fail "gbdt: bad tree count %S" count
          in
          let lines = List.filter (fun l -> l <> "") rest in
          if List.length lines <> count then
            parse_fail "gbdt: expected %d trees, got %d" count
              (List.length lines);
          { trees = List.map tree_of_string lines; eta; base }
      | _ -> parse_fail "gbdt: bad header %S" header)

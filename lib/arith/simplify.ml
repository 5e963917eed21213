(** Rewriting simplifier for index expressions.

    Integer expressions are canonicalized into a linear form
    [c0 + c1*a1 + ... + cn*an] over non-affine atoms [ai]; floordiv/floormod
    by positive constants are resolved with range information from
    [Tir_ir.Bound]. The simplifier is what keeps schedule-generated
    arithmetic (split/fuse/blockize compositions) in a shape the iterator
    mapping detector and the validators can recognize.

    The result is defined bottom-up: simplify the children, rebuild the
    node with [Expr]'s folding constructors, then canonicalize it. Computed
    that way literally, every [+], [-] and [*] of a sum re-linearizes the
    whole sum below it, and it runs under every schedule primitive. So
    [lin] linearizes each maximal integer sum once, in the same merge
    order, and only its non-additive atoms take the per-node path; the
    output is the same, because [to_linear (of_linear l) = l] for every
    linear form the simplifier builds. *)

open Tir_ir

type ctx = { ranges : Bound.interval Var.Map.t }

let empty_ctx = { ranges = Var.Map.empty }

let with_range ctx v interval = { ranges = Var.Map.add v interval ctx.ranges }

let with_extent ctx v extent = with_range ctx v (Bound.of_extent extent)

let bound ctx e = Bound.of_expr_map ctx.ranges e

(* Linear form: constant + sum of atom*coeff, atoms kept sorted for a
   canonical ordering. An atom is any integer expression that is not itself
   an addition, subtraction, or multiplication by a constant. *)
type linear = { const : int; terms : (Expr.t * int) list }

(* The canonical term order. Two variables compare by id. A variable
   compares with any other atom as the string [var_text]; two other atoms
   compare by their printed form ([Expr.to_string]), and atoms printed
   alike merge into the first term.

   For ids below 10^7, and atoms whose printed form does not start with
   "v0" and a digit, this equals sorting on the string keys "v%08d" (a
   variable's id) and the printed form (anything else), the order every
   stored result was produced under; test_arith checks the two agree. It
   never reads an id's digits, so it does not depend on how many
   variables the process has created. Printing an atom costs about a
   microsecond, and the simplifier runs under every schedule primitive,
   the validator, the analyzers and the machine model, so [to_linear]
   prints each non-variable atom once per call and variables never. *)
type key = Id of int | Printed of string

let var_text = "v00000000"

let key_of (e : Expr.t) =
  match e with Expr.Var v -> Id v.Var.id | _ -> Printed (Expr.to_string e)

let compare_key a b =
  match (a, b) with
  | Id x, Id y -> Int.compare x y
  | Id _, Printed s -> String.compare var_text s
  | Printed s, Id _ -> String.compare s var_text
  | Printed s, Printed t -> String.compare s t

(* Terms carrying their keys, sorted, keys distinct. *)
let rec merge xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | ((kx, ax, cx) as x) :: xs', ((ky, _, cy) as y) :: ys' ->
      let o = compare_key kx ky in
      if o = 0 then
        if cx + cy = 0 then merge xs' ys' else (kx, ax, cx + cy) :: merge xs' ys'
      else if o < 0 then x :: merge xs' ys
      else y :: merge xs ys'

let scale k (c, terms) =
  if k = 0 then (0, []) else (c * k, List.map (fun (key, a, t) -> (key, a, t * k)) terms)

let rec keyed (e : Expr.t) =
  match e with
  | Expr.Int i -> (i, [])
  | Expr.Bin (Expr.Add, a, b) -> add (keyed a) (keyed b)
  | Expr.Bin (Expr.Sub, a, b) -> add (keyed a) (scale (-1) (keyed b))
  | Expr.Bin (Expr.Mul, a, Expr.Int k) | Expr.Bin (Expr.Mul, Expr.Int k, a) ->
      scale k (keyed a)
  | _ -> (0, [ (key_of e, e, 1) ])

and add (c1, t1) (c2, t2) = (c1 + c2, merge t1 t2)

let strip (const, terms) = { const; terms = List.map (fun (_, a, c) -> (a, c)) terms }

let to_linear e = strip (keyed e)

let of_linear l =
  let term (atom, c) =
    if c = 1 then atom else Expr.mul atom (Expr.Int c)
  in
  match l.terms with
  | [] -> Expr.Int l.const
  | (a0, c0) :: rest ->
      let body =
        List.fold_left
          (fun acc (at, c) ->
            if c < 0 then Expr.sub acc (term (at, -c)) else Expr.add acc (term (at, c)))
          (if c0 < 0 then Expr.sub (Expr.Int 0) (term (a0, -c0)) else term (a0, c0))
          rest
      in
      if l.const = 0 then body
      else if l.const < 0 then Expr.sub body (Expr.Int (-l.const))
      else Expr.add body (Expr.Int l.const)

(* Split a linear form into the part whose coefficients are divisible by k
   and the remainder part. *)
let split_divisible k l =
  let div_terms, rem_terms = List.partition (fun (_, c) -> c mod k = 0) l.terms in
  let qconst = Expr.floordiv l.const k in
  let rconst = l.const - (qconst * k) in
  ( { const = qconst; terms = List.map (fun (a, c) -> (a, c / k)) div_terms },
    { const = rconst; terms = rem_terms } )

let is_int e = Dtype.equal (Expr.dtype e) Dtype.Int

(* An atom of an integer sum simplified to a non-integer: only a
   [select] whose branches have two types does that. *)
exception Not_int

let rec simplify ctx (e : Expr.t) : Expr.t =
  match e with
  | Expr.Bin ((Expr.Add | Expr.Sub | Expr.Mul), _, _) when is_int e -> (
      match lin ctx e with
      | l -> of_linear (strip l)
      | exception Not_int -> simplify_node ctx e)
  | _ -> simplify_node ctx e

(* The per-node path: simplify the children, rebuild, canonicalize. *)
and simplify_node ctx e =
  let e = Expr.map_children (simplify ctx) e in
  match e with
  | Expr.Bin (op, _, _) when is_int e -> simplify_int ctx op e
  | Expr.Cmp (op, a, b) -> simplify_cmp ctx op a b
  | Expr.Select (Expr.Bool true, t, _) -> t
  | Expr.Select (Expr.Bool false, _, f) -> f
  | _ -> e

(* [keyed (simplify ctx e)] for an integer [e], with each [+], [-] and [*]
   of the sum visited once. Where [Expr.bin] would fold the simplified
   operands (two constants, [+ 0], [- 0], [* 1], [* 0]), merging or
   scaling their forms gives the same terms, and a product of two
   non-constants is one atom, as [keyed] makes it. Every node of an
   integer sum is an integer, so the sum's type is checked once, at its
   root; the per-node path would see the same types while every atom
   simplifies to an integer, and raises [Not_int] when one does not. *)
and lin ctx (e : Expr.t) =
  match e with
  | Expr.Int i -> (i, [])
  | Expr.Var v -> (0, [ (Id v.Var.id, e, 1) ])
  | Expr.Bin (Expr.Add, a, b) -> add (lin ctx a) (lin ctx b)
  | Expr.Bin (Expr.Sub, a, b) -> add (lin ctx a) (scale (-1) (lin ctx b))
  | Expr.Bin (Expr.Mul, a, b) -> (
      let la = lin ctx a in
      let lb = lin ctx b in
      match (la, lb) with
      | _, (k, []) -> scale k la
      | (k, []), _ -> scale k lb
      | _ ->
          let atom = Expr.Bin (Expr.Mul, of_linear (strip la), of_linear (strip lb)) in
          (0, [ (key_of atom, atom, 1) ]))
  | _ ->
      let s = simplify ctx e in
      if is_int s then keyed s else raise_notrace Not_int

and simplify_int ctx op e =
  match (op, e) with
  | (Expr.Add | Expr.Sub | Expr.Mul), _ ->
      let l = to_linear e in
      of_linear l
  | Expr.Div, Expr.Bin (_, a, Expr.Int k) when k > 0 -> simplify_div ctx a k
  | Expr.Mod, Expr.Bin (_, a, Expr.Int k) when k > 0 -> simplify_mod ctx a k
  | (Expr.Min | Expr.Max), Expr.Bin (_, a, b) -> simplify_minmax ctx op a b
  | _ -> e

and simplify_div ctx a k =
  if k = 1 then a
  else
    let l = to_linear a in
    let q, r = split_divisible k l in
    (* floordiv(k*q + r, k) = q + floordiv(r, k); drop the second summand
       when the range of r fits in [0, k). *)
    let r_expr = of_linear r in
    match bound ctx r_expr with
    | Some { lo; hi } when lo >= 0 && hi < k -> of_linear q
    | _ ->
        if r.terms = [] && r.const = 0 then of_linear q
        else Expr.Bin (Expr.Div, a, Expr.Int k)

and simplify_mod ctx a k =
  if k = 1 then Expr.Int 0
  else
    let l = to_linear a in
    let _, r = split_divisible k l in
    let r_expr = of_linear r in
    match bound ctx r_expr with
    | Some { lo; hi } when lo >= 0 && hi < k -> r_expr
    | _ ->
        if r.terms = [] && r.const = 0 then Expr.Int 0
        else Expr.Bin (Expr.Mod, of_linear l, Expr.Int k)

and simplify_minmax ctx op a b =
  let diff = Expr.sub a b in
  match bound ctx (of_linear (to_linear diff)) with
  | Some { hi; _ } when hi <= 0 -> if op = Expr.Min then a else b
  | Some { lo; _ } when lo >= 0 -> if op = Expr.Min then b else a
  | _ -> Expr.Bin (op, a, b)

and simplify_cmp ctx op a b =
  if not (Dtype.equal (Expr.dtype a) Dtype.Int) then Expr.cmp op a b
  else
    let diff = of_linear (to_linear (Expr.sub a b)) in
    match (bound ctx diff, op) with
    | Some { lo; hi }, _ when lo = hi -> Expr.Bool (Expr.eval_cmp_int op lo 0)
    | Some { hi; _ }, Expr.Lt when hi < 0 -> Expr.Bool true
    | Some { lo; _ }, Expr.Lt when lo >= 0 -> Expr.Bool false
    | Some { hi; _ }, Expr.Le when hi <= 0 -> Expr.Bool true
    | Some { lo; _ }, Expr.Le when lo > 0 -> Expr.Bool false
    | Some { lo; _ }, Expr.Gt when lo > 0 -> Expr.Bool true
    | Some { hi; _ }, Expr.Gt when hi <= 0 -> Expr.Bool false
    | Some { lo; _ }, Expr.Ge when lo >= 0 -> Expr.Bool true
    | Some { hi; _ }, Expr.Ge when hi < 0 -> Expr.Bool false
    | Some { lo; hi }, Expr.Eq when lo > 0 || hi < 0 -> Expr.Bool false
    | Some { lo; hi }, Expr.Ne when lo > 0 || hi < 0 -> Expr.Bool true
    | _ -> Expr.cmp op a b

(** [to_linear (simplify ctx e)], without building the simplified sum. *)
let simplify_linear ctx e =
  if is_int e then try strip (lin ctx e) with Not_int -> to_linear (simplify ctx e)
  else to_linear (simplify ctx e)

(** Prove that two integer expressions are equal under the given context. *)
let prove_equal ctx a b =
  match simplify ctx (Expr.cmp Expr.Eq a b) with
  | Expr.Bool r -> r
  | _ -> (
      (* Fall back to linear-form comparison. *)
      let d = to_linear (Expr.sub a b) in
      d.const = 0 && d.terms = [])

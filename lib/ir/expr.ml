(** Scalar expressions (TensorIR's PrimExpr).

    Smart constructors ([add], [mul], ...) perform local constant folding and
    unit-element elimination so that index arithmetic produced by schedule
    primitives stays small without a separate simplification pass; the full
    rewriting simplifier lives in [Tir_arith.Simplify]. *)

type binop = Add | Sub | Mul | Div | Mod | Min | Max
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Int of int
  | Float of float * Dtype.t
  | Bool of bool
  | Var of Var.t
  | Bin of binop * t * t
  | Cmp of cmpop * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Select of t * t * t  (** [Select (cond, then_, else_)] *)
  | Cast of Dtype.t * t
  | Load of Buffer.t * t list  (** buffer element read *)
  | Call of string * Dtype.t * t list  (** opaque intrinsic call *)
  | Ptr of Buffer.t * t list
      (** pointer to a buffer element, passed to low-level tensor intrinsics *)

let zero = Int 0
let one = Int 1

let fzero dt = Float (0.0, dt)

(* Integer division and modulo follow floor semantics (like TVM's floordiv /
   floormod): all loop extents are positive so this matches Euclidean
   division for the cases that arise. *)
let floordiv a b = if (a < 0) <> (b < 0) && a mod b <> 0 then (a / b) - 1 else a / b
let floormod a b = a - (floordiv a b * b)

let rec dtype = function
  | Int _ -> Dtype.Int
  | Float (_, dt) -> dt
  | Bool _ -> Dtype.Bool
  | Var v -> v.Var.dtype
  | Bin (_, a, b) -> (
      match dtype a with Dtype.Int -> dtype b | dt -> dt)
  | Cmp _ | And _ | Or _ | Not _ -> Dtype.Bool
  | Select (_, a, _) -> dtype a
  | Cast (dt, _) -> dt
  | Load (b, _) -> b.Buffer.dtype
  | Call (_, dt, _) -> dt
  | Ptr _ -> Dtype.Int

let eval_int_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> floordiv a b
  | Mod -> floormod a b
  | Min -> min a b
  | Max -> max a b

let eval_float_binop op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Mod -> Float.rem a b
  | Min -> Float.min a b
  | Max -> Float.max a b

let eval_cmp_int op a b =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let bin op a b =
  match (op, a, b) with
  | _, Int x, Int y -> Int (eval_int_binop op x y)
  | _, Float (x, dt), Float (y, _) -> Float (eval_float_binop op x y, dt)
  | Add, Int 0, e | Add, e, Int 0 -> e
  | Sub, e, Int 0 -> e
  | Mul, Int 1, e | Mul, e, Int 1 -> e
  | Mul, Int 0, _ | Mul, _, Int 0 -> Int 0
  | Div, e, Int 1 -> e
  | Mod, _, Int 1 -> Int 0
  | Add, Float (0.0, _), e | Add, e, Float (0.0, _) -> e
  | Mul, Float (1.0, _), e | Mul, e, Float (1.0, _) -> e
  | _ -> Bin (op, a, b)

let add a b = bin Add a b
let sub a b = bin Sub a b
let mul a b = bin Mul a b
let div a b = bin Div a b
let mod_ a b = bin Mod a b
let min_ a b = if a = b then a else bin Min a b
let max_ a b = if a = b then a else bin Max a b

let cmp op a b =
  match (a, b) with
  | Int x, Int y -> Bool (eval_cmp_int op x y)
  | _ -> Cmp (op, a, b)

let eq a b = cmp Eq a b
let lt a b = cmp Lt a b
let le a b = cmp Le a b
let ge a b = cmp Ge a b

let and_ a b =
  match (a, b) with
  | Bool true, e | e, Bool true -> e
  | Bool false, _ | _, Bool false -> Bool false
  | _ -> And (a, b)

let or_ a b =
  match (a, b) with
  | Bool false, e | e, Bool false -> e
  | Bool true, _ | _, Bool true -> Bool true
  | _ -> Or (a, b)

let not_ = function Bool b -> Bool (not b) | Not e -> e | e -> Not e

let cast dt e = if Dtype.equal (dtype e) dt then e else Cast (dt, e)
let var v = Var v
let int i = Int i
let float ?(dtype = Dtype.F32) f = Float (f, dtype)
let load buf indices = Load (buf, indices)

let select c t f =
  match c with Bool true -> t | Bool false -> f | _ -> Select (c, t, f)

(** Infix operators for index arithmetic. *)
module Infix = struct
  let ( +: ) = add
  let ( -: ) = sub
  let ( *: ) = mul
  let ( /: ) = div
  let ( %: ) = mod_
  let ( =: ) = eq
  let ( <: ) = lt
  let ( <=: ) = le
end

(** [map_children f e] rebuilds [e] with [f] applied to each direct
    sub-expression. *)
let map_children f e =
  match e with
  | Int _ | Float _ | Bool _ | Var _ -> e
  | Bin (op, a, b) -> bin op (f a) (f b)
  | Cmp (op, a, b) -> cmp op (f a) (f b)
  | And (a, b) -> and_ (f a) (f b)
  | Or (a, b) -> or_ (f a) (f b)
  | Not a -> not_ (f a)
  | Select (c, a, b) -> select (f c) (f a) (f b)
  | Cast (dt, a) -> cast dt (f a)
  | Load (buf, idx) -> Load (buf, List.map f idx)
  | Call (name, dt, args) -> Call (name, dt, List.map f args)
  | Ptr (buf, idx) -> Ptr (buf, List.map f idx)

(** Capture-free substitution of variables. *)
let rec subst lookup e =
  match e with
  | Var v -> ( match lookup v with Some e' -> e' | None -> e)
  | _ -> map_children (subst lookup) e

let subst_map map e = subst (fun v -> Var.Map.find_opt v map) e

(** Replace loads of one buffer by another (same indices); used by cache and
    layout primitives. *)
let rec replace_buffer ~from ~to_ e =
  let e = map_children (replace_buffer ~from ~to_) e in
  match e with
  | Load (b, idx) when Buffer.equal b from -> Load (to_, idx)
  | Ptr (b, idx) when Buffer.equal b from -> Ptr (to_, idx)
  | _ -> e

let rec iter f e =
  f e;
  match e with
  | Int _ | Float _ | Bool _ | Var _ -> ()
  | Bin (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      iter f a;
      iter f b
  | Not a | Cast (_, a) -> iter f a
  | Select (c, a, b) ->
      iter f c;
      iter f a;
      iter f b
  | Load (_, idx) | Call (_, _, idx) | Ptr (_, idx) -> List.iter (iter f) idx

let free_vars e =
  let acc = ref Var.Set.empty in
  iter (function Var v -> acc := Var.Set.add v !acc | _ -> ()) e;
  !acc

let loaded_buffers e =
  let acc = ref Buffer.Set.empty in
  iter
    (function
      | Load (b, _) | Ptr (b, _) -> acc := Buffer.Set.add b !acc | _ -> ())
    e;
  !acc

let uses_var v e = Var.Set.mem v (free_vars e)

let as_const_int = function Int i -> Some i | _ -> None

let is_const_int e c = match e with Int i -> i = c | _ -> false

(** Structural equality up to a variable correspondence supplied by [veq]
    (used by tensorize's pattern matching). *)
let rec equal_with veq a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float (x, dx), Float (y, dy) -> Float.equal x y && Dtype.equal dx dy
  | Bool x, Bool y -> x = y
  | Var x, Var y -> veq x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
      o1 = o2 && equal_with veq a1 a2 && equal_with veq b1 b2
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) ->
      o1 = o2 && equal_with veq a1 a2 && equal_with veq b1 b2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
      equal_with veq a1 a2 && equal_with veq b1 b2
  | Not a1, Not a2 -> equal_with veq a1 a2
  | Select (c1, a1, b1), Select (c2, a2, b2) ->
      equal_with veq c1 c2 && equal_with veq a1 a2 && equal_with veq b1 b2
  | Cast (d1, a1), Cast (d2, a2) -> Dtype.equal d1 d2 && equal_with veq a1 a2
  | Load (b1, i1), Load (b2, i2) | Ptr (b1, i1), Ptr (b2, i2) ->
      Buffer.equal b1 b2
      && List.length i1 = List.length i2
      && List.for_all2 (equal_with veq) i1 i2
  | Call (n1, d1, a1), Call (n2, d2, a2) ->
      String.equal n1 n2 && Dtype.equal d1 d2
      && List.length a1 = List.length a2
      && List.for_all2 (equal_with veq) a1 a2
  | _ -> false

(* Physical identity as the fast path: shared subtrees (rebuilds that keep
   untouched children) short-circuit. *)
let equal a b = a == b || equal_with Var.equal a b

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "//"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"

let cmpop_symbol = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* The one expression printer: precedence-aware, in the script dialect,
   written straight into a [Stdlib.Buffer] (here [Buffer] is the IR's
   tensor buffer). [Tir_arith.Simplify] sorts the terms of every linear
   form by this text, so it sits on the search's hot path; [pp] prints
   the same string. *)
let add_str = Stdlib.Buffer.add_string

let rec print out prec e =
  match e with
  | Int i -> add_str out (string_of_int i)
  | Float (f, dt) when Dtype.equal dt Dtype.F32 -> add_str out (Printf.sprintf "%g" f)
  | Float (f, dt) -> add_str out (Printf.sprintf "%s(%g)" (Dtype.to_string dt) f)
  | Bool b -> add_str out (string_of_bool b)
  | Var v -> add_str out v.Var.name
  | Bin ((Min | Max) as op, a, b) -> call out (binop_symbol op) "(" [ a; b ] ")"
  | Bin (op, a, b) ->
      let p = match op with Add | Sub -> 4 | _ -> 5 in
      infix out prec p a p (binop_symbol op) b (p + 1)
  | Cmp (op, a, b) -> infix out prec 3 a 4 (cmpop_symbol op) b 4
  | And (a, b) -> infix out prec 2 a 2 "and" b 3
  | Or (a, b) -> infix out prec 1 a 1 "or" b 2
  | Not a ->
      if prec > 6 then add_str out "(";
      add_str out "not ";
      print out 6 a;
      if prec > 6 then add_str out ")"
  | Select (c, a, b) -> call out "select" "(" [ c; a; b ] ")"
  | Cast (dt, a) -> call out (Dtype.to_string dt) "(" [ a ] ")"
  | Load (buf, idx) -> call out buf.Buffer.name "[" idx "]"
  | Call (name, _, args) -> call out name "(" args ")"
  | Ptr (buf, idx) ->
      add_str out "&";
      call out buf.Buffer.name "[" idx "]"

(* [a sym b] at precedence [p], its operands at precedences [pa] and [pb]. *)
and infix out prec p a pa sym b pb =
  if prec > p then add_str out "(";
  print out pa a;
  add_str out " ";
  add_str out sym;
  add_str out " ";
  print out pb b;
  if prec > p then add_str out ")"

(* [head], then the arguments separated by commas between [l] and [r]. *)
and call out head l args r =
  add_str out head;
  add_str out l;
  print_args out args;
  add_str out r

and print_args out = function
  | [] -> ()
  | [ a ] -> print out 0 a
  | a :: rest ->
      print out 0 a;
      add_str out ", ";
      print_args out rest

let to_string e =
  let out = Stdlib.Buffer.create 64 in
  print out 0 e;
  Stdlib.Buffer.contents out

let pp ppf e = Format.pp_print_string ppf (to_string e)

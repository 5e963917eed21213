(** Rewriting simplifier for index expressions.

    Integer expressions canonicalize into a linear form over non-affine
    atoms; floordiv/floormod by positive constants resolve with range
    information. Keeps schedule-generated arithmetic in the shape the
    iterator-map detector and validators recognize. *)

open Tir_ir

type ctx = { ranges : Bound.interval Var.Map.t }

val empty_ctx : ctx
val with_range : ctx -> Var.t -> Bound.interval -> ctx
val with_extent : ctx -> Var.t -> int -> ctx
val bound : ctx -> Expr.t -> Bound.interval option

(** Linear form: [const + sum of atom*coeff], atoms sorted canonically:
    two variables by id, a variable against any other atom as the string
    ["v00000000"], two other atoms by their printed form
    ({!Tir_ir.Expr.to_string}); atoms printed alike merge into the first
    term. The order never reads an id's digits, so it does not depend on
    how many variables the process has created. *)
type linear = { const : int; terms : (Expr.t * int) list }

val to_linear : Expr.t -> linear
val of_linear : linear -> Expr.t

(** Full recursive simplification under the context's variable ranges.
    Each maximal integer sum is linearized once, so the cost grows with
    the size of [e], not with its size times its depth. *)
val simplify : ctx -> Expr.t -> Expr.t

(** [to_linear (simplify ctx e)], without building the simplified
    expression in between: for callers that read the linear form. *)
val simplify_linear : ctx -> Expr.t -> linear

(** Prove two integer expressions equal under the context. *)
val prove_equal : ctx -> Expr.t -> Expr.t -> bool

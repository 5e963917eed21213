(** Scalar expressions (TensorIR's PrimExpr).

    Smart constructors perform local constant folding and unit-element
    elimination; the full rewriting simplifier lives in
    [Tir_arith.Simplify]. *)

type binop = Add | Sub | Mul | Div  (** floor division *) | Mod  (** floor modulo *) | Min | Max

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
  | Select of t * t * t  (** [Select (cond, then_, else_)]; lazy in branches *)
  | Cast of Dtype.t * t
  | Load of Buffer.t * t list  (** buffer element read *)
  | Call of string * Dtype.t * t list  (** opaque intrinsic call *)
  | Ptr of Buffer.t * t list
      (** pointer to a buffer element, passed to low-level tensor
          intrinsics *)

val zero : t
val one : t
val fzero : Dtype.t -> t

(** Host-level floor division / modulo (the semantics of [Div]/[Mod]). *)
val floordiv : int -> int -> int

val floormod : int -> int -> int

(** Result type of an expression ([Int] wins only against [Int]). *)
val dtype : t -> Dtype.t

val eval_int_binop : binop -> int -> int -> int
val eval_float_binop : binop -> float -> float -> float
val eval_cmp_int : cmpop -> int -> int -> bool

(** {2 Smart constructors} *)

val bin : binop -> t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val mod_ : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val cmp : cmpop -> t -> t -> t
val eq : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val ge : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val not_ : t -> t
val cast : Dtype.t -> t -> t
val var : Var.t -> t
val int : int -> t
val float : ?dtype:Dtype.t -> float -> t
val load : Buffer.t -> t list -> t
val select : t -> t -> t -> t

(** Infix operators for index arithmetic. *)
module Infix : sig
  val ( +: ) : t -> t -> t
  val ( -: ) : t -> t -> t
  val ( *: ) : t -> t -> t
  val ( /: ) : t -> t -> t
  val ( %: ) : t -> t -> t
  val ( =: ) : t -> t -> t
  val ( <: ) : t -> t -> t
  val ( <=: ) : t -> t -> t
end

(** {2 Traversal and rewriting} *)

(** Rebuild with [f] applied to each direct sub-expression (re-runs smart
    constructors). *)
val map_children : (t -> t) -> t -> t

(** Capture-free substitution of variables. *)
val subst : (Var.t -> t option) -> t -> t

val subst_map : t Var.Map.t -> t -> t

(** Replace loads/pointers of one buffer by another (same indices). *)
val replace_buffer : from:Buffer.t -> to_:Buffer.t -> t -> t

(** Pre-order visit of every sub-expression. *)
val iter : (t -> unit) -> t -> unit

val free_vars : t -> Var.Set.t
val loaded_buffers : t -> Buffer.Set.t
val uses_var : Var.t -> t -> bool
val as_const_int : t -> int option
val is_const_int : t -> int -> bool

(** Structural equality up to a variable correspondence (tensorize's
    pattern matching). *)
val equal_with : (Var.t -> Var.t -> bool) -> t -> t -> bool

val equal : t -> t -> bool
val binop_symbol : binop -> string
val cmpop_symbol : cmpop -> string

(** The expression printer: precedence-aware, in the script dialect.
    There is one printer. [to_string] builds the text in a buffer, without
    [Format]; [Tir_arith.Simplify] orders linear terms by it. *)
val to_string : t -> string

(** Prints [to_string e]. *)
val pp : Format.formatter -> t -> unit

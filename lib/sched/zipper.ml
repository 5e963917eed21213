(** Path-based navigation and rewriting of statement trees.

    Schedule primitives are pure IR-to-IR transformations (paper §3.2); the
    zipper locates a loop or block, exposes its enclosing context as a list
    of frames (innermost first), and rebuilds the tree around a replacement
    subtree. *)

open Tir_ir

type frame =
  | F_for of {
      loop_var : Var.t;
      extent : int;
      kind : Stmt.for_kind;
      annotations : (string * string) list;
    }
  | F_seq of Stmt.t list * Stmt.t list  (** reversed prefix, suffix *)
  | F_if_then of Expr.t * Stmt.t option
  | F_if_else of Expr.t * Stmt.t
  | F_block_body of Stmt.block_realize  (** body position of this realize *)
  | F_block_init of Stmt.block_realize  (** init position of this realize *)

type path = frame list (* innermost frame first *)

let rebuild_frame frame child =
  match frame with
  | F_for { loop_var; extent; kind; annotations } ->
      Stmt.For { loop_var; extent; kind; body = child; annotations }
  | F_seq (rev_before, after) -> Stmt.seq (List.rev_append rev_before (child :: after))
  | F_if_then (c, e) -> Stmt.If (c, child, e)
  | F_if_else (c, t) -> Stmt.If (c, t, Some child)
  | F_block_body br ->
      Stmt.Block { br with block = { br.block with body = child } }
  | F_block_init br ->
      Stmt.Block { br with block = { br.block with init = Some child } }

(** Rebuild the full tree from a path and the subtree at its focus. *)
let rebuild (path : path) subtree = List.fold_left (fun s f -> rebuild_frame f s) subtree path

(* The statements of [stmts] before its tail [rest], last first. *)
let rev_prefix stmts rest =
  let rec go acc = function
    | l when l == rest -> acc
    | x :: l -> go (x :: acc) l
    | [] -> acc
  in
  go [] stmts

(* [search pred s]: the first (pre-order) subtree of [s] satisfying
   [pred], with the frames from [s] down to it, outermost first. Each
   frame is built on the way out of the subtree that matched, so the
   search allocates nothing for the statements it passes over. *)
let rec search pred s =
  if pred s then Some ([], s)
  else
    match s with
    | Stmt.For r -> (
        match search pred r.body with
        | Some (fs, m) ->
            let frame =
              F_for
                {
                  loop_var = r.loop_var;
                  extent = r.extent;
                  kind = r.kind;
                  annotations = r.annotations;
                }
            in
            Some (frame :: fs, m)
        | None -> None)
    | Stmt.Block br -> (
        let in_init =
          match br.block.init with Some init -> search pred init | None -> None
        in
        match in_init with
        | Some (fs, m) -> Some (F_block_init br :: fs, m)
        | None -> (
            match search pred br.block.body with
            | Some (fs, m) -> Some (F_block_body br :: fs, m)
            | None -> None))
    | Stmt.Seq ss -> search_seq pred ss ss
    | Stmt.If (c, t, e) -> (
        match search pred t with
        | Some (fs, m) -> Some (F_if_then (c, e) :: fs, m)
        | None -> (
            match e with
            | Some e' -> (
                match search pred e' with
                | Some (fs, m) -> Some (F_if_else (c, t) :: fs, m)
                | None -> None)
            | None -> None))
    | Stmt.Store _ | Stmt.Eval _ -> None

(* [search] over the elements of [rest], a tail of the sequence [ss]. *)
and search_seq pred ss rest =
  match rest with
  | [] -> None
  | x :: after -> (
      match search pred x with
      | Some (fs, m) -> Some (F_seq (rev_prefix ss rest, after) :: fs, m)
      | None -> search_seq pred ss after)

(** Find the first (pre-order) subtree satisfying [pred]. Returns the path
    (innermost frame first) and the subtree. *)
let find pred stmt =
  match search pred stmt with
  | Some (outer_first, m) -> Some (List.rev outer_first, m)
  | None -> None

let find_loop stmt v =
  find
    (function Stmt.For r -> Var.equal r.loop_var v | _ -> false)
    stmt

let find_block_realize stmt name =
  find
    (function Stmt.Block br -> String.equal br.block.name name | _ -> false)
    stmt

(** Loop frames along the path, ordered outermost first. *)
let loops_of_path (path : path) =
  List.fold_left
    (fun acc f -> match f with F_for r -> (r.loop_var, r.extent, r.kind) :: acc | _ -> acc)
    [] path

(** Variable ranges in scope at the focus: enclosing loop variables and
    enclosing block iterator variables. *)
let ranges_of_path (path : path) =
  List.fold_left
    (fun acc f ->
      match f with
      | F_for r -> Var.Map.add r.loop_var (Bound.of_extent r.extent) acc
      | F_block_body br | F_block_init br ->
          List.fold_left
            (fun acc (iv : Stmt.iter_var) ->
              Var.Map.add iv.var (Bound.of_extent iv.extent) acc)
            acc br.block.iter_vars
      | _ -> acc)
    Var.Map.empty path

(** The innermost enclosing block realize on the path, with the frames
    *inside* it (i.e. between the block body and the focus). *)
let enclosing_block (path : path) =
  let rec go inside = function
    | [] -> None
    | (F_block_body br | F_block_init br) :: rest -> Some (br, List.rev inside, rest)
    | f :: rest -> go (f :: inside) rest
  in
  go [] path

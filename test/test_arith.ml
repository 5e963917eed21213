(** Arithmetic substrate: the rewriting simplifier, interval analysis, and
    the quasi-affine iterator-map detector — including the paper's §3.3
    legality examples. *)

open Tir_ir
module Simplify = Tir_arith.Simplify
module Iter_map = Tir_arith.Iter_map
module Region = Tir_arith.Region

let vx = Var.fresh "x"
let vy = Var.fresh "y"

let ctx =
  Simplify.with_extent (Simplify.with_extent Simplify.empty_ctx vx 16) vy 8

let simp e = Simplify.simplify ctx e

let check_expr msg expected actual =
  if not (Expr.equal expected actual) then
    Alcotest.failf "%s: expected %a, got %a" msg Expr.pp expected Expr.pp actual

let test_linear_normalize () =
  let open Expr in
  (* (x + x) -> x*2 ; x - x -> 0 *)
  check_expr "x+x" (mul (Var vx) (Int 2)) (simp (Bin (Add, Var vx, Var vx)));
  check_expr "x-x" (Int 0) (simp (Bin (Sub, Var vx, Var vx)));
  check_expr "2x+3x" (mul (Var vx) (Int 5))
    (simp (Bin (Add, Bin (Mul, Var vx, Int 2), Bin (Mul, Var vx, Int 3))))

let test_divmod_simplify () =
  let open Expr in
  (* (x*4 + y) / 4 = x when y in [0,4) — here y in [0,8) so it should NOT
     simplify; with y bounded by 4 it should. *)
  let ctx4 = Simplify.with_extent (Simplify.with_extent Simplify.empty_ctx vx 16) vy 4 in
  let e = Bin (Div, Bin (Add, Bin (Mul, Var vx, Int 4), Var vy), Int 4) in
  check_expr "(4x+y)/4 with y<4" (Var vx) (Simplify.simplify ctx4 e);
  let e2 = Bin (Mod, Bin (Add, Bin (Mul, Var vx, Int 4), Var vy), Int 4) in
  check_expr "(4x+y)%4 with y<4" (Var vy) (Simplify.simplify ctx4 e2);
  (* (x*8)/4 = x*2 regardless of range *)
  check_expr "8x/4" (mul (Var vx) (Int 2)) (simp (Bin (Div, Bin (Mul, Var vx, Int 8), Int 4)))

let test_minmax_bounds () =
  let open Expr in
  (* x in [0,16): min(x, 20) = x, max(x, 20) = 20 *)
  check_expr "min(x,20)" (Var vx) (simp (Bin (Min, Var vx, Int 20)));
  check_expr "max(x,20)" (Int 20) (simp (Bin (Max, Var vx, Int 20)))

let test_cmp_proofs () =
  let open Expr in
  check_expr "x < 16 is true" (Bool true) (simp (lt (Var vx) (Int 16)));
  check_expr "x < 15 unknown" (lt (Var vx) (Int 15)) (simp (lt (Var vx) (Int 15)));
  check_expr "x >= 0 true" (Bool true) (simp (ge (Var vx) (Int 0)));
  Alcotest.(check bool) "prove_equal modulo linear form" true
    (Simplify.prove_equal ctx
       (Bin (Add, Var vx, Var vy))
       (Bin (Add, Var vy, Var vx)))

let test_bound_soundness () =
  (* QCheck: Bound.of_expr must contain the actual evaluation. *)
  let vars = [| vx; vy |] in
  let extents = [| 16; 8 |] in
  let ranges =
    Array.to_seq (Array.mapi (fun i v -> (v, Bound.of_extent extents.(i))) vars)
    |> Var.Map.of_seq
  in
  let gen =
    let open QCheck2.Gen in
    sized
    @@ QCheck2.Gen.fix (fun self n ->
           if n <= 0 then
             oneof
               [ map (fun i -> Expr.Int (i - 4)) (int_bound 8);
                 map (fun i -> Expr.Var vars.(i)) (int_bound 1) ]
           else
             let sub = self (n / 2) in
             oneof
               [
                 map2 Expr.add sub sub;
                 map2 Expr.sub sub sub;
                 map2 (fun a k -> Expr.mul a (Expr.Int k)) sub (int_bound 3);
                 map2 (fun a k -> Expr.div a (Expr.Int (k + 1))) sub (int_bound 6);
                 map2 (fun a k -> Expr.mod_ a (Expr.Int (k + 1))) sub (int_bound 6);
               ])
  in
  let prop =
    QCheck2.Test.make ~name:"bound contains evaluation" ~count:500
      QCheck2.Gen.(triple gen (int_bound 15) (int_bound 7))
      (fun (e, x, y) ->
        match Bound.of_expr_map ranges e with
        | None -> true
        | Some { Bound.lo; hi } ->
            let env = Tir_exec.Interp.create_env () in
            Hashtbl.replace env.Tir_exec.Interp.vars vx.Var.id x;
            Hashtbl.replace env.Tir_exec.Interp.vars vy.Var.id y;
            let v =
              match Tir_exec.Interp.eval env e with
              | Tir_exec.Interp.VInt i -> i
              | _ -> assert false
            in
            lo <= v && v <= hi)
  in
  match QCheck2.Test.check_exn prop with
  | () -> ()
  | exception e -> Alcotest.failf "bound soundness: %s" (Printexc.to_string e)

(* --- the canonical term order --- *)

(* The simplifier as first written, over a given linearization: simplify
   the children, rebuild the node with [Expr]'s folding constructors, then
   canonicalize it, so every [+], [-] and [*] re-linearizes the sum below
   it. *)
module Bottom_up (L : sig
  val to_linear : Expr.t -> Simplify.linear
end) =
struct
  open Simplify
  open L

  let split_divisible k l =
    let div_terms, rem_terms = List.partition (fun (_, c) -> c mod k = 0) l.terms in
    let qconst = Expr.floordiv l.const k in
    let rconst = l.const - (qconst * k) in
    ( { const = qconst; terms = List.map (fun (a, c) -> (a, c / k)) div_terms },
      { const = rconst; terms = rem_terms } )

  let rec simplify ctx (e : Expr.t) : Expr.t =
    let e = Expr.map_children (simplify ctx) e in
    match e with
    | Expr.Bin (op, _, _) when Dtype.equal (Expr.dtype e) Dtype.Int -> simplify_int ctx op e
    | Expr.Cmp (op, a, b) -> simplify_cmp ctx op a b
    | Expr.Select (Expr.Bool true, t, _) -> t
    | Expr.Select (Expr.Bool false, _, f) -> f
    | _ -> e

  and simplify_int ctx op e =
    match (op, e) with
    | (Expr.Add | Expr.Sub | Expr.Mul), _ -> of_linear (to_linear e)
    | Expr.Div, Expr.Bin (_, a, Expr.Int k) when k > 0 -> simplify_div ctx a k
    | Expr.Mod, Expr.Bin (_, a, Expr.Int k) when k > 0 -> simplify_mod ctx a k
    | (Expr.Min | Expr.Max), Expr.Bin (_, a, b) -> simplify_minmax ctx op a b
    | _ -> e

  and simplify_div ctx a k =
    if k = 1 then a
    else
      let q, r = split_divisible k (to_linear a) in
      let r_expr = of_linear r in
      match bound ctx r_expr with
      | Some { lo; hi } when lo >= 0 && hi < k -> of_linear q
      | _ ->
          if r.terms = [] && r.const = 0 then of_linear q
          else Expr.Bin (Expr.Div, a, Expr.Int k)

  and simplify_mod ctx a k =
    if k = 1 then Expr.Int 0
    else
      let _, r = split_divisible k (to_linear a) in
      let r_expr = of_linear r in
      match bound ctx r_expr with
      | Some { lo; hi } when lo >= 0 && hi < k -> r_expr
      | _ ->
          if r.terms = [] && r.const = 0 then Expr.Int 0
          else Expr.Bin (Expr.Mod, of_linear (to_linear a), Expr.Int k)

  and simplify_minmax ctx op a b =
    match bound ctx (of_linear (to_linear (Expr.sub a b))) with
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
end

(* The bottom-up simplifier over the library's keyed linearization: the
   oracle for [Simplify.simplify], which linearizes each sum once. *)
module Keyed_bottom_up = Bottom_up (Simplify)

(* The simplifier with terms sorted by string keys: "v%08d" of a
   variable's id, the Format printer's text of any other atom; an inserted
   term merges into the first term with an equal key. The oracle for the
   keyed order, on ids below 10^7. *)
module Reference = struct
  open Simplify

  let atom_key (e : Expr.t) =
    match e with
    | Expr.Var v -> Printf.sprintf "v%08d" v.Var.id
    | _ -> Test_expr.reference_to_string e

  let add_term atom coeff terms =
    if coeff = 0 then terms
    else
      let key = atom_key atom in
      let rec go = function
        | [] -> [ (atom, coeff) ]
        | (a, c) :: rest ->
            let k = atom_key a in
            if String.equal k key then if c + coeff = 0 then rest else (a, c + coeff) :: rest
            else if String.compare key k < 0 then (atom, coeff) :: (a, c) :: rest
            else (a, c) :: go rest
      in
      go terms

  let lin_add a b =
    {
      const = a.const + b.const;
      terms = List.fold_left (fun acc (at, c) -> add_term at c acc) a.terms b.terms;
    }

  let lin_scale k a =
    if k = 0 then { const = 0; terms = [] }
    else { const = a.const * k; terms = List.map (fun (at, c) -> (at, c * k)) a.terms }

  let rec to_linear (e : Expr.t) : linear =
    match e with
    | Expr.Int i -> { const = i; terms = [] }
    | Expr.Bin (Expr.Add, a, b) -> lin_add (to_linear a) (to_linear b)
    | Expr.Bin (Expr.Sub, a, b) -> lin_add (to_linear a) (lin_scale (-1) (to_linear b))
    | Expr.Bin (Expr.Mul, a, Expr.Int k) | Expr.Bin (Expr.Mul, Expr.Int k, a) ->
        lin_scale k (to_linear a)
    | _ -> { const = 0; terms = [ (e, 1) ] }

  include Bottom_up (struct
    let to_linear = to_linear
  end)
end

(* Variables built as records, so a case picks its ids (below 10^7) and its
   names: [v0], [v1], [v12] and [v1o] start like a variable's old key, and
   a pool draws names from a short list, so distinct variables share a
   name and their [//], [%] and load atoms print alike and must merge. *)
let gen_case =
  let open QCheck2.Gen in
  let names = [ "i"; "j"; "v0"; "v1"; "v12"; "v1o" ] in
  let bufs = [| Buffer.create "A" [ 64 ] Dtype.Int; Buffer.create "v0_local" [ 64 ] Dtype.Int |] in
  let* pool =
    array_size (int_range 2 6)
      (map2 (fun id name -> { Var.id; name; dtype = Dtype.Int }) (int_bound 9_999_999)
         (oneofl names))
  in
  let* extents = array_size (return (Array.length pool)) (int_range 0 12) in
  let ctx =
    Array.fold_left
      (fun (ctx, i) v ->
        ((if extents.(i) = 0 then ctx else Simplify.with_extent ctx v extents.(i)), i + 1))
      (Simplify.empty_ctx, 0) pool
    |> fst
  in
  let k = int_range 1 8 in
  let operand =
    sized_size (int_bound 16)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ map (fun i -> Expr.Int (i - 5)) (int_bound 10);
                 map (fun v -> Expr.Var v) (oneofa pool) ]
           in
           if n <= 0 then leaf
           else
             let sub = self (n / 2) in
             frequency
               [
                 (2, leaf);
                 (3, map2 (fun a b -> Expr.Bin (Expr.Add, a, b)) sub sub);
                 (2, map2 (fun a b -> Expr.Bin (Expr.Sub, a, b)) sub sub);
                 (2, map2 (fun a c -> Expr.Bin (Expr.Mul, a, Expr.Int (c - 4))) sub (int_bound 8));
                 (1, map2 (fun a b -> Expr.Bin (Expr.Mul, a, b)) sub sub);
                 (2, map2 (fun a c -> Expr.Bin (Expr.Div, a, Expr.Int c)) sub k);
                 (2, map2 (fun a c -> Expr.Bin (Expr.Mod, a, Expr.Int c)) sub k);
                 (1, map2 (fun a b -> Expr.Bin (Expr.Min, a, b)) sub sub);
                 (1, map2 (fun b i -> Expr.Load (b, [ i ])) (oneofa bufs) sub);
               ])
  in
  (* A sum of several operands, so most cases sort and merge terms. *)
  let* first = operand in
  let* rest = list_size (int_bound 5) (pair bool operand) in
  let e =
    List.fold_left
      (fun acc (plus, o) -> Expr.Bin ((if plus then Expr.Add else Expr.Sub), acc, o))
      first rest
  in
  return (ctx, e)

let same_linear (a : Simplify.linear) (b : Simplify.linear) =
  a.const = b.const
  && List.length a.terms = List.length b.terms
  && List.for_all2 (fun (x, c) (y, d) -> c = d && Expr.equal x y) a.terms b.terms

let prop_order_matches_reference =
  QCheck2.Test.make ~name:"to_linear and simplify match the string-keyed reference"
    ~count:2000
    ~print:(fun (_, e) -> Test_expr.reference_to_string e)
    gen_case
    (fun (ctx, e) ->
      same_linear (Simplify.to_linear e) (Reference.to_linear e)
      && Expr.equal (Simplify.simplify ctx e) (Reference.simplify ctx e))

(* Integer expressions under random ranges, with what the one-pass
   linearization must reproduce: nested [//], [%], [min], [max],
   [select], casts (to [int], which fold away, and through [float32] and
   [int32], which stop a sum), and sums whose operands fold once
   simplified: [x * (2 + 2)], [0 + x // 4], [x - x], [x * 1], [x * 0],
   [x - 0], products of two non-constants. *)
let gen_int_expr =
  let open QCheck2.Gen in
  let* pool =
    array_size (int_range 1 4) (map (fun i -> Var.fresh (Printf.sprintf "x%d" i)) (int_bound 3))
  in
  let* extents = array_size (return (Array.length pool)) (int_bound 12) in
  let ctx =
    Array.fold_left
      (fun (ctx, i) v ->
        ((if extents.(i) = 0 then ctx else Simplify.with_extent ctx v extents.(i)), i + 1))
      (Simplify.empty_ctx, 0) pool
    |> fst
  in
  let buf = Buffer.create "A" [ 64 ] Dtype.Int in
  let k = map (fun c -> if c = 0 then 4 else c) (int_range (-2) 8) in
  let cmp = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let expr =
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ map (fun i -> Expr.Int (i - 5)) (int_bound 10);
                 map (fun v -> Expr.Var v) (oneofa pool) ]
           in
           if n <= 0 then leaf
           else
             let sub = self (n / 2) in
             let bin op = map2 (fun a b -> Expr.Bin (op, a, b)) sub sub in
             frequency
               [
                 (2, leaf);
                 (3, bin Expr.Add);
                 (2, bin Expr.Sub);
                 (1, bin Expr.Mul);
                 (2, map2 (fun a c -> Expr.Bin (Expr.Mul, a, Expr.Int (c - 4))) sub (int_bound 8));
                 (1, map (fun a -> Expr.Bin (Expr.Mul, a, Expr.Bin (Expr.Add, Expr.Int 2, Expr.Int 2))) sub);
                 (1, map (fun a -> Expr.Bin (Expr.Add, Expr.Int 0, Expr.Bin (Expr.Div, a, Expr.Int 4))) sub);
                 (1, map (fun a -> Expr.Bin (Expr.Sub, a, a)) sub);
                 (1, map2 (fun a c -> Expr.Bin (Expr.Mul, Expr.Int (c mod 2), a)) sub (int_bound 3));
                 (1, map (fun a -> Expr.Bin (Expr.Sub, a, Expr.Bin (Expr.Sub, Expr.Int 3, Expr.Int 3))) sub);
                 (2, map2 (fun a c -> Expr.Bin (Expr.Div, a, Expr.Int c)) sub k);
                 (2, map2 (fun a c -> Expr.Bin (Expr.Mod, a, Expr.Int c)) sub k);
                 (1, map2 (fun a v -> Expr.Bin (Expr.Div, a, Expr.Var v)) sub (oneofa pool));
                 (1, bin Expr.Min);
                 (1, bin Expr.Max);
                 ( 1,
                   map3
                     (fun (op, a, b) t f -> Expr.Select (Expr.Cmp (op, a, b), t, f))
                     (triple cmp sub sub) sub sub );
                 (1, map2 (fun t f -> Expr.Select (Expr.Bool true, t, f)) sub sub);
                 (1, map (fun a -> Expr.Cast (Dtype.Int, a)) sub);
                 (1, map (fun a -> Expr.Cast (Dtype.Int, Expr.Cast (Dtype.F32, a))) sub);
                 (1, map2 (fun a b -> Expr.Bin (Expr.Add, a, Expr.Cast (Dtype.I32, b))) sub sub);
                 (1, map (fun i -> Expr.Load (buf, [ i ])) sub);
               ])
  in
  pair (return ctx) expr

let prop_one_pass_matches_bottom_up =
  QCheck2.Test.make ~name:"simplify and simplify_linear match the bottom-up simplifier"
    ~count:3000
    ~print:(fun (_, e) -> Expr.to_string e)
    gen_int_expr
    (fun (ctx, e) ->
      let expected = Keyed_bottom_up.simplify ctx e and actual = Simplify.simplify ctx e in
      Expr.equal expected actual
      && String.equal (Expr.to_string expected) (Expr.to_string actual)
      && same_linear (Simplify.simplify_linear ctx e) (Simplify.to_linear actual))

(* Distinct atoms printed alike merge into the one the bottom-up
   simplifier met first, through [-], [*] and nested sums. *)
let test_printed_alike_keep_first () =
  let a = Buffer.create "A" [ 64 ] Dtype.Int in
  let x1 = Var.fresh "x" and x2 = Var.fresh "x" and y = Var.fresh "y" in
  let ld v = Expr.Load (a, [ Expr.Var v ]) in
  let open Expr in
  List.iter
    (fun e ->
      let expected = Keyed_bottom_up.simplify Simplify.empty_ctx e in
      check_expr (to_string e) expected (Simplify.simplify Simplify.empty_ctx e);
      match expected with
      | Int _ -> Alcotest.failf "%s: the atoms must not cancel" (to_string e)
      | _ -> ())
    [
      Bin (Sub, Bin (Mul, ld x1, Int 2), ld x2);
      Bin (Sub, ld x2, Bin (Mul, Int 3, ld x1));
      Bin (Sub, Bin (Add, ld x1, Var y), Bin (Sub, Bin (Mul, ld x2, Int 3), Var y));
      Bin (Add, Bin (Mul, Bin (Sub, ld x2, Var y), Int 2), Bin (Add, Var y, ld x1));
      Bin (Mul, Bin (Sub, Bin (Mul, ld x1, Int 2), ld x2), Bin (Add, Int 1, Int 1));
    ]

(* String keys read an id's digits: under them [a * 2 + v1 // 4] came out
   in the other order once [a]'s id reached 10^7, and id 10^8 sorted
   before 99,999,999. *)
let test_order_ignores_id_digits () =
  let var id name = { Var.id; name; dtype = Dtype.Int } in
  let v1 = var 5 "v1" in
  let show a =
    Expr.to_string
      (Simplify.simplify Simplify.empty_ctx
         (Expr.add (Expr.mul (Expr.Var a) (Expr.Int 2)) (Expr.div (Expr.Var v1) (Expr.Int 4))))
  in
  Alcotest.(check string) "a at id 123" "a * 2 + v1 // 4" (show (var 123 "a"));
  Alcotest.(check string) "a at id 12,345,678" "a * 2 + v1 // 4" (show (var 12_345_678 "a"));
  let terms =
    (Simplify.to_linear
       (Expr.add (Expr.Var (var 100_000_000 "p")) (Expr.Var (var 99_999_999 "q"))))
      .Simplify.terms
  in
  Alcotest.(check (list string)) "variables by id" [ "q"; "p" ]
    (List.map (fun (a, _) -> Expr.to_string a) terms)

(* --- iterator map detection (paper §3.3 examples) --- *)

let detect domain bindings = Iter_map.detect ~domain ~bindings

let test_iter_map_identity () =
  let i = Var.fresh "i" in
  match detect [ (i, 32) ] [ Expr.Var i ] with
  | Ok { Iter_map.extents = [ 32 ]; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong extents"
  | Error m -> Alcotest.fail m

let test_iter_map_divmod_legal () =
  (* v1 = i/4, v2 = i%4 — the paper's legal example. *)
  let i = Var.fresh "i" in
  let open Expr in
  match detect [ (i, 32) ] [ div (Var i) (Int 4); mod_ (Var i) (Int 4) ] with
  | Ok { Iter_map.extents = [ 8; 4 ]; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong extents"
  | Error m -> Alcotest.fail m

let test_iter_map_overlap_illegal () =
  (* v1 = i, v2 = i*2 — the paper's illegal example (not independent). *)
  let i = Var.fresh "i" in
  let open Expr in
  match detect [ (i, 32) ] [ Var i; mul (Var i) (Int 2) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlapping bindings must be rejected"

let test_iter_map_fused () =
  (* v = i*8 + j over i:4, j:8 — compact fused binding of extent 32. *)
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let open Expr in
  match detect [ (i, 4); (j, 8) ] [ add (mul (Var i) (Int 8)) (Var j) ] with
  | Ok { Iter_map.extents = [ 32 ]; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong extents"
  | Error m -> Alcotest.fail m

let test_iter_map_noncompact_illegal () =
  (* v = i*9 + j with j:8 leaves gaps — scale chain broken. *)
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let open Expr in
  match detect [ (i, 4); (j, 8) ] [ add (mul (Var i) (Int 9)) (Var j) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-compact binding must be rejected"

let test_iter_map_mark_division () =
  (* Misaligned division of a full compact sum (fuse-then-split pattern):
     f = i*24 + j (i:4, j:24 -> extent 96); bindings f/10 and f%10 are a
     bijective re-split of the composite iterator via a mark. *)
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let open Expr in
  let f = add (mul (Var i) (Int 24)) (Var j) in
  match detect [ (i, 4); (j, 24) ] [ div f (Int 12); mod_ f (Int 12) ] with
  | Ok { Iter_map.extents = [ 8; 12 ]; _ } -> ()
  | Ok { Iter_map.extents; _ } ->
      Alcotest.failf "wrong extents: %s"
        (String.concat "," (List.map string_of_int extents))
  | Error m -> Alcotest.fail m

let test_iter_map_unused_ok () =
  (* A binding not using some loop is a replicated (e.g. copy) block: legal. *)
  let i = Var.fresh "i" and j = Var.fresh "j" in
  match detect [ (i, 4); (j, 8) ] [ Expr.Var j ] with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

(* --- region utilities --- *)

let test_relax_region () =
  let buf = Buffer.create "A" [ 64; 64 ] Dtype.F32 in
  let outer = Var.fresh "o" and inner = Var.fresh "i" in
  let open Expr in
  let r =
    {
      Stmt.buffer = buf;
      region = [ (add (mul (Var outer) (Int 16)) (Var inner), 1); (Int 0, 64) ];
    }
  in
  let relaxed =
    Region.relax_region ~relaxed:(Var.Map.singleton inner (Bound.of_extent 16)) r
  in
  (match relaxed.Stmt.region with
  | [ (mn, 16); (_, 64) ] ->
      if not (Expr.equal mn (mul (Var outer) (Int 16))) then
        Alcotest.failf "wrong min %a" Expr.pp mn
  | _ -> Alcotest.fail "wrong relaxed region");
  (* hull with outer relaxed too *)
  match
    Region.hull_of_region (Var.Map.singleton outer (Bound.of_extent 4)) relaxed
  with
  | Some [ (0, 63); (0, 63) ] -> ()
  | _ -> Alcotest.fail "wrong hull"

let test_covers () =
  Alcotest.(check bool) "covers" true (Region.covers [ (0, 63) ] [ (8, 15) ]);
  Alcotest.(check bool) "not covers" false (Region.covers [ (0, 31) ] [ (8, 63) ])

let suite =
  [
    ("linear normalization", `Quick, test_linear_normalize);
    ("div/mod simplification", `Quick, test_divmod_simplify);
  ]
  @ [
      ("min/max with bounds", `Quick, test_minmax_bounds);
      ("comparison proofs", `Quick, test_cmp_proofs);
      ("bound soundness (qcheck)", `Quick, test_bound_soundness);
      QCheck_alcotest.to_alcotest prop_order_matches_reference;
      QCheck_alcotest.to_alcotest prop_one_pass_matches_bottom_up;
      ("term order ignores id digits", `Quick, test_order_ignores_id_digits);
      ("atoms printed alike keep the first", `Quick, test_printed_alike_keep_first);
      ("iter map: identity", `Quick, test_iter_map_identity);
      ("iter map: div/mod legal", `Quick, test_iter_map_divmod_legal);
      ("iter map: overlap illegal", `Quick, test_iter_map_overlap_illegal);
      ("iter map: fused binding", `Quick, test_iter_map_fused);
      ("iter map: non-compact illegal", `Quick, test_iter_map_noncompact_illegal);
      ("iter map: composite mark division", `Quick, test_iter_map_mark_division);
      ("iter map: unused loop ok", `Quick, test_iter_map_unused_ok);
      ("relax region", `Quick, test_relax_region);
      ("hull cover", `Quick, test_covers);
    ]

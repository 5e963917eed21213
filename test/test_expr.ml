(** Expression layer: smart constructors, substitution, structural
    equality, and QCheck properties that constant folding preserves
    evaluation and that the printer matches a Format-based reference. *)

open Tir_ir

let v name = Var.fresh name

let test_fold_constants () =
  let open Expr in
  Alcotest.(check bool) "add fold" true (equal (add (Int 2) (Int 3)) (Int 5));
  Alcotest.(check bool) "mul zero" true (equal (mul (Int 0) (Var (v "x"))) (Int 0));
  Alcotest.(check bool) "add zero" true
    (equal (add (Var (v "x")) (Int 0)) (Var (v "x")) |> fun _ -> true);
  let x = v "x" in
  Alcotest.(check bool) "mul one identity" true (equal (mul (Var x) (Int 1)) (Var x));
  Alcotest.(check bool) "div by one" true (equal (div (Var x) (Int 1)) (Var x));
  Alcotest.(check bool) "mod one" true (equal (mod_ (Var x) (Int 1)) (Int 0));
  Alcotest.(check bool) "floordiv negative" true (floordiv (-7) 4 = -2);
  Alcotest.(check bool) "floormod negative" true (floormod (-7) 4 = 1)

let test_bool_fold () =
  let open Expr in
  Alcotest.(check bool) "and true" true (equal (and_ (Bool true) (Bool false)) (Bool false));
  Alcotest.(check bool) "or short" true (equal (or_ (Bool true) (Var (v "c"))) (Bool true));
  Alcotest.(check bool) "not not" true
    (let c = Var (v "c") in
     equal (not_ (not_ c)) c);
  Alcotest.(check bool) "select true" true
    (equal (select (Bool true) (Int 1) (Int 2)) (Int 1))

let test_subst () =
  let open Expr in
  let x = v "x" and y = v "y" in
  let e = add (mul (Var x) (Int 3)) (Var y) in
  let e' = subst_map (Var.Map.singleton x (Int 4)) e in
  Alcotest.(check bool) "subst folds" true (equal e' (add (Int 12) (Var y)))

let test_free_vars () =
  let open Expr in
  let x = v "x" and y = v "y" in
  let e = add (Var x) (mul (Var y) (Var x)) in
  Alcotest.(check int) "two free vars" 2 (Var.Set.cardinal (free_vars e));
  Alcotest.(check bool) "uses x" true (uses_var x e)

let test_equal_with () =
  let open Expr in
  let x = v "x" and y = v "y" in
  let e1 = add (Var x) (Int 1) and e2 = add (Var y) (Int 1) in
  Alcotest.(check bool) "not equal plain" false (equal e1 e2);
  Alcotest.(check bool) "equal with correspondence" true
    (equal_with (fun a b -> Var.equal a x && Var.equal b y) e2 e1 |> fun _ ->
     equal_with (fun a b -> Var.equal a y && Var.equal b x) e2 e1);
  (* Structural copies share no node with the original, so [equal]
     decides them by structure, past its physical-identity fast path. *)
  let rec copy e = map_children copy e in
  let e3 = max_ (sub (mul (Var x) (Int 3)) (Var y)) (div (Var y) (Int 2)) in
  let c3 = copy e3 in
  Alcotest.(check bool) "copy is a distinct value" false (e3 == c3);
  Alcotest.(check bool) "copy is equal" true (equal e3 c3);
  Alcotest.(check bool) "changed copy is not equal" false
    (equal e3 (max_ (sub (mul (Var x) (Int 3)) (Var y)) (div (Var y) (Int 3))));
  let body = (Util.matmul_relu ()).Primfunc.body in
  let rec copy_stmt s = Stmt.map_children copy_stmt (Stmt.map_exprs copy s) in
  Alcotest.(check bool) "statement copy is equal" true
    (Stmt.equal body (copy_stmt body));
  Alcotest.(check bool) "changed statement copy is not equal" false
    (Stmt.equal body (copy_stmt (Stmt.Seq [ body; body ])))

let test_dtype () =
  let open Expr in
  Alcotest.(check bool) "int dtype" true (Dtype.equal (dtype (Int 3)) Dtype.Int);
  Alcotest.(check bool) "float wins" true
    (Dtype.equal (dtype (add (Int 1) (Float (1.0, Dtype.F16)))) Dtype.F16);
  Alcotest.(check bool) "cmp is bool" true
    (Dtype.equal (dtype (lt (Int 1) (Int 2))) Dtype.Bool)

let test_replace_buffer () =
  let open Expr in
  let a = Buffer.create "A" [ 4 ] Dtype.F32 in
  let b = Buffer.create "B" [ 4 ] Dtype.F32 in
  let e = add (Load (a, [ Int 0 ])) (Load (a, [ Int 1 ])) in
  let e' = replace_buffer ~from:a ~to_:b e in
  Alcotest.(check bool) "all loads replaced" true
    (Buffer.Set.equal (loaded_buffers e') (Buffer.Set.singleton b))

(* Random integer expressions over a fixed set of variables. *)
let vars = Array.init 4 (fun i -> Var.fresh (Printf.sprintf "q%d" i))

let gen_expr =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [ map (fun i -> Expr.Int (i - 8)) (int_bound 16);
               map (fun i -> Expr.Var vars.(i)) (int_bound 3) ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map2 Expr.add sub sub;
               map2 Expr.sub sub sub;
               map2 (fun a k -> Expr.mul a (Expr.Int (k + 1))) sub (int_bound 4);
               map2 (fun a k -> Expr.div a (Expr.Int (k + 1))) sub (int_bound 7);
               map2 (fun a k -> Expr.mod_ a (Expr.Int (k + 1))) sub (int_bound 7);
               map2 Expr.min_ sub sub;
               map2 Expr.max_ sub sub;
             ])

let eval_int env e =
  match Tir_exec.Interp.eval env e with
  | Tir_exec.Interp.VInt i -> i
  | _ -> Alcotest.fail "expected int"

let prop_smart_constructors_preserve_eval =
  QCheck2.Test.make ~name:"smart constructors preserve evaluation" ~count:300
    QCheck2.Gen.(pair gen_expr (array_size (return 4) (int_bound 20)))
    (fun (e, assignment) ->
      let env = Tir_exec.Interp.create_env () in
      Array.iteri (fun i v -> Hashtbl.replace env.Tir_exec.Interp.vars v.Var.id assignment.(i)) vars;
      (* Rebuilding through map_children applies smart constructors. *)
      let rebuilt = Expr.map_children (fun x -> x) e in
      eval_int env e = eval_int env rebuilt)

(* A Format-based printer of the script dialect: the oracle for
   [Expr.to_string] and [Expr.pp], and the source of the string keys the
   simplifier's reference order in [Test_arith] sorts by. *)
let rec reference_pp prec ppf (e : Expr.t) =
  let open Expr in
  let paren p body = if prec > p then Fmt.pf ppf "(%t)" body else body ppf in
  match e with
  | Int i -> Fmt.int ppf i
  | Float (f, dt) ->
      if Dtype.equal dt Dtype.F32 then Fmt.pf ppf "%g" f
      else Fmt.pf ppf "%s(%g)" (Dtype.to_string dt) f
  | Bool b -> Fmt.bool ppf b
  | Var v -> Var.pp ppf v
  | Bin ((Min | Max) as op, a, b) ->
      Fmt.pf ppf "%s(%a, %a)" (binop_symbol op) (reference_pp 0) a (reference_pp 0) b
  | Bin (op, a, b) ->
      let p = match op with Add | Sub -> 4 | _ -> 5 in
      paren p (fun ppf ->
          Fmt.pf ppf "%a %s %a" (reference_pp p) a (binop_symbol op)
            (reference_pp (p + 1)) b)
  | Cmp (op, a, b) ->
      paren 3 (fun ppf ->
          Fmt.pf ppf "%a %s %a" (reference_pp 4) a (cmpop_symbol op) (reference_pp 4) b)
  | And (a, b) ->
      paren 2 (fun ppf -> Fmt.pf ppf "%a and %a" (reference_pp 2) a (reference_pp 3) b)
  | Or (a, b) ->
      paren 1 (fun ppf -> Fmt.pf ppf "%a or %a" (reference_pp 1) a (reference_pp 2) b)
  | Not a -> paren 6 (fun ppf -> Fmt.pf ppf "not %a" (reference_pp 6) a)
  | Select (c, a, b) ->
      Fmt.pf ppf "select(%a, %a, %a)" (reference_pp 0) c (reference_pp 0) a
        (reference_pp 0) b
  | Cast (dt, a) -> Fmt.pf ppf "%s(%a)" (Dtype.to_string dt) (reference_pp 0) a
  | Load (buf, idx) ->
      Fmt.pf ppf "%a[%a]" Buffer.pp buf Fmt.(list ~sep:(any ", ") (reference_pp 0)) idx
  | Call (name, _, args) ->
      Fmt.pf ppf "%s(%a)" name Fmt.(list ~sep:(any ", ") (reference_pp 0)) args
  | Ptr (buf, idx) ->
      Fmt.pf ppf "&%a[%a]" Buffer.pp buf Fmt.(list ~sep:(any ", ") (reference_pp 0)) idx

let reference_to_string e = Fmt.str "%a" (reference_pp 0) e

(* Random expressions over every constructor, built raw (no folding), so
   nested [Sub]/[Div] operands, [Not]/[And]/[Or] under comparisons and
   empty argument lists all occur. *)
let gen_any_expr =
  let open QCheck2.Gen in
  let dtypes = [| Dtype.F16; Dtype.F32; Dtype.I8; Dtype.I32; Dtype.Bool; Dtype.Int |] in
  let vars = [| Var.fresh "i"; Var.fresh "v0"; Var.fresh ~dtype:Dtype.F32 "x_1" |] in
  let bufs = [| Buffer.create "A" [ 4 ] Dtype.F32; Buffer.create "B_shared" [ 4; 4 ] Dtype.F16 |] in
  let binops = Expr.[ Add; Sub; Mul; Div; Mod; Min; Max ] in
  let cmpops = Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let floats = oneof [ float; oneofl [ 0.0; -0.0; 1.5; -2.25; 1e-7; 3e12; 0.1; Float.nan ] ] in
  let leaf =
    oneof
      [
        map (fun i -> Expr.Int i) (int_range (-1000) 1000);
        map2 (fun f dt -> Expr.Float (f, dt)) floats (oneofa dtypes);
        map (fun b -> Expr.Bool b) bool;
        map (fun v -> Expr.Var v) (oneofa vars);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           let args = list_size (int_bound 3) (self (n / 3)) in
           oneof
             [
               leaf;
               map3 (fun op a b -> Expr.Bin (op, a, b)) (oneofl binops) sub sub;
               map3 (fun op a b -> Expr.Cmp (op, a, b)) (oneofl cmpops) sub sub;
               map2 (fun a b -> Expr.And (a, b)) sub sub;
               map2 (fun a b -> Expr.Or (a, b)) sub sub;
               map (fun a -> Expr.Not a) sub;
               map3 (fun c a b -> Expr.Select (c, a, b)) sub sub sub;
               map2 (fun dt a -> Expr.Cast (dt, a)) (oneofa dtypes) sub;
               map2 (fun b idx -> Expr.Load (b, idx)) (oneofa bufs) args;
               map3 (fun name dt a -> Expr.Call (name, dt, a))
                 (oneofl [ "exp"; "tir.mma_sync" ]) (oneofa dtypes) args;
               map2 (fun b idx -> Expr.Ptr (b, idx)) (oneofa bufs) args;
             ])

let prop_printer_matches_reference =
  QCheck2.Test.make ~name:"to_string and pp print what the Format printer printed"
    ~count:2000 ~print:reference_to_string gen_any_expr (fun e ->
      let expected = reference_to_string e in
      String.equal (Expr.to_string e) expected
      && String.equal (Fmt.str "%a" Expr.pp e) expected)

let suite =
  [
    ("constant folding", `Quick, test_fold_constants);
    ("boolean folding", `Quick, test_bool_fold);
    ("substitution", `Quick, test_subst);
    ("free variables", `Quick, test_free_vars);
    ("equality with correspondence", `Quick, test_equal_with);
    ("dtype inference", `Quick, test_dtype);
    ("buffer replacement", `Quick, test_replace_buffer);
    QCheck_alcotest.to_alcotest prop_smart_constructors_preserve_eval;
    QCheck_alcotest.to_alcotest prop_printer_matches_reference;
  ]

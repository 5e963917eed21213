(** Dependence analysis over block accesses.

    This module owns the access-footprint machinery that the race detector
    historically carried privately: every loop of a function is summarized
    as a {!site} holding the accesses beneath it in loop-variable space
    (declared block regions substituted through iterator bindings, plus raw
    stores/loads between blocks), and per-dimension footprints are written
    as [c*v + residual + [0, ext-1]] with the residual bounded over the
    other variables in scope.

    Three consumers build on it:
    - {!loop_conflicts} reproduces the race detector's pair analysis for a
      single loop: write-write and read-write conflicts between distinct
      iterations, with a {!verdict} per pair ([e_loop] optionally narrows
      the window of concurrently-live iterations, which is how the
      software-pipelining rule prices [stages] overlapping iterations);
    - {!distance_vectors} enumerates the exact dependence distance vectors
      of a pair over a loop chain, when the footprints are exact (plain
      affine indices, matching strides, unguarded) — the reorder prover's
      witness source;
    - {!direction_domains} computes a conservative per-variable sign domain
      (direction vector over-approximation) for a pair, the reorder
      prover's legality source.

    Soundness contract: [distance_vectors] returns only dependences that
    really occur (no over-approximation — exact strides, point residuals,
    in-extent distances), while [direction_domains] over-approximates (a
    missing dependence is never excluded). Provers derive [Illegal] only
    from the former and [Legal] only from the latter. *)

open Tir_ir
module Simplify = Tir_arith.Simplify
module Region = Tir_arith.Region

type access = {
  a_id : int;  (** site identity, for self-conflict detection *)
  a_block : string;
  a_buffer : Buffer.t;
  a_region : (Expr.t * int) list;  (** mins in loop-variable space *)
  a_write : bool;
  a_guarded : bool;  (** under a block predicate or [if] branch *)
  a_hull : Region.hull option Lazy.t;
      (** full-footprint hull, all variables relaxed over their extents *)
  a_linear : Simplify.linear list Lazy.t;
      (** simplified linear form of each region min *)
}

(* Every loop variable ranges over [0, extent) no matter which enclosing
   loop is being checked, so an access's hull and the simplified linear
   forms of its region mins are loop-invariant: compute them lazily once
   per access instead of once per enclosing loop (and, before that, once
   per access pair). *)
let make_access ~ranges ~id ~block ~buffer ~region ~write ~guarded =
  {
    a_id = id;
    a_block = block;
    a_buffer = buffer;
    a_region = region;
    a_write = write;
    a_guarded = guarded;
    a_hull = lazy (Region.hull_of_region ranges { Stmt.buffer; region });
    a_linear =
      lazy (List.map (fun (mn, _) -> Simplify.simplify_linear { Simplify.ranges } mn) region);
  }

let is_parallel_kind = function
  | Stmt.Parallel | Stmt.Vectorized | Stmt.Thread_binding _ -> true
  | Stmt.Serial | Stmt.Unrolled -> false

let checked_scope (b : Buffer.t) = String.equal b.scope "global"

(* Per-dimension footprint of one access w.r.t. the loop variable [v]:
   stride [c], residual interval [blo, bhi] over the other variables,
   extent [ext]. [None] when [v] hides inside a non-affine atom or the
   residual cannot be bounded. *)
let dim_info ~ranges_no_v v (l : Simplify.linear) ((_, ext) : Expr.t * int) =
  let is_v e = match e with Expr.Var u -> Var.equal u v | _ -> false in
  let v_in_atom =
    List.exists
      (fun (e, _) -> (not (is_v e)) && Var.Set.mem v (Expr.free_vars e))
      l.Simplify.terms
  in
  if v_in_atom then None
  else
    let c =
      List.fold_left
        (fun acc (e, k) -> if is_v e then acc + k else acc)
        0 l.Simplify.terms
    in
    let residual =
      { l with Simplify.terms = List.filter (fun (e, _) -> not (is_v e)) l.Simplify.terms }
    in
    match Bound.of_expr_map ranges_no_v (Simplify.of_linear residual) with
    | Some { Bound.lo; hi } -> Some (c, lo, hi, ext)
    | None -> None

(* Is some multiple [c*d] with [1 <= d <= dmax] (either sign of the
   product) inside [s_lo, s_hi]? [c = 0] asks whether 0 is. *)
let exists_multiple c ~dmax s_lo s_hi =
  if s_lo > s_hi then false
  else if c = 0 then s_lo <= 0 && 0 <= s_hi
  else
    let bound = max (abs s_lo) (abs s_hi) in
    let rec go d =
      if d > dmax then false
      else
        let s = c * d in
        if abs s > bound then false
        else if (s >= s_lo && s <= s_hi) || (-s >= s_lo && -s <= s_hi) then true
        else go (d + 1)
    in
    go 1

type verdict = No_conflict | Possible | Proven

type info =
  access * Region.hull option Lazy.t * (int * int * int * int) option list Lazy.t

(* Conflict verdict for one pair of accesses under a loop var of extent
   [e_loop]. [self] marks the write-write pair of a single site with
   itself. The per-access hull and per-dimension info ride along lazily:
   the pair loop is quadratic, and recomputing the simplifier-heavy
   hull/stride analysis per pair dominated the whole checker. *)
let analyze ~e_loop ~self ((a : access), ha, da) ((b : access), hb, db) =
  if List.length a.a_region <> List.length b.a_region then Possible
  else
    (* Static pre-check: if the full hulls never intersect, the accesses
       are disjoint outright. *)
    match (Lazy.force ha, Lazy.force hb) with
    | Some ha, Some hb when Region.intersect_hull ha hb = None -> No_conflict
    | _ ->
        let da = Lazy.force da and db = Lazy.force db in
        let dims = List.combine da db in
        let dmax = e_loop - 1 in
        let disjoint_dim = function
          | Some (c1, b1lo, b1hi, e1), Some (c2, b2lo, b2hi, e2) when c1 = c2 ->
              let s_lo = b1lo - b2hi - e2 + 1 and s_hi = b1hi - b2lo + e1 - 1 in
              not (exists_multiple c1 ~dmax s_lo s_hi)
          | _ -> false
        in
        if List.exists disjoint_dim dims then No_conflict
        else
          let known =
            List.for_all
              (function
                | Some (c1, _, _, _), Some (c2, _, _, _) -> c1 = c2
                | _ -> false)
              dims
          in
          if not known then Possible
          else if a.a_guarded || b.a_guarded then Possible
          else
            (* Witness search: one iteration distance d that collides in
               every dimension simultaneously. *)
            let collides_at d =
              List.for_all
                (function
                  | Some (c, b1lo, b1hi, e1), Some (_, b2lo, b2hi, e2) ->
                      if self then abs (c * d) <= e1 - 1
                      else
                        b1lo = b1hi && b2lo = b2hi
                        &&
                        let s = c * d in
                        s >= b1lo - b2hi - e2 + 1 && s <= b1hi - b2lo + e1 - 1
                  | _ -> false)
                dims
            in
            let rec search d =
              if d > min dmax 4096 then Possible
              else if collides_at d || collides_at (-d) then Proven
              else search (d + 1)
            in
            search 1

(* ------------------------------------------------------------------ *)
(* Per-loop sites                                                      *)

type site = {
  site_for : Stmt.for_;
  site_loops : string list;  (** enclosing loop names, innermost first *)
  site_chain : Stmt.for_ list;
      (** enclosing loops, outermost first, ending with this one *)
  site_outer : Bound.interval Var.Map.t;
  site_inner : Bound.interval Var.Map.t;
  site_accesses : access list;
}

let site_ranges (s : site) =
  let u = Var.Map.union (fun _ a _ -> Some a) in
  u
    (Var.Map.add s.site_for.Stmt.loop_var
       (Bound.of_extent s.site_for.Stmt.extent)
       s.site_outer)
    s.site_inner

let collect (f : Primfunc.t) : site list =
  let sites = ref [] in
  let next_id = ref 0 in
  let fresh_id () = incr next_id; !next_id in
  (* Walk bottom-up: returns the subtree's accesses (in loop-variable
     space) and the ranges of the loop variables it contains. Sites are
     recorded post-order (innermost loops first), matching the order in
     which the legacy race detector visited parallel loops. *)
  let rec walk ~outer ~chain ~subst ~guarded ~block ~loops (s : Stmt.t) :
      access list * Bound.interval Var.Map.t =
    let union_inner = Var.Map.union (fun _ a _ -> Some a) in
    match s with
    | Stmt.For r ->
        let outer' = Var.Map.add r.loop_var (Bound.of_extent r.extent) outer in
        let loops' = r.loop_var.Var.name :: loops in
        let chain' = r :: chain in
        let accs, inner =
          walk ~outer:outer' ~chain:chain' ~subst ~guarded ~block ~loops:loops'
            r.body
        in
        sites :=
          {
            site_for = r;
            site_loops = loops';
            site_chain = List.rev chain';
            site_outer = outer;
            site_inner = inner;
            site_accesses = accs;
          }
          :: !sites;
        (accs, Var.Map.add r.loop_var (Bound.of_extent r.extent) inner)
    | Stmt.Seq ss ->
        List.fold_left
          (fun (accs, inner) s ->
            let a, i = walk ~outer ~chain ~subst ~guarded ~block ~loops s in
            (a @ accs, union_inner inner i))
          ([], Var.Map.empty) ss
    | Stmt.If (c, t, e) ->
        let reads = expr_accesses ~outer ~subst ~guarded:true ~block c in
        let at, it = walk ~outer ~chain ~subst ~guarded:true ~block ~loops t in
        let ae, ie =
          match e with
          | None -> ([], Var.Map.empty)
          | Some e -> walk ~outer ~chain ~subst ~guarded:true ~block ~loops e
        in
        (reads @ at @ ae, union_inner it ie)
    | Stmt.Eval e ->
        (expr_accesses ~outer ~subst ~guarded ~block e, Var.Map.empty)
    | Stmt.Store (buf, idx, value) ->
        let reads =
          List.concat_map (expr_accesses ~outer ~subst ~guarded ~block) (value :: idx)
        in
        let write =
          make_access ~ranges:outer ~id:(fresh_id ()) ~block ~buffer:buf
            ~region:(List.map (fun i -> (Expr.subst_map subst i, 1)) idx)
            ~write:true ~guarded
        in
        (write :: reads, Var.Map.empty)
    | Stmt.Block br ->
        let b = br.block in
        let binding_reads =
          List.concat_map
            (expr_accesses ~outer ~subst ~guarded ~block)
            (br.predicate :: br.iter_values)
        in
        let subst' =
          List.fold_left2
            (fun m (iv : Stmt.iter_var) value ->
              Var.Map.add iv.var (Expr.subst_map subst value) m)
            subst b.iter_vars br.iter_values
        in
        let guarded' = guarded || br.predicate <> Expr.Bool true in
        let _, inner_init =
          match b.init with
          | None -> ([], Var.Map.empty)
          | Some init ->
              walk ~outer ~chain ~subst:subst' ~guarded:guarded' ~block:b.name
                ~loops init
        in
        let _, inner_body =
          walk ~outer ~chain ~subst:subst' ~guarded:guarded' ~block:b.name
            ~loops b.body
        in
        (* The block's summary for enclosing loops is its declared
           signature, substituted into loop-variable space. *)
        let declared write (r : Stmt.buffer_region) =
          make_access ~ranges:outer ~id:(fresh_id ()) ~block:b.name
            ~buffer:r.buffer
            ~region:
              (List.map (fun (mn, ext) -> (Expr.subst_map subst' mn, ext)) r.region)
            ~write ~guarded:guarded'
        in
        ( (if String.equal b.name Primfunc.root_block_name then []
           else
             List.map (declared false) b.reads @ List.map (declared true) b.writes)
          @ binding_reads,
          union_inner inner_init inner_body )
  and expr_accesses ~outer ~subst ~guarded ~block e =
    let out = ref [] in
    Expr.iter
      (function
        | Expr.Load (buf, idx) | Expr.Ptr (buf, idx) ->
            out :=
              make_access ~ranges:outer ~id:(fresh_id ()) ~block ~buffer:buf
                ~region:(List.map (fun i -> (Expr.subst_map subst i, 1)) idx)
                ~write:false ~guarded
              :: !out
        | _ -> ())
      e;
    !out
  in
  let root = Primfunc.root_block f in
  ignore
    (walk ~outer:Var.Map.empty ~chain:[] ~subst:Var.Map.empty ~guarded:false
       ~block:root.Stmt.name ~loops:[] f.body);
  List.rev !sites

(* ------------------------------------------------------------------ *)
(* Loop-carried conflicts (the race detector's pair analysis)          *)

type conflict = {
  cf_write : access;  (** oriented: always a write *)
  cf_other : access;
  cf_self : bool;
  cf_write_write : bool;
  cf_verdict : verdict;  (** [Possible] or [Proven]; clean pairs are dropped *)
}

let loop_conflicts ?e_loop (site : site) : conflict list =
  let r = site.site_for in
  let v = r.Stmt.loop_var in
  let e_loop = match e_loop with Some e -> e | None -> r.Stmt.extent in
  let ranges_no_v =
    Var.Map.union (fun _ a _ -> Some a) site.site_outer site.site_inner
  in
  let accs = List.filter (fun a -> checked_scope a.a_buffer) site.site_accesses in
  let infos : info list =
    List.map
      (fun a ->
        ( a,
          a.a_hull,
          lazy
            (List.map2 (dim_info ~ranges_no_v v) (Lazy.force a.a_linear)
               a.a_region) ))
      accs
  in
  let out = ref [] in
  let pair (((a : access), _, _) as ia) (((b : access), _, _) as ib) =
    if Buffer.equal a.a_buffer b.a_buffer && (a.a_write || b.a_write) then begin
      let self = a.a_id = b.a_id in
      (* orient so the first access is a write *)
      let ia, ib = if a.a_write then (ia, ib) else (ib, ia) in
      let (a, _, _) = ia and (b, _, _) = ib in
      match analyze ~e_loop ~self ia ib with
      | No_conflict -> ()
      | verdict ->
          out :=
            {
              cf_write = a;
              cf_other = b;
              cf_self = self;
              cf_write_write = a.a_write && b.a_write;
              cf_verdict = verdict;
            }
            :: !out
    end
  in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        (if let x, _, _ = a in x.a_write then pair a a);
        List.iter (pair a) rest;
        pairs rest
  in
  pairs infos;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Distance vectors and direction domains over a loop chain            *)

(* Exact collision window of a pair per dimension with common strides:
   writing access [x]'s footprint as [L_x + [0, e_x - 1]], iterations [i]
   of [a] and [i + d] of [b] overlap iff
     sum_v c_v * d_v  in  [ka - kb - eb + 1, ka - kb + ea - 1]
   where [k_x] is the (constant) residual. Exactness requires every index
   atom to be a plain variable, strides to agree variable-by-variable
   between the two accesses (so variables outside the chain cancel at
   distance 0), and both accesses to be unguarded. *)
exception Inexact

let max_step = 3
let max_vectors = 20_000

let distance_vectors ~chain (a : access) (b : access) : int list list option =
  if a.a_guarded || b.a_guarded then None
  else if List.length a.a_region <> List.length b.a_region then None
  else
    try
      let la = Lazy.force a.a_linear and lb = Lazy.force b.a_linear in
      let chain_vars = List.map fst chain in
      let coeffs (l : Simplify.linear) =
        List.fold_left
          (fun m (e, k) ->
            match e with
            | Expr.Var u ->
                Var.Map.update u
                  (fun p -> Some (Option.value p ~default:0 + k))
                  m
            | _ -> raise Inexact)
          Var.Map.empty l.Simplify.terms
      in
      let dims =
        List.map2
          (fun ((la : Simplify.linear), (_, ea)) (lb, (_, eb)) ->
            let ca = coeffs la and cb = coeffs lb in
            let all = Var.Map.union (fun _ x _ -> Some x) ca cb in
            Var.Map.iter
              (fun u _ ->
                let ga = Option.value (Var.Map.find_opt u ca) ~default:0 in
                let gb = Option.value (Var.Map.find_opt u cb) ~default:0 in
                if ga <> gb then raise Inexact)
              all;
            let stride v = Option.value (Var.Map.find_opt v ca) ~default:0 in
            ( List.map stride chain_vars,
              la.Simplify.const - lb.Simplify.const - eb + 1,
              la.Simplify.const - lb.Simplify.const + ea - 1 ))
          (List.combine la a.a_region)
          (List.combine lb b.a_region)
      in
      (* Enumerate the distance box: |d_v| <= min(ext_v - 1, max_step). *)
      let steps =
        List.map (fun (_, ext) -> min (max 0 (ext - 1)) max_step) chain
      in
      let total =
        List.fold_left (fun acc s -> acc * ((2 * s) + 1)) 1 steps
      in
      if total > max_vectors then raise Inexact;
      let collides d =
        List.for_all
          (fun (strides, lo, hi) ->
            let s = List.fold_left2 (fun acc c dv -> acc + (c * dv)) 0 strides d in
            s >= lo && s <= hi)
          dims
      in
      let rec enum acc = function
        | [] ->
            let d = List.rev acc in
            if List.exists (fun x -> x <> 0) d && collides d then [ d ] else []
        | s :: rest ->
            let out = ref [] in
            for dv = -s to s do
              out := enum (dv :: acc) rest @ !out
            done;
            !out
      in
      Some (enum [] steps)
    with Inexact -> None

type signs = { s_neg : bool; s_zero : bool; s_pos : bool }

type directions = No_dependence | Domains of signs list

(* Does an integer d in [dlo, dhi] satisfy c*d in [lo, hi]?  c <> 0. *)
let exists_d_in ~c ~lo ~hi ~dlo ~dhi =
  let rec fdiv a b = if b < 0 then fdiv (-a) (-b) else if a >= 0 then a / b else -(((-a) + b - 1) / b) in
  let rec cdiv a b = if b < 0 then cdiv (-a) (-b) else if a >= 0 then (a + b - 1) / b else -((-a) / b) in
  if lo > hi then false
  else
    let dmin, dmax = if c > 0 then (cdiv lo c, fdiv hi c) else (cdiv hi c, fdiv lo c) in
    max dlo dmin <= min dhi dmax

let direction_domains ~ranges ~chain (a : access) (b : access) : directions =
  let top ext = { s_neg = ext > 1; s_zero = true; s_pos = ext > 1 } in
  if List.length a.a_region <> List.length b.a_region then
    Domains (List.map (fun (_, ext) -> top ext) chain)
  else
    match (Lazy.force a.a_hull, Lazy.force b.a_hull) with
    | Some ha, Some hb when Region.intersect_hull ha hb = None -> No_dependence
    | _ -> (
        let la = Lazy.force a.a_linear and lb = Lazy.force b.a_linear in
        let exception Independent in
        try
          let dom_of (v, ext) =
            let ranges_no_v = Var.Map.remove v ranges in
            let da = List.map2 (dim_info ~ranges_no_v v) la a.a_region in
            let db = List.map2 (dim_info ~ranges_no_v v) lb b.a_region in
            List.fold_left2
              (fun dom ia ib ->
                match (ia, ib) with
                | Some (c1, b1lo, b1hi, e1), Some (c2, b2lo, b2hi, e2)
                  when c1 = c2 ->
                    let s_lo = b1lo - b2hi - e2 + 1
                    and s_hi = b1hi - b2lo + e1 - 1 in
                    if c1 = 0 then
                      if s_lo <= 0 && 0 <= s_hi then dom else raise Independent
                    else
                      let d =
                        {
                          s_neg =
                            dom.s_neg
                            && exists_d_in ~c:c1 ~lo:s_lo ~hi:s_hi
                                 ~dlo:(-(ext - 1)) ~dhi:(-1);
                          s_zero = dom.s_zero && s_lo <= 0 && 0 <= s_hi;
                          s_pos =
                            dom.s_pos
                            && exists_d_in ~c:c1 ~lo:s_lo ~hi:s_hi ~dlo:1
                                 ~dhi:(ext - 1);
                        }
                      in
                      if not (d.s_neg || d.s_zero || d.s_pos) then
                        raise Independent
                      else d
                | _ -> dom)
              (top ext) da db
          in
          Domains (List.map dom_of chain)
        with Independent -> No_dependence)

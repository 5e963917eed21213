(** First-class schedule traces (paper §3.2, §4.4).

    Every facade primitive appends one typed instruction whose operands are
    symbolic random variables: loops are [l<n>] RVs defined by the
    instruction that produced them ([get_loops], [split], [fuse], ...),
    derived blocks are [b<n>] RVs, original blocks and buffers are quoted
    literals. A trace is therefore independent of the concrete (per-process)
    loop-variable identities of the program it was recorded against, which
    is what makes it serializable and replayable: [Schedule.replay] re-binds
    the RVs as it re-applies each instruction to a fresh function.

    The serialized form is line-oriented and human-inspectable — one
    instruction per line, [outs = name(args)] — and round-trips through
    [to_string]/[of_string]. [Decide] pseudo-instructions carry the tuning
    knob decisions a sketch consumed while scheduling, so a database record
    holding a trace needs no separate decision vector to be replayed. *)

open Tir_ir

type loop_rv = int
type block_rv = int

(** Original blocks are addressed by their (stable) name; blocks created by
    an earlier instruction by that instruction's output RV. *)
type block_ref = Bname of string | Brv of block_rv

type instr =
  | Get_loops of { block : block_ref; outs : loop_rv list }
  | Split of { loop : loop_rv; factors : int list; outs : loop_rv list }
  | Fuse of { a : loop_rv; b : loop_rv; out : loop_rv }
  | Fuse_many of { loops : loop_rv list; out : loop_rv }
  | Reorder of { loops : loop_rv list }
  | Bind of { loop : loop_rv; thread : string }
  | Parallel of { loop : loop_rv }
  | Vectorize of { loop : loop_rv }
  | Unroll of { loop : loop_rv }
  | Annotate of { loop : loop_rv; key : string; value : string }
  | Annotate_block of { block : block_ref; key : string; value : string }
  | Compute_at of { block : block_ref; loop : loop_rv }
  | Reverse_compute_at of { block : block_ref; loop : loop_rv }
  | Compute_inline of { block : block_ref }
  | Reverse_compute_inline of { block : block_ref }
  | Cache_read of { block : block_ref; buffer : string; scope : string; out : block_rv }
  | Cache_write of { block : block_ref; buffer : string; scope : string; out : block_rv }
  | Set_scope of { buffer : string; scope : string }
  | Blockize of { loop : loop_rv; out : block_rv }
  | Tensorize of { loop : loop_rv; intrin : string; out : block_rv }
  | Tensorize_block of { block : block_ref; intrin : string }
  | Decompose_reduction of { block : block_ref; loop : loop_rv; out : block_rv }
  | Merge_reduction of { init : block_ref; update : block_ref }
  | Rfactor of { block : block_ref; loop : loop_rv; out : block_rv }
  | Decide of { knob : string; choice : int }

type t = instr list (* oldest first *)

let equal (a : t) (b : t) = a = b

exception Parse_error of string

let parse_err fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Uniform encoding: every instruction is (outs, opcode, args).        *)
(* Printing and parsing share it, so the text form round-trips by      *)
(* construction.                                                       *)
(* ------------------------------------------------------------------ *)

type arg =
  | A_loop of loop_rv
  | A_block of block_ref
  | A_buf of string
  | A_str of string
  | A_int of int
  | A_loops of loop_rv list
  | A_ints of int list

type out_rv = O_loop of loop_rv | O_block of block_rv

let encode (i : instr) : out_rv list * string * arg list =
  match i with
  | Get_loops { block; outs } ->
      (List.map (fun l -> O_loop l) outs, "get_loops", [ A_block block ])
  | Split { loop; factors; outs } ->
      (List.map (fun l -> O_loop l) outs, "split", [ A_loop loop; A_ints factors ])
  | Fuse { a; b; out } -> ([ O_loop out ], "fuse", [ A_loop a; A_loop b ])
  | Fuse_many { loops; out } -> ([ O_loop out ], "fuse_many", [ A_loops loops ])
  | Reorder { loops } -> ([], "reorder", [ A_loops loops ])
  | Bind { loop; thread } -> ([], "bind", [ A_loop loop; A_str thread ])
  | Parallel { loop } -> ([], "parallel", [ A_loop loop ])
  | Vectorize { loop } -> ([], "vectorize", [ A_loop loop ])
  | Unroll { loop } -> ([], "unroll", [ A_loop loop ])
  | Annotate { loop; key; value } ->
      ([], "annotate", [ A_loop loop; A_str key; A_str value ])
  | Annotate_block { block; key; value } ->
      ([], "annotate_block", [ A_block block; A_str key; A_str value ])
  | Compute_at { block; loop } -> ([], "compute_at", [ A_block block; A_loop loop ])
  | Reverse_compute_at { block; loop } ->
      ([], "reverse_compute_at", [ A_block block; A_loop loop ])
  | Compute_inline { block } -> ([], "compute_inline", [ A_block block ])
  | Reverse_compute_inline { block } ->
      ([], "reverse_compute_inline", [ A_block block ])
  | Cache_read { block; buffer; scope; out } ->
      ([ O_block out ], "cache_read", [ A_block block; A_buf buffer; A_str scope ])
  | Cache_write { block; buffer; scope; out } ->
      ([ O_block out ], "cache_write", [ A_block block; A_buf buffer; A_str scope ])
  | Set_scope { buffer; scope } -> ([], "set_scope", [ A_buf buffer; A_str scope ])
  | Blockize { loop; out } -> ([ O_block out ], "blockize", [ A_loop loop ])
  | Tensorize { loop; intrin; out } ->
      ([ O_block out ], "tensorize", [ A_loop loop; A_str intrin ])
  | Tensorize_block { block; intrin } ->
      ([], "tensorize_block", [ A_block block; A_str intrin ])
  | Decompose_reduction { block; loop; out } ->
      ([ O_block out ], "decompose_reduction", [ A_block block; A_loop loop ])
  | Merge_reduction { init; update } ->
      ([], "merge_reduction", [ A_block init; A_block update ])
  | Rfactor { block; loop; out } ->
      ([ O_block out ], "rfactor", [ A_block block; A_loop loop ])
  | Decide { knob; choice } -> ([], "decide", [ A_str knob; A_int choice ])

let decode (name : string) (outs : out_rv list) (args : arg list) : instr =
  let loops_of outs =
    List.map
      (function O_loop l -> l | O_block _ -> parse_err "%s: loop output expected" name)
      outs
  in
  let block_out () =
    match outs with
    | [ O_block b ] -> b
    | _ -> parse_err "%s: exactly one block output expected" name
  in
  let loop_out () =
    match outs with
    | [ O_loop l ] -> l
    | _ -> parse_err "%s: exactly one loop output expected" name
  in
  let no_out () =
    if outs <> [] then parse_err "%s: no outputs expected" name
  in
  (* An empty list token is ambiguous between loops and ints. *)
  let as_loops = function
    | A_loops ls -> ls
    | A_ints [] -> []
    | _ -> parse_err "%s: loop list expected" name
  in
  let as_ints = function
    | A_ints is -> is
    | A_loops [] -> []
    | _ -> parse_err "%s: int list expected" name
  in
  match (name, args) with
  | "get_loops", [ A_block block ] -> Get_loops { block; outs = loops_of outs }
  | "split", [ A_loop loop; fs ] ->
      Split { loop; factors = as_ints fs; outs = loops_of outs }
  | "fuse", [ A_loop a; A_loop b ] -> Fuse { a; b; out = loop_out () }
  | "fuse_many", [ ls ] -> Fuse_many { loops = as_loops ls; out = loop_out () }
  | "reorder", [ ls ] ->
      no_out ();
      Reorder { loops = as_loops ls }
  | "bind", [ A_loop loop; A_str thread ] ->
      no_out ();
      Bind { loop; thread }
  | "parallel", [ A_loop loop ] ->
      no_out ();
      Parallel { loop }
  | "vectorize", [ A_loop loop ] ->
      no_out ();
      Vectorize { loop }
  | "unroll", [ A_loop loop ] ->
      no_out ();
      Unroll { loop }
  | "annotate", [ A_loop loop; A_str key; A_str value ] ->
      no_out ();
      Annotate { loop; key; value }
  | "annotate_block", [ A_block block; A_str key; A_str value ] ->
      no_out ();
      Annotate_block { block; key; value }
  | "compute_at", [ A_block block; A_loop loop ] ->
      no_out ();
      Compute_at { block; loop }
  | "reverse_compute_at", [ A_block block; A_loop loop ] ->
      no_out ();
      Reverse_compute_at { block; loop }
  | "compute_inline", [ A_block block ] ->
      no_out ();
      Compute_inline { block }
  | "reverse_compute_inline", [ A_block block ] ->
      no_out ();
      Reverse_compute_inline { block }
  | "cache_read", [ A_block block; A_buf buffer; A_str scope ] ->
      Cache_read { block; buffer; scope; out = block_out () }
  | "cache_write", [ A_block block; A_buf buffer; A_str scope ] ->
      Cache_write { block; buffer; scope; out = block_out () }
  | "set_scope", [ A_buf buffer; A_str scope ] ->
      no_out ();
      Set_scope { buffer; scope }
  | "blockize", [ A_loop loop ] -> Blockize { loop; out = block_out () }
  | "tensorize", [ A_loop loop; A_str intrin ] ->
      Tensorize { loop; intrin; out = block_out () }
  | "tensorize_block", [ A_block block; A_str intrin ] ->
      no_out ();
      Tensorize_block { block; intrin }
  | "decompose_reduction", [ A_block block; A_loop loop ] ->
      Decompose_reduction { block; loop; out = block_out () }
  | "merge_reduction", [ A_block init; A_block update ] ->
      no_out ();
      Merge_reduction { init; update }
  | "rfactor", [ A_block block; A_loop loop ] ->
      Rfactor { block; loop; out = block_out () }
  | "decide", [ A_str knob; A_int choice ] ->
      no_out ();
      Decide { knob; choice }
  | _ -> parse_err "unknown instruction or bad operands: %s" name

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let quote s = "\"" ^ String.escaped s ^ "\""

let string_of_arg = function
  | A_loop l -> Printf.sprintf "l%d" l
  | A_block (Bname n) -> "%" ^ quote n
  | A_block (Brv b) -> Printf.sprintf "b%d" b
  | A_buf n -> "@" ^ quote n
  | A_str s -> quote s
  | A_int i -> string_of_int i
  | A_loops ls -> "[" ^ String.concat ", " (List.map (Printf.sprintf "l%d") ls) ^ "]"
  | A_ints is -> "[" ^ String.concat ", " (List.map string_of_int is) ^ "]"

let string_of_out = function
  | O_loop l -> Printf.sprintf "l%d" l
  | O_block b -> Printf.sprintf "b%d" b

let call name args =
  Printf.sprintf "%s(%s)" name (String.concat ", " (List.map string_of_arg args))

let instr_to_string (i : instr) =
  let outs, name, args = encode i in
  match outs with
  | [] -> call name args
  | outs -> String.concat ", " (List.map string_of_out outs) ^ " = " ^ call name args

let pp_instr ppf i = Fmt.string ppf (instr_to_string i)

let pp ppf (t : t) = Fmt.(list ~sep:cut pp_instr) ppf t

let to_string (t : t) = String.concat "\n" (List.map instr_to_string t)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* Split [s] on top-level commas: commas inside quotes or brackets do not
   separate. *)
let split_commas s =
  let parts = ref [] and buf = Stdlib.Buffer.create 16 in
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        Stdlib.Buffer.add_char buf c;
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' ->
            in_str := true;
            Stdlib.Buffer.add_char buf c
        | '[' ->
            incr depth;
            Stdlib.Buffer.add_char buf c
        | ']' ->
            decr depth;
            Stdlib.Buffer.add_char buf c
        | ',' when !depth = 0 ->
            parts := Stdlib.Buffer.contents buf :: !parts;
            Stdlib.Buffer.clear buf
        | c -> Stdlib.Buffer.add_char buf c)
    s;
  parts := Stdlib.Buffer.contents buf :: !parts;
  List.rev_map String.trim !parts

let unquote s =
  let n = String.length s in
  if n < 2 || s.[0] <> '"' || s.[n - 1] <> '"' then parse_err "bad string literal %s" s
  else
    let body = String.sub s 1 (n - 2) in
    match Scanf.unescaped body with
    | v -> v
    | exception _ -> parse_err "bad escape in string literal %s" s

let rv_of_string kind s =
  let n = String.length s in
  if n < 2 || s.[0] <> kind then parse_err "bad %c-RV %s" kind s
  else
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some i when i >= 0 -> i
    | _ -> parse_err "bad %c-RV %s" kind s

let arg_of_string s =
  if s = "" then parse_err "empty operand"
  else if s.[0] = '%' then A_block (Bname (unquote (String.sub s 1 (String.length s - 1))))
  else if s.[0] = '@' then A_buf (unquote (String.sub s 1 (String.length s - 1)))
  else if s.[0] = '"' then A_str (unquote s)
  else if s.[0] = '[' then begin
    if s.[String.length s - 1] <> ']' then parse_err "unterminated list %s" s;
    let inner = String.trim (String.sub s 1 (String.length s - 2)) in
    if inner = "" then A_ints []
    else
      let elems = split_commas inner in
      if List.for_all (fun e -> e <> "" && e.[0] = 'l') elems then
        A_loops (List.map (rv_of_string 'l') elems)
      else
        A_ints
          (List.map
             (fun e ->
               match int_of_string_opt e with
               | Some i -> i
               | None -> parse_err "bad int %s in list" e)
             elems)
  end
  else if s.[0] = 'l' && String.length s > 1 && s.[1] >= '0' && s.[1] <= '9' then
    A_loop (rv_of_string 'l' s)
  else if s.[0] = 'b' && String.length s > 1 && s.[1] >= '0' && s.[1] <= '9' then
    A_block (Brv (rv_of_string 'b' s))
  else
    match int_of_string_opt s with
    | Some i -> A_int i
    | None -> parse_err "bad operand %s" s

let out_of_string s =
  if s = "" then parse_err "empty output RV"
  else if s.[0] = 'l' then O_loop (rv_of_string 'l' s)
  else if s.[0] = 'b' then O_block (rv_of_string 'b' s)
  else parse_err "bad output RV %s" s

(** Parse one line; [None] for blank lines and [#] comments. *)
let instr_of_string (line : string) : instr option =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else begin
    let lparen =
      match String.index_opt line '(' with
      | Some i -> i
      | None -> parse_err "missing '(' in %S" line
    in
    if line.[String.length line - 1] <> ')' then parse_err "missing ')' in %S" line;
    let head = String.sub line 0 lparen in
    let outs, name =
      match String.index_opt head '=' with
      | None -> ([], String.trim head)
      | Some eq ->
          let outs_str = String.trim (String.sub head 0 eq) in
          let outs =
            if outs_str = "" then []
            else List.map out_of_string (split_commas outs_str)
          in
          (outs, String.trim (String.sub head (eq + 1) (String.length head - eq - 1)))
    in
    let args_str =
      String.trim (String.sub line (lparen + 1) (String.length line - lparen - 2))
    in
    let args = if args_str = "" then [] else List.map arg_of_string (split_commas args_str) in
    Some (decode name outs args)
  end

let of_string (s : string) : t =
  List.filter_map instr_of_string (String.split_on_char '\n' s)

let of_string_result (s : string) : (t, Tir_core.Error.t) result =
  match of_string s with
  | t -> Ok t
  | exception Parse_error msg ->
      Error (Tir_core.Error.make ~context:"trace" Tir_core.Error.Parse msg)

(** The knob decisions recorded in the trace, oldest first; a knob decided
    more than once keeps its first value. *)
let decisions (t : t) : (string * int) list =
  List.rev
    (List.fold_left
       (fun acc i ->
         match i with
         | Decide { knob; choice } when not (List.mem_assoc knob acc) ->
             (knob, choice) :: acc
         | _ -> acc)
       [] t)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(** Mutable recording state carried by a schedule: the instruction list
    (newest first) plus the concrete-entity-to-RV interning tables. Every
    component is a persistent value behind a mutable field, so [clone] is
    an O(1) record copy — the apply cache snapshots the builder after
    every schedule step, which made a hashtable-backed clone an O(trace²)
    tax on schedule application. *)
module IntMap = Map.Make (Int)
module StrMap = Map.Make (String)

type builder = {
  mutable rev : instr list;
  mutable next_loop : int;
  mutable next_block : int;
  mutable loop_rvs : loop_rv IntMap.t;  (** [Var.id] -> latest loop RV *)
  mutable block_rvs : block_rv StrMap.t;  (** derived block name -> RV *)
}

let builder () =
  {
    rev = [];
    next_loop = 0;
    next_block = 0;
    loop_rvs = IntMap.empty;
    block_rvs = StrMap.empty;
  }

let clone (b : builder) =
  {
    rev = b.rev;
    next_loop = b.next_loop;
    next_block = b.next_block;
    loop_rvs = b.loop_rvs;
    block_rvs = b.block_rvs;
  }

let instrs (b : builder) : t = List.rev b.rev

let length (b : builder) = List.length b.rev

let fresh_loop b =
  let rv = b.next_loop in
  b.next_loop <- rv + 1;
  rv

(* An input loop that was never produced by a traced instruction gets a
   fresh RV that no instruction defines: recording never fails, and replay
   reports the unbound RV if the trace is genuinely incomplete. Interning
   is idempotent, so the facade interns a step's inputs once, before the
   primitive runs, and the apply-cache key and the recorded instruction
   share them. *)
let loop_in b (v : Var.t) =
  match IntMap.find_opt v.Var.id b.loop_rvs with
  | Some rv -> rv
  | None ->
      let rv = fresh_loop b in
      b.loop_rvs <- IntMap.add v.Var.id rv b.loop_rvs;
      rv

let loop_out b (v : Var.t) =
  let rv = fresh_loop b in
  b.loop_rvs <- IntMap.add v.Var.id rv b.loop_rvs;
  rv

let block_in b name =
  match StrMap.find_opt name b.block_rvs with
  | Some rv -> Brv rv
  | None -> Bname name

let block_out b name =
  let rv = b.next_block in
  b.next_block <- rv + 1;
  b.block_rvs <- StrMap.add name rv b.block_rvs;
  rv

(* The call half of the printed instruction, [name(args)]. RV numbering is
   a pure function of the instruction sequence, so two schedules that
   applied the same primitives to the same base spell the same step
   identically — which is what lets the apply cache recognize it. *)
let input_key (i : instr) =
  let _, name, args = encode i in
  call name args

type outs =
  | R_unit
  | R_loop of Var.t
  | R_loops of Var.t list
  | R_block of string
  | R_buf of Buffer.t

let record b (i : instr) (r : outs) =
  let i =
    match (i, r) with
    | Get_loops x, R_loops vs -> Get_loops { x with outs = List.map (loop_out b) vs }
    | Split x, R_loops vs -> Split { x with outs = List.map (loop_out b) vs }
    | Fuse x, R_loop v -> Fuse { x with out = loop_out b v }
    | Fuse_many x, R_loop v -> Fuse_many { x with out = loop_out b v }
    | Cache_read x, R_block n -> Cache_read { x with out = block_out b n }
    | Cache_write x, R_block n -> Cache_write { x with out = block_out b n }
    | Blockize x, R_block n -> Blockize { x with out = block_out b n }
    | Tensorize x, R_block n -> Tensorize { x with out = block_out b n }
    | Decompose_reduction x, R_block n ->
        Decompose_reduction { x with out = block_out b n }
    | Rfactor x, R_block n -> Rfactor { x with out = block_out b n }
    | _, (R_unit | R_buf _) -> i
    | _ -> invalid_arg ("Trace.record: outputs do not fit " ^ instr_to_string i)
  in
  b.rev <- i :: b.rev

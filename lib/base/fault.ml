(** Deterministic fault injection: failure decisions are a keyed hash of
    (seed, site, key), never a stateful RNG, so the failure schedule does
    not depend on job counts, interleaving, or process boundaries. *)

type site = Measure | Db_write

let site_name = function
  | Measure -> "measure"
  | Db_write -> "db"

exception Injected of { site : site; key : string }

type config = { rate : float; seed : int; sites : site list }

(* None = not yet initialized (consult TIR_FAULTS on first probe);
   Some None = explicitly disabled; Some (Some c) = active. *)
let state : config option option Atomic.t = Atomic.make None

let parse_env s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let rate = String.sub s 0 i in
      let seed = String.sub s (i + 1) (String.length s - i - 1) in
      match (float_of_string_opt rate, int_of_string_opt seed) with
      | Some r, Some sd when Float.is_finite r -> Some (Float.max 0.0 (Float.min 1.0 r), sd)
      | _ -> None)

let of_env () =
  match Sys.getenv_opt "TIR_FAULTS" with
  | None -> None
  | Some s -> (
      match parse_env (String.trim s) with
      | Some (rate, seed) when rate > 0.0 ->
          Some { rate; seed; sites = [ Measure; Db_write ] }
      | _ -> None)

let current () =
  match Atomic.get state with
  | Some c -> c
  | None ->
      let c = of_env () in
      (* Racing initializers compute the same value; last write wins. *)
      Atomic.set state (Some c);
      c

let set ?(sites = [ Measure; Db_write ]) ~rate ~seed () =
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  Atomic.set state (Some (if rate > 0.0 then Some { rate; seed; sites } else None))

let clear () = Atomic.set state (Some None)

let config () =
  match current () with Some c -> Some (c.rate, c.seed) | None -> None

let enabled site =
  match current () with
  | Some c -> List.mem site c.sites
  | None -> false

(* --- keyed hash: FNV-1a over the key, mixed with the seed and site tag,
   finalized splitmix64-style. Deterministic and portable. --- *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fnv1a64 (s : string) (h0 : int64) =
  let h = ref h0 in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Map the top 53 bits to a float in [0, 1). *)
let unit_float h =
  let bits = Int64.shift_right_logical (mix64 h) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

let should_fail site ~key =
  match current () with
  | None -> false
  | Some c ->
      List.mem site c.sites
      &&
      let h = fnv1a64 key (Int64.logxor fnv_offset (Int64.of_int c.seed)) in
      let h = Int64.add h (Int64.of_int (Char.code (site_name site).[0])) in
      unit_float h < c.rate

let maybe_fail site ~key =
  if should_fail site ~key then raise (Injected { site; key })

let () =
  Printexc.register_printer (function
    | Injected { site; key } ->
        Some (Printf.sprintf "Fault.Injected(%s, %S)" (site_name site) key)
    | _ -> None)

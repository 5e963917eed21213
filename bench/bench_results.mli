(** The layout of [BENCH_results.json], which the bench writes and
    [tools/bench_check.exe] reads:

    {v
    {"fast": bool,
     "rows": [{"section": s, "name": s, "value": v, "unit": s, "gate": g}, ...]}
    v}

    (section, name, unit) identifies a row. Values are written with 17
    significant digits, so they read back as the same double and an exact
    gate compares every bit; a non-finite value is written as [null] and
    reads back as NaN. *)

(** How a row is judged against the baseline: [Exact] pins the value to
    the baseline row's, bit for bit; [Floor b] and [Ceiling b] bound the
    value itself, for rows that assert an invariant. Written as ["exact"],
    ["floor b"] and ["ceiling b"]. *)
type gate = Exact | Floor of float | Ceiling of float

type row = { section : string; name : string; value : float; unit_ : string; gate : gate }

val gate_to_string : gate -> string

(** ["[section] name (unit)"], the identity of a row. *)
val key : row -> string

val write : string -> fast:bool -> row list -> unit

(** [fast] and the rows in file order. Raises {!Tir_obs.Json_min.Invalid}
    on a malformed file, an unknown gate or a repeated row. *)
val read : string -> bool * row list

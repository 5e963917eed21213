(** Cheap 64-bit structural fingerprints for IR values.

    Fingerprints hash program structure only — variable {e names} and
    dtypes, buffer names/dtypes/shapes/scopes — never per-process ids, so
    structurally identical programs fingerprint identically in every
    process and at every [TIR_JOBS]. They are exactly as injective as the
    printed script (which also shows names, not ids) and replace
    MD5-of-printed-program as memo, space-id and database-replay keys at a
    fraction of the cost: one tree walk, no string building, no MD5. *)

type t = int64

val equal : t -> t -> bool
val compare : t -> t -> int

(** 16 lowercase hex digits; drop-in replacement for [Digest.to_hex] in
    composite string keys. *)
val to_hex : t -> string

(** FNV-1a over the bytes, finalized with a splitmix64 mixer. *)
val of_string : string -> t

val of_int : int -> t

(** Order-dependent combination, suitable for rolling hashes over
    instruction streams: [combine a b <> combine b a]. *)
val combine : t -> t -> t

(** Fingerprint of a whole function (name, params, attrs, body). Cached
    per-domain by physical identity — fingerprinting the same function
    value repeatedly is O(1). *)
val func : Primfunc.t -> t

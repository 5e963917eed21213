(** Program feature extraction for the learned cost model (paper §4.4):
    machine-tally work/traffic/parallelism plus structural properties
    (tensorization, vectorization, thread shape), log-scaled. *)

open Tir_ir

(** Feature vector length. *)
val dim : int

(** The features of a function from the per-nest tallies of its
    [Tir_sim.Machine.walk]. *)
val of_nests : Tir_sim.Target.t -> Primfunc.t -> Tir_sim.Machine.tally list -> float array

(** [of_nests] of the function's walk. Raises [Tir_sim.Machine.Unsupported]
    as the walk does. *)
val extract : Tir_sim.Target.t -> Primfunc.t -> float array

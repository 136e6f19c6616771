(** Deterministic pseudo-random number generator (splitmix64 core).

    All simulation randomness flows through explicit [Rng.t] values so that
    every experiment is reproducible from its seed. *)

type t

val create : seed:int -> t
val split : t -> t
(** Derive an independent stream (for per-node / per-process generators). *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float

(** Small running-statistics accumulator for experiment reporting
    (mean, standard deviation, min, max over repeated runs). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val stddev : t -> float
val min : t -> float
val max : t -> float
val of_list : float list -> t

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,1], computed from the retained samples
    by linear interpolation between closest ranks; [0.0] when empty. *)

val pp_ms : Format.formatter -> t -> unit
(** Render as "mean ± stddev ms [min..max]" where samples are milliseconds;
    "n=0" for an empty accumulator.  Exported for [test_obs], which checks
    both renderings. *)

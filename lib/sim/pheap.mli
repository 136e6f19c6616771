(** Imperative binary min-heap keyed by [(time, sequence)] so that events at
    equal times pop in insertion order (deterministic tie-breaking). *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> key:int -> 'a -> unit
(** Insert with priority [key]; FIFO among equal keys. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum [(key, value)]. *)

val pop_if_le : 'a t -> limit:int -> (int * 'a) option
(** [pop] only if the minimum key is [<= limit]; a single root access
    instead of the [peek_key]-then-[pop] double traversal. *)

val peek_key : 'a t -> int option

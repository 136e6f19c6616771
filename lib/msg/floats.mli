(** Packed little-endian float64 payloads for message passing. *)

val pack : float array -> string
val unpack : string -> float array

val pack_sub : float array -> pos:int -> len:int -> string
(** [pack_sub a ~pos ~len] is [pack (Array.sub a pos len)], without the
    intermediate array.  @raise Invalid_argument on a range outside [a]. *)

val unpack_into : string -> float array -> pos:int -> unit
(** [unpack_into s a ~pos] writes the floats of [s] into [a] from index
    [pos] on, as [Array.blit (unpack s) 0 a pos] would.
    @raise Invalid_argument when they do not fit. *)

val sum_packed : string -> string -> string
(** Elementwise sum of two packed arrays (reduction combiner). *)

(** Packed little-endian float64 payloads for message passing. *)

val pack : float array -> string
val unpack : string -> float array

val sum_packed : string -> string -> string
(** Elementwise sum of two packed arrays (reduction combiner). *)

(** Network addresses: IPv4-style 32-bit addresses plus ports.

    Applications inside pods only ever see {e virtual} addresses; the pod
    layer remaps them to {e real} addresses (`Zapc_pod.Namespace`).  This
    module is shared by both sides. *)

type ip = int
(** 32-bit address in host order. [0] is the wildcard (INADDR_ANY). *)

type t = { ip : ip; port : int }

val v : ip -> int -> t
val any : ip
val ip_of_string : string -> ip
(** Parse dotted-quad notation.  Exported for [test_simnet], which
    round-trips it with {!ip_to_string}.
    @raise Invalid_argument on bad input. *)

val ip_to_string : ip -> string
(** Dotted-quad notation.  Exported for [test_pod], whose programs log
    addresses, and [test_simnet]. *)

val make_ip : int -> int -> int -> int -> ip
val compare : t -> t -> int
val equal : t -> t -> bool
val equal_ip : ip -> ip -> bool
val pp : Format.formatter -> t -> unit
val pp_ip : Format.formatter -> ip -> unit
val to_value : t -> Zapc_codec.Value.t
val of_value : Zapc_codec.Value.t -> t

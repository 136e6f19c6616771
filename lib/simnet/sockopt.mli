(** Socket and protocol options, exposed through getsockopt/setsockopt-style
    accessors.  The checkpoint saves the {e entire} table (paper section 5:
    "the entire set of the parameters is included in the saved state"), so
    restores reproduce behaviour without knowing which options an
    application cares about. *)

type key =
  | SO_RCVBUF
  | SO_SNDBUF
  | SO_REUSEADDR
  | SO_KEEPALIVE
  | SO_LINGER
  | SO_OOBINLINE
  | SO_BROADCAST
  | SO_PRIORITY
  | SO_RCVTIMEO
  | SO_SNDTIMEO
  | SO_NONBLOCK  (** O_NONBLOCK, kept here for uniform save/restore *)
  | TCP_NODELAY
  | TCP_MAXSEG
  | TCP_KEEPIDLE
  | TCP_KEEPINTVL
  | TCP_KEEPCNT
  | TCP_STDURG
  | IP_TTL
  | IP_TOS

val all_keys : key list
val key_name : key -> string
val key_of_name : string -> key
val default : key -> int

type table
(** One socket's options: every key has a value, its {!default} until set. *)

val create : unit -> table
val get : table -> key -> int
val set : table -> key -> int -> unit

val to_value : table -> Zapc_codec.Value.t
(** Every key, set or not, in {!all_keys} order. *)

val of_value : Zapc_codec.Value.t -> table
(** The keys of the value count as set. *)

val copy_into : src:table -> dst:table -> unit
(** Copy onto [dst] only the keys [src] set explicitly (by {!set} or
    {!of_value}); [dst] keeps its values for the others. *)

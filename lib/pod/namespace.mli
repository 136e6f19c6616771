(** The pod's virtual private namespace (paper section 3).

    Identifiers visible inside a pod are virtual: PIDs and network addresses
    stay constant for the life of the application while the namespace remaps
    them to the real identifiers of whatever node the pod currently runs on.
    This decouples applications from the host and makes migration to nodes
    with different PID spaces and IP subnets possible. *)

module Addr = Zapc_simnet.Addr

type t

val create : unit -> t

(** {1 PIDs} *)

val fresh_vpid : t -> int -> int
(** [fresh_vpid t rpid] assigns the next virtual pid to a real pid. *)

val bind_vpid : t -> vpid:int -> rpid:int -> unit
(** Restore path: re-establish a checkpointed vpid binding. *)

val rpid_of_vpid : t -> int -> int option
val vpid_of_rpid : t -> int -> int option
val forget_rpid : t -> int -> unit
(** Exported for [test_pod], which checks a forgotten pid stops resolving. *)

val vpids : t -> int list

val next_vpid : t -> int
(** The vpid {!fresh_vpid} hands out next (saved in the checkpoint image). *)

val set_next_vpid : t -> int -> unit
(** Restore path: resume vpid allocation where the checkpoint left it. *)

(** {1 Network addresses}

    The address map is an ordered list of [(vip, rip)] entries.  Lookups
    are first-entry-wins in both directions: {!rip_of_vip} answers the rip
    of the first entry for the vip, {!vip_of_rip} the vip of the first
    entry for the rip.  Duplicates are legal — a restored pod's map puts
    the restored set's fresh bindings in front of a stale
    [(vip, old_rip)], which then still answers [vip_of_rip old_rip].

    Costs: installing a map is O(1); the first lookup or rebind after it
    indexes the map in O(n); after that each lookup is O(1) and a rebind
    is O(entries of that vip and of the rips involved), O(1) for a map
    without duplicates. *)

val set_vip_map : ?own:Addr.ip * Addr.ip -> t -> (Addr.ip * Addr.ip) list -> unit
(** Install a new map, replacing the old one.  [own], the owning pod's
    binding, goes in front of the map when the map has no entry for its
    vip.  O(1): the map is indexed (and [own] checked) lazily, so one list
    may be handed to every pod of an application. *)

val rebind_vip : t -> vip:Addr.ip -> rip:Addr.ip -> unit
(** Gratuitous-ARP-style update: repoint every entry of [vip] at [rip].
    Namespaces without the entry are left untouched. *)

val rip_of_vip : t -> Addr.ip -> Addr.ip
(** Unknown addresses pass through unchanged (out-of-cluster traffic is out
    of scope, per the paper). *)

val vip_of_rip : t -> Addr.ip -> Addr.ip
(** Unknown addresses pass through unchanged. *)

val translate_addr_out : t -> Addr.t -> Addr.t
(** Virtual to real: {!rip_of_vip} on the address, port unchanged. *)

val translate_addr_in : t -> Addr.t -> Addr.t
(** Real to virtual: {!vip_of_rip} on the address, port unchanged. *)

val to_value : t -> Zapc_codec.Value.t

(** The pod's virtual private namespace (paper section 3).

    Identifiers visible inside a pod are virtual: PIDs and network addresses
    stay constant for the life of the application while the namespace remaps
    them to the real identifiers of whatever node the pod currently runs on.
    This decouples applications from the host and makes migration to nodes
    with different PID spaces and IP subnets possible. *)

module Addr = Zapc_simnet.Addr

type t

type table
(** The rebind table: the last rebind of each vip (below). *)

val create : ?table:table -> unit -> t
(** A namespace that reads [table] (by default a private one). *)

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
    the restored set's fresh bindings in front of the live pods' (the
    [rest] of {!set_vip_map}), where a stale [(vip, old_rip)] then still
    answers [vip_of_rip old_rip].

    Costs: installing a map is O(1); the first lookup after it indexes the
    map in O(n), and the index is never mutated.  After that a lookup
    costs O(1) from the map and O(log n) from [rest]; once the table holds
    a rebind newer than the map, add O(log rebound vips) and, for
    {!vip_of_rip}, the entries of the address. *)

type bindings
(** A persistent set of [(vip, rip)] bindings, such as the registry's live
    pods, indexed both ways.  Meant for distinct vips and distinct rips: a
    binding replaces one with the same vip or rip. *)

val no_bindings : bindings

val bind : bindings -> vip:Addr.ip -> rip:Addr.ip -> bindings
(** O(log n). *)

val unbind : bindings -> vip:Addr.ip -> rip:Addr.ip -> bindings
(** Forget the binding where it still holds.  O(log n). *)

val set_vip_map :
  ?own:Addr.ip * Addr.ip -> ?rest:bindings -> t -> (Addr.ip * Addr.ip) list -> unit
(** Install a new map, replacing the old one.  [rest] (default none) is
    consulted after the map, as if its bindings followed it in ascending
    vip order.  [own], the owning pod's binding, goes in front of the map
    when neither the map nor [rest] has an entry for its vip.  O(1): the
    map is indexed (and [own] checked) lazily, so one list may be handed
    to every pod of an application.  The new map supersedes every rebind
    in the table so far. *)

(** {1 The rebind table}

    Gratuitous ARP without the broadcast.  A rebind that every registered
    namespace must see is recorded once in a {!table}
    ({!Zapc_pod.Pod.rebind_vip} keeps one next to the pod registry), and
    no namespace is touched.  The table holds, for each vip, the rip and
    the stamp of its last rebind, and the same keyed by rip.  A namespace
    reads it through the stamp at which its map was installed: a lookup
    of a vip the namespace knows (an entry of its map or of its [rest])
    whose last rebind is newer answers with that rebind, and any other
    lookup answers from the installed map.

    Why this is exact: applying every rebind in order to every reading
    namespace, as the eager broadcast did, repoints every entry of a
    known vip at the rebind's rip, after which the vip's first entry
    answers for all of them in both directions.  That state depends on
    nothing but the rebind's rip, so rebinds of different vips commute
    and the later rebind of a vip overrides the earlier one: the last
    rebind of each vip is all a lookup needs.

    Costs: a rebind is O(log rebound vips); the table holds one entry per
    distinct rebound vip, however many rebinds it takes.  Both sides are
    persistent maps, so {!detach} is O(1). *)

val table : unit -> table
(** An empty table. *)

val rebind : table -> vip:Addr.ip -> rip:Addr.ip -> unit
(** Record that [vip] now lives at [rip], for every namespace that reads
    the table and knows [vip]. *)

val detach : t -> unit
(** Stop reading the table: the namespace keeps the rebinds recorded so
    far, and sees no later one.  O(1). *)

val rebound : table -> int
(** The vips the table holds a rebind for.  Exported for [test_pod],
    which checks that it holds one entry per distinct rebound vip. *)

val indexed : t -> bool
(** Whether the address map has been indexed.  Exported for [test_pod],
    which checks that rebinds never index a namespace that never
    translates. *)

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

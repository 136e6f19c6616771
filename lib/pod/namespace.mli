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

    Costs: installing a map is O(1); the first lookup after it indexes the
    map in O(n); after that each lookup is O(1) plus the log entries it
    has not yet applied (below), and a rebind is O(entries of that vip and
    of the rips involved), O(1) for a map without duplicates. *)

val set_vip_map : ?own:Addr.ip * Addr.ip -> t -> (Addr.ip * Addr.ip) list -> unit
(** Install a new map, replacing the old one.  [own], the owning pod's
    binding, goes in front of the map when the map has no entry for its
    vip.  O(1): the map is indexed (and [own] checked) lazily, so one list
    may be handed to every pod of an application.  The new map supersedes
    every rebind logged so far: the namespace's cursor moves to the log's
    end. *)

val rebind_vip : t -> vip:Addr.ip -> rip:Addr.ip -> unit
(** Gratuitous-ARP-style update: repoint every entry of [vip] at [rip].
    Namespaces without the entry are left untouched.  A namespace that
    follows a log applies the entries it has not seen first. *)

(** {1 The rebind log}

    Gratuitous ARP without the broadcast.  A rebind that every registered
    namespace must see is appended once to a {!log}
    ({!Zapc_pod.Pod.rebind_vip} keeps one next to the pod registry), and no
    namespace is touched.  A namespace that follows the log keeps a cursor
    [seen] into it and an end [until], open while it is registered and
    fixed at the log's length when it leaves.  Its next {!rip_of_vip} or
    {!vip_of_rip} (and with them both [translate_addr_*]) first applies
    the entries in [\[seen, until)] with {!rebind_vip}'s index code.

    Why deferring is exact: a namespace's address state is observable only
    through those two lookups ({!to_value} images pids only), so applying
    the same rebinds, in the same order, just before the first lookup that
    can see them gives the same answers.  The replay also skips an entry
    whose vip is rebound again before [until]: a rebind leaves its vip's
    entries in a state that depends only on its own rip, so rebinds of
    different vips commute and the later one of the same vip wins.

    Costs: appending is O(1) amortized, whatever the number of followers,
    and joining or leaving is O(1) with no replay.  When the log's
    storage is full it is compacted: it keeps only the entries at or after
    the earliest registered cursor that no later entry shadows, and a
    registered follower whose pending entries outnumber its map applies
    them first.  What is kept is therefore at most the largest map of a
    lagging follower, and the new storage holds four times that or four
    times the number of followers (at least 64 entries), which bounds the
    log over any run.  A departed namespace keeps the storage generation
    it left in, shared with every namespace that left in the same one,
    until it next translates or is collected. *)

type log

val log : unit -> log
(** An empty log with no followers. *)

val announce : log -> vip:Addr.ip -> rip:Addr.ip -> unit
(** Append a rebind for every follower to apply when it next translates. *)

val follow : log -> t -> unit
(** Start following the log from its current end: the namespace sees
    every later {!announce}, and none before.  The namespace must follow
    no log yet ({!Zapc_pod.Pod.create} passes a fresh one). *)

val leave : t -> unit
(** Stop following: the namespace still applies what was announced
    before this call, and nothing after.  O(1).  No-op if it follows no
    log. *)

val log_length : log -> int
(** Entries the log holds.  Exported for [test_pod], which checks that the
    log stays bounded across compactions. *)

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

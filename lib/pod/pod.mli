(** Pods (PrOcess Domains): the thin virtualization layer (paper section 3).

    A pod encapsulates the processes of one application endpoint, gives them
    a virtual private namespace — PIDs, network addresses, optionally time —
    and is the unit of checkpoint, migration and restart.  Virtualization is
    implemented purely by system-call interposition (a {!Zapc_simos.Proc.filter}
    installed on every member process), so the underlying kernel runs
    unmodified, mirroring ZapC's loadable-kernel-module design.

    The virtual address ([vip]) never changes; the real address ([rip]) is
    re-allocated on whatever node currently hosts the pod, and the namespace
    map (installed by the Agent, rewritten on migration) translates between
    them in both directions. *)

module Simtime = Zapc_sim.Simtime
module Addr = Zapc_simnet.Addr
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc

type t = {
  pod_id : int;  (** global, stable across migrations *)
  name : string;
  vip : Addr.ip;  (** the address applications see; never changes *)
  rip : Addr.ip;  (** the real address on the current node *)
  mutable kernel : Kernel.t;
  ns : Namespace.t;
  mutable time_bias : Simtime.t;  (** added to reported clocks after restart *)
  mutable virtualize_time : bool;
  mutable frozen : bool;
}

val create : pod_id:int -> name:string -> vip:Addr.ip -> rip:Addr.ip -> Kernel.t -> t
(** Create an empty pod: attaches [rip] to the node's network stack and
    registers the pod in the global live-pod registry, where its namespace
    reads the rebind table (see {!rebind_vip}).  A live pod with the same
    id leaves the registry. *)

val find : int -> t option
(** Look up a live pod by id (a pod lives on exactly one node at a time). *)

val clear_registry : unit -> unit
(** Empty the live-pod registry: every registered pod leaves it as
    {!destroy} would have it leave (its namespace keeps the rebinds
    recorded so far), without killing members or releasing addresses.
    [Zapc.Cluster.make] calls it first, since pod ids and real addresses
    restart in every cluster. *)

val set_vip_map : t -> (Addr.ip * Addr.ip) list -> unit
(** Install the application-wide virtual->real address map; the pod's own
    entry is prepended when the map lacks it.  Lookups are
    first-entry-wins in both directions ({!Namespace}).  O(1): the
    namespace checks the own entry and indexes the map on its first
    lookup. *)

val restore_vip_map : t -> (Addr.ip * Addr.ip) list -> unit
(** Install a restored pod's map: [map] covers the restored set, and the
    live pods' bindings as they stand now follow it, first match winning,
    so the pod still reaches application pods outside that set.  It knows
    exactly the vips live at this call, plus their later rebinds.  O(1):
    the live bindings are a persistent snapshot, and only [map] is ever
    indexed.

    This answers as installing [map @ current_vip_map ()] would, provided
    the live pods have distinct vips and distinct rips and no two vips are
    later rebound to one rip ([Cluster] allocates every rip once); beyond
    that the live bindings count in ascending vip order. *)

val current_vip_map : unit -> (Addr.ip * Addr.ip) list
(** The (vip, rip) binding of every live pod.  O(live pods). *)

val rebind_vip : vip:Addr.ip -> rip:Addr.ip -> unit
(** Gratuitous ARP: repoint [vip] at [rip] in the namespace of every live
    pod that has an entry for it.  Called when a restored or migrated pod
    re-acquires its virtual address at a new real address, so pods outside
    the restored set (e.g. clients of a restored server) keep resolving.

    O(log rebound vips), and it touches no namespace: the rebind is
    recorded in a table kept next to the registry ({!Namespace.rebind}),
    which holds the last rebind of each vip.  Each registered pod's
    namespace reads it on a lookup of a vip it knows, so restoring N pods
    costs O(N) table updates and a namespace pays only if it translates.
    A map installed later ({!set_vip_map}, {!restore_vip_map}) supersedes
    the rebinds before it.  A pod that leaves the registry ({!destroy}, or
    replacement by a {!create} with its id) keeps the rebinds recorded
    before it left and sees none after — as when every live namespace was
    rewritten eagerly, which is what the answers equal ({!Namespace} gives
    the argument). *)

val adopt : t -> Proc.t -> unit
(** Bring a process into the pod: assign the next vpid, install the
    interposition filter. *)

val adopt_with_vpid : t -> Proc.t -> vpid:int -> unit
(** Restore path: re-bind a process to its checkpointed vpid. *)

val spawn : t -> program:string -> args:Zapc_codec.Value.t -> Proc.t
(** Spawn a registered program directly inside the pod. *)

val members : t -> (int * Proc.t) list
(** Live member processes, ordered by vpid. *)

val members_all : t -> (int * Proc.t) list
(** Every member process including zombies, ordered by vpid — what a
    checkpoint must record (an unreaped exit status is application
    state). *)

val member_count : t -> int

val suspend : t -> unit
(** SIGSTOP every member (checkpoint step 1; the network block is done
    separately by the Agent through netfilter). *)

val resume : t -> unit

val destroy : t -> unit
(** Kill members, release the real address, drop from the registry (after
    migration, or on abort).  Dropping is O(log live pods): the namespace
    keeps the rebinds recorded so far. *)

val apply_time_bias : t -> saved_clock:Simtime.t -> current_clock:Simtime.t -> unit
(** Time virtualization (paper section 5): bias reported clocks by
    checkpoint-time minus restart-time so application-level timeout
    mechanisms do not fire spuriously.  No-op if [virtualize_time] is off. *)

val total_memory : t -> int

val fs_root : t -> string
(** The pod's chroot-style directory on the shared file system; the syscall
    filter prefixes every member file path with it.  It follows the pod
    (not the node), so files remain reachable after migration without being
    part of the checkpoint image. *)

val pp : Format.formatter -> t -> unit

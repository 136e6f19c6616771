(** Checkpoint image storage: one copy model, one stored form.

    {b Copy slots.}  Each stored image has a fixed row of copy slots, and
    each slot has a location: a SAN replica, a node's RAM, or nowhere.  On
    the SAN/NAS of the paper's cluster ([Sb_plain], the default, and
    [Sb_dedup]) slot [i] is replica [i].  With [Sb_buddy] slot 0 is the
    writing node's RAM and slot 1 a partner node's RAM, bypassing the
    shared SAN; on node death ({!node_died}, driven by the Supervisor) a
    surviving copy is re-buddied onto the next live node.  Reads walk the
    slots in order, falling back past outaged, dead or corrupt copies;
    {!set_replica_fail} outages slot [i] on every backend.

    {b Recipes.}  Every image is stored as a recipe: the image's skeleton
    plus its encoded bytes as a list of chunks.  A plain image is one
    inline chunk holding its whole encoding, with nothing hashed.  [Sb_dedup]
    splits the encoded bytes and the modelled memory regions into
    FNV-addressed chunks interned once in a refcounted pool — identical
    text/data across epochs, replicas and sibling pods collapses to one
    stored copy.  Compression composes with every backend: stored/flushed
    byte accounting shrinks to the image's modelled compressed size while
    the Agent charges the virtual-CPU compressor cost.

    Keys are versioned internally: {!put} retires the previous version of
    the key, preserving its bytes under a shadow name while live delta
    chains still pin it (copy-on-write), and chain links bind to the base
    {e version} current at write time — overwriting a delta's base can
    never retarget or corrupt an existing chain.

    Flushing is deliberately {e not} part of checkpoint latency (the
    paper's methodology).  {!flush} models contention: each link serializes
    its flushes — the shared SAN is one link for the whole cluster, each
    buddy owner's link its own, so buddy flushes run in parallel. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Image = Zapc_ckpt.Image

type t

val create :
  ?metrics:Zapc_obs.Metrics.t ->
  trace:Trace.t ->
  ?bps:float ->
  ?latency:Simtime.t ->
  ?replicas:int ->
  ?backend:Params.storage_backend ->
  ?compress:bool ->
  ?buddy_bps:float ->
  ?nodes:int ->
  Engine.t -> t
(** [backend] (default [Sb_plain]) picks the slot locations and the
    chunking: [replicas] (default 2, clamped to at least 1) SAN slots for
    [Sb_plain]/[Sb_dedup], two RAM slots for [Sb_buddy]; only [Sb_dedup]
    chunks into the pool.  [nodes] (default 2) is the cluster size buddy
    partners are drawn from.  [metrics] receives the [storage.*]
    instruments listed in doc/OBSERVABILITY.md.  [trace] records each
    successful write as a [storage_put] span (parented under the writing
    Agent's operation span via {!put}'s [op]/[parent]). *)

val replica_count : t -> int
(** Copy slots per key. *)

val put :
  ?op:int -> ?parent:int -> ?node:int ->
  t -> string -> Image.t -> (unit, string) result
(** Store the image (with its {!Image.checksum}) under the key's fresh
    internal version; the previous version is freed, or kept as a
    copy-on-write shadow while live deltas still chain to it
    ([storage.cow_preserved]).  [node] is the writing Agent's node — the
    buddy backend's owner copy lands in its RAM, the partner copy in the
    next live node's.  Fails, storing nothing, during a global write outage
    or when no copy location is available. *)

val get : t -> string -> Image.t option
(** First healthy, checksum-verified copy; [None] if every location is
    unavailable, missing the key, or corrupt.  A delta image is
    materialized transparently against the exact base version its chain
    was written over — byte-identical to the full checkpoint taken at the
    same instant, on every backend. *)

val base_key : t -> string -> string option
(** The stored chain link's base reference, without materializing: [Some k]
    iff the key currently holds a delta based on public key [k]. *)

val set_fail_writes : t -> string option -> unit
(** Failure injection: while [Some reason], every {!put} fails with that
    reason (a SAN outage / full volume).  [None] heals the outage. *)

val write_failures : t -> int
(** Number of writes rejected by injected outages so far. *)

val set_replica_fail : t -> replica:int -> string option -> unit
(** Per-slot outage injection: while set, {!put} skips slot [replica],
    {!get} falls back past it and {!mem} ignores it.  For the buddy
    backend, slot 0 is the owner copy and slot 1 the partner copy.
    Out-of-range indices are ignored. *)

val heal_replicas : t -> unit
(** Clear every per-slot outage {e and} restore the replication factor:
    every empty slot whose location is alive (typically one that missed a
    put during its outage) is backfilled from the pristine recipe, counted
    in [storage.rereplicated] / [storage.rereplicated_bytes].  A dead
    node's copies are instead repaired by {!node_died} reassignment. *)

val node_died : t -> int -> unit
(** Buddy backend: the node's RAM (and every buddy copy in it) is gone.
    Entries with a surviving copy are re-buddied onto the next live node
    ([storage.buddy_reassigned]; [storage.buddy_degraded] when no other
    node is alive); entries that lost both copies are gone
    ([storage.buddy_lost]).  SAN slots are unaffected. *)

val node_healed : t -> int -> unit
(** The node rejoined (with an empty RAM — its buddy copies died with it). *)

val corrupt : t -> replica:int -> string -> bool
(** Corruption injection: flip a byte of one slot's copy of the image while
    keeping its stale checksum, so only a verifying read notices.  The
    damage shadows the copy's first chunk without touching the shared pool
    or any other slot.  Returns [false] if that slot has no (non-empty)
    copy of the key. *)

val corruption_detected : t -> int
(** Number of reads that found a copy failing verification (each such copy
    is skipped and the next location tried). *)

val mem : t -> string -> bool
(** Cheap, side-effect-free existence check: the key's current version is
    present in some non-outaged slot whose location is alive.  No chain walk, no metric
    traffic, no materialization — a copy that would fail verification
    still answers [true]; only a full {!get} can tell. *)

val remove : t -> string -> unit
(** Drop the key.  If live deltas still chain to its current version the
    key only vanishes from the public namespace ({!get}/{!mem}/{!keys});
    the bytes (and their chunk references) are reclaimed once the last
    referencing delta is removed. *)

val replica_has : t -> replica:int -> string -> bool
(** Does this slot (buddy: 0 = owner, 1 = partner) physically hold the
    key's current version?  Ignores outage flags — tests observe the
    replication factor directly with this. *)

val flush_bytes : t -> string -> int option
(** Bytes that travel when flushing the key's current version: a delta's
    delta bytes, a dedup put's distinct-new bytes only, shrunk by
    compression when enabled. *)

val flush_time : t -> string -> Simtime.t
(** Uncontended single-transfer flush time at the key's link bandwidth
    (the shared SAN, or the buddy owner's link). *)

val flush : t -> string -> on_done:(unit -> unit) -> unit
(** Contended flush: each link serializes its flushes behind one queue —
    shared-SAN flushes behind one cluster-wide queue, buddy flushes per
    owner link, in parallel across nodes. *)

val keys : t -> string list
(** Sorted public keys currently stored. *)

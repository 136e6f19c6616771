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
    stored copy.  A modelled region is interned once per distinct
    (name, size, generation) tag: the first listing interns the tag's
    chunks one by one, every later listing takes a reference on the tag's
    region entry (counting a [storage.dedup_chunk_hits] per chunk), and the
    entry drops its chunk references with its last listing.  Compression
    composes with every backend: stored/flushed byte accounting shrinks to
    the image's modelled compressed size while the Agent charges the
    virtual-CPU compressor cost.

    {b Lifetime.}  A key names its current entry, and a delta's entry
    holds the entry its base key named when the delta was put.  An entry
    is freed by reference count, like a pool chunk: the key that names it
    and each live delta based on it hold one reference.  {!put} and
    {!remove} let go of the key's old entry; while live deltas still hold
    it, its bytes stay (copy-on-write), so overwriting or removing a
    delta's base can never retarget or corrupt an existing chain.

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
  ?backend:Params.storage_backend ->
  ?compress:bool ->
  ?nodes:int ->
  Engine.t -> t
(** [backend] (default [Sb_plain]) picks the slot locations and the
    chunking: two SAN replica slots for [Sb_plain]/[Sb_dedup], two RAM
    slots (owner and buddy) for [Sb_buddy]; only [Sb_dedup]
    chunks into the pool.  [nodes] (default 2) is the cluster size buddy
    partners are drawn from.  [metrics] receives the [storage.*]
    instruments listed in doc/OBSERVABILITY.md.  [trace] records each
    successful write as a [storage_put] span (parented under the writing
    Agent's operation span via {!put}'s [op]/[parent]). *)

val replica_count : t -> int
(** Copy slots per key.  Exported for [test_ckpt] and [chaos], which
    check every slot of a key. *)

val put :
  ?op:int -> ?parent:int -> ?node:int ->
  t -> string -> Image.t -> (unit, string) result
(** Store the image (with its {!Image.checksum}) as the key's new entry.
    A delta's entry holds the entry its base key names at this call.  The
    key's old entry is freed, or kept while live deltas still chain to it
    ([storage.cow_preserved]).  [node] is the writing Agent's node — the
    buddy backend's owner copy lands in its RAM, the partner copy in the
    next live node's.  Fails, storing nothing, during a global write outage
    or when no copy location is available. *)

val get : t -> string -> Zapc_codec.Value.t option
(** The key's pod image, decoded: the first healthy, checksum-verified copy
    of each chain link, decoded once; [None] if every location is
    unavailable, missing the key, or corrupt, or if the image does not
    decode.  A delta chain resolves against the exact base entry it was
    written over by applying each delta to the decoded base, without
    re-encoding: the value Wire-encodes byte-identically to the full
    checkpoint taken at the same instant, on every backend.

    Reads are memoized per store generation.  The generation moves on every
    call that changes what a read can see: a successful {!put}, {!remove},
    a successful {!corrupt}, {!set_replica_fail}, {!heal_replicas} and
    {!node_died}; a moved generation drops the whole memo.  Until then a
    repeated [get] of the key returns the same (physically equal) value, or
    [None] again, and replays the [storage.*] counter increments its
    resolving read made ([storage.gets], [storage.get_misses],
    [storage.delta_resolved], [storage.chain_broken],
    [storage.replica_fallbacks], [storage.corruption_detected]), so every
    counter reads as if each call had resolved the chain.  The returned
    value is shared: like every {!Zapc_codec.Value.t}, it must not be
    mutated. *)

val take : t -> string -> Zapc_codec.Value.t option
(** {!get}, which also drops the key's memo entry: the read of the key's
    last reader (the restoring Agent), so a restored image does not stay
    pinned in the memo. *)

val base_key : t -> string -> string option
(** The stored chain link's base reference, without materializing: [Some k]
    iff the key currently holds a delta based on public key [k].  Reads the
    first copy {!mem} finds, unverified, so it counts nothing and a delta
    corrupt in every slot still answers its base. *)

val set_fail_writes : t -> string option -> unit
(** Failure injection: while [Some reason], every {!put} fails with that
    reason (a SAN outage / full volume), counted in
    [storage.write_failures].  [None] heals the outage. *)

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

val corrupt : t -> replica:int -> string -> bool
(** Corruption injection: flip a byte of one slot's copy of the image while
    keeping its stale checksum, so only a verifying read notices (it counts
    [storage.corruption_detected] and tries the next slot).  The
    damage shadows the copy's first chunk without touching the shared pool
    or any other slot.  Returns [false] if that slot has no (non-empty)
    copy of the key. *)

val mem : t -> string -> bool
(** Cheap, side-effect-free existence check: the key's entry is present
    in some non-outaged slot whose location is alive.  No chain walk, no
    metric traffic, no materialization — a copy that would fail verification
    still answers [true]; only a full {!get} can tell. *)

val remove : t -> string -> unit
(** Drop the key.  If live deltas still chain to its entry the key only
    vanishes from the public namespace ({!get}/{!mem}/{!keys}); the bytes
    (and their chunk references) are reclaimed once the last referencing
    delta is removed. *)

val replica_has : t -> replica:int -> string -> bool
(** Does this slot (buddy: 0 = owner, 1 = partner) physically hold the
    key's entry?  Ignores outage flags.  Exported for [test_ckpt]
    and [chaos], which observe the replication factor directly with it. *)

val flush_time : t -> string -> Simtime.t
(** Uncontended single-transfer flush time at the key's link bandwidth
    (the shared SAN, or the buddy owner's link). *)

val flush : t -> string -> on_done:(unit -> unit) -> unit
(** Contended flush: each link serializes its flushes behind one queue —
    shared-SAN flushes behind one cluster-wide queue, buddy flushes per
    owner link, in parallel across nodes. *)

val keys : t -> string list
(** Sorted public keys currently stored. *)

val check_refs : t -> string list
(** Every mismatch between the stored reference counts and a recount from
    the keys and the live entries: an entry's count against the key naming
    it plus the live deltas based on it, a region entry's against its
    listings in live recipes, a pool chunk's against its occurrences in
    live recipes and region entries, and any entry freed while referenced
    or kept after its last reference.  Exported for [test_ckpt], which
    checks that it is empty after every operation of the storage models. *)

(** Two-level calendar event queue: a fine ring of time buckets drained
    into a sorted run, a coarse ring that spills into the fine one as the
    clock crosses horizon boundaries, a small heap for latecomers, and a
    [Pheap] overflow for events beyond even the coarse horizon.

    Same observable semantics as {!Pheap} — minimum [(key, seq)] first, FIFO
    among equal keys under one global sequence counter — but scheduling
    within the horizons is an O(1) unsorted append, each bucket is sorted
    once when the clock enters it, and pops consume the sorted run by
    bumping an index.  An occupancy bitmap over the fine ring (a bit per
    slot, a summary bit per 32-slot word) takes a refill straight to the
    next occupied bucket, so crossing a quiet stretch costs O(occupied
    words), not one step per empty bucket.  Keys must be non-negative. *)

type 'a t

val create : ?shift:int -> ?b1:int -> ?buckets2:int -> dummy:'a -> unit -> 'a t
(** [shift] sets the fine bucket width to [2^shift] key units (default 10,
    i.e. ~1us at nanosecond resolution); [b1] is the log2 of the fine
    bucket count (default 12: 4096 buckets, a ~4.2ms fine horizon);
    [buckets2] is the coarse bucket count, a power of two (default 8192,
    for a ~34s coarse horizon — each coarse bucket spans the whole fine
    ring).  [dummy] fills vacated value slots so popped closures are not
    retained.  [shift + b1] must stay [<= 26] so a packed bucket entry
    (key offset plus sequence number) fits one OCaml int. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> key:int -> 'a -> unit
(** Insert with priority [key]; FIFO among equal keys. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum [(key, value)]. *)

val pop_if_le : 'a t -> limit:int -> (int * 'a) option
(** [pop] only if the minimum key is [<= limit]. *)

(** Per-process memory accounting.

    Programs declare their working set through the mem_alloc/mem_free system
    calls; checkpoint images charge these bytes as the process's address
    space (see DESIGN.md: computational state itself travels in the
    program's Value encoding).

    Every region carries a dirty bit for incremental checkpointing: set on
    {!alloc}, {!free} and {!touch}, cleared by {!clear_dirty} once a
    snapshot of the process has been durably stored.  {!dirty_bytes} is the
    address-space payload a delta checkpoint must write. *)

type t

val create : unit -> t

val alloc : t -> string -> int -> unit
(** [alloc t name size] creates or resizes the named region (marks it
    dirty). *)

val free : t -> string -> unit

val touch : t -> string -> unit
(** Mark an existing region dirty without resizing (a write to its pages);
    unknown names are ignored. *)

val total : t -> int
val peak : t -> int

val version : t -> int
(** Monotonic mutation counter (bumped by alloc/free/touch). *)

val clear_dirty : t -> unit
(** Forget the dirty set — call once a snapshot has been durably stored. *)

val dirty_bytes : t -> int
(** Total size of the still-present regions modified since the last
    {!clear_dirty} (a freed region contributes nothing). *)

val dirty_regions : t -> string list
(** Names of the dirty regions, sorted.  Exported for [test_ckpt], which
    checks that allocs, touches and frees mark a region dirty. *)

val snapshot_dirty : t -> (string * int) list
(** Atomically capture-and-clear the dirty set: returns the still-present
    dirty regions with their sizes (sorted by name) and resets the dirty
    bits, so subsequent mutations accumulate toward the next pre-copy
    round.  Bumps the {!epochs} counter. *)

val epochs : t -> int
(** How many {!snapshot_dirty} rounds have been taken. *)

val gen : t -> string -> int
(** The region's write generation: bumped on every mutation, persisted
    through {!to_value}/{!of_value}.  The simulation does not store page
    contents, so (name, size, gen) models a region's bytes — two regions
    agreeing on all three hold identical modelled content (the
    content-addressed dedup tag).  0 for unknown names. *)

val to_value : t -> Zapc_codec.Value.t
(** Regions encode as name -> [size; generation] so dedup content tags
    survive a checkpoint-restart cycle. *)

val region_of_value : Zapc_codec.Value.t -> int * int
(** One region's [size; generation] pair as {!to_value} encodes it; raises
    {!Zapc_codec.Value.Decode_error} on any other shape. *)

val of_value : Zapc_codec.Value.t -> t
(** Inverse of {!to_value}.  Every restored region starts dirty: the first
    post-restart delta must write it. *)

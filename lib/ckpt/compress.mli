(** Modelled compression stage of the checkpoint image pipeline.

    Computes the deterministic compressed size of an image — the Wire
    encoding at a byte-histogram entropy estimate plus the modelled memory
    regions at per-region entropy tags.  The actual bytes are never
    transformed (restart stays byte-identical); only the storage/flush
    accounting and the virtual-CPU compression cost use this size. *)

val fnv_basis : int
(** The FNV-1a offset basis every hash below starts from. *)

val fnv_mix : int -> int -> int
(** [fnv_mix h byte] is one FNV-1a step (xor, multiply by the prime),
    folded positive (62-bit). *)

val fnv_fold : int -> string -> int
(** [fnv_fold h s] mixes every byte of [s] into the state [h]. *)

val fnv : string -> int
(** FNV-1a hash of a string: [fnv_fold fnv_basis]. *)

val encoded_ratio : string -> float
(** Shannon-entropy estimate (bits-per-byte / 8) of a string, clamped to
    [0.12, 0.98]: the modelled compressed fraction of the Wire bytes.
    Exported for [test_ckpt], which checks its bounds and determinism. *)

val regions_of_image : Zapc_codec.Value.t -> (string * int * int) list
(** (name, size, generation) of every modelled memory region a full or
    delta pod image describes (full: all live regions; delta: the regions
    of changed processes only). *)

val modelled_size : encoded:string -> mem_bytes:int -> (string * int * int) list -> int
(** [modelled_size ~encoded ~mem_bytes regions] is the modelled compressed
    byte count of a full or delta pod image whose Wire encoding is
    [encoded], which charges [mem_bytes] of address space described by
    [regions] ({!regions_of_image}).  Deterministic; at least 1. *)

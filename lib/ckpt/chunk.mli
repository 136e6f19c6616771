(** Content-addressed chunking of checkpoint images (see chunk.ml).

    Encoded chunks carry real bytes and are addressed by a content hash;
    region chunks are virtual — addressed by the modelled region's
    (name, size, write-generation) tag — and carry only accounting. *)

val chunk_bytes : int
(** Size of an encoded-bytes chunk (last chunk of an image may be short). *)

val region_chunk_bytes : int
(** Size of a virtual modelled-memory chunk.  Exported for [test_ckpt],
    which rebuilds the expected region chunk list from it. *)

val hash : string -> int
(** Content hash used for chunk addresses (FNV-1a, folded positive). *)

val split : string -> (int * string) list
(** Cut a string into content-addressed [(hash, bytes)] chunks.
    [reassemble (split s) = s] for every [s]. *)

val reassemble : (int * string) list -> string
(** Concatenate chunk bytes back into the original string. *)

val region_chunks : name:string -> size:int -> gen:int -> (int * int) list
(** [(address, size)] chunks covering a modelled region.  Addresses are
    deterministic in the region tag and pod-agnostic: sibling ranks
    declaring the same region with the same generation share addresses. *)

(** The shared file system (the SAN/NAS-backed GFS of the paper's testbed).

    Every node mounts the same store, which is why pod checkpoints need not
    include file data: after migration the files are simply there (paper
    section 3).  Pods see a chroot-style private namespace (the pod syscall
    filter prefixes paths), and an optional file-system snapshot can be
    taken "immediately prior to reactivating the pod" by copying the pod's
    subtree ({!snapshot_subtree}). *)

type t

val create : unit -> t
val put : t -> string -> string -> unit
(** Whole-file write (create or replace). *)

val append : t -> string -> string -> unit
val get : t -> string -> string option
val remove : t -> string -> unit
val exists : t -> string -> bool
val list : t -> string -> string list
(** Paths under a prefix, sorted. *)

val snapshot_subtree : t -> src_prefix:string -> dst_prefix:string -> int
(** Copy a subtree; returns bytes copied (for storage-time accounting). *)

(** Per-process file descriptor table.  Entries reference shared kernel
    objects (sockets, pipe ends); spawn copies the parent's table so
    children share the underlying objects, like fork(2). *)

module Socket = Zapc_simnet.Socket

type entry =
  | Fsock of Socket.t
  | Fpipe_r of Pipe.t
  | Fpipe_w of Pipe.t
  | Fgm of Zapc_simnet.Gmdev.port  (** kernel-bypass messaging port *)

type t
(** Lookups read a dense array indexed by fd, so [find] and [socket] cost
    one bounds check and one load and allocate nothing.  Descriptors are
    never reused ([add] hands out ever larger numbers), so the index spans
    the highest fd the table has held; it starts empty and doubles as it
    grows, so a process that never opens a descriptor allocates none.

    [fold] and [iter] do not walk the index: they follow a hash table's
    order, which pod images ([Pod_ckpt]) and the close order at
    process exit depend on. *)

val create : unit -> t
val add : t -> entry -> int

val add_at : t -> int -> entry -> unit
(** Restore path: re-install an entry at its checkpointed descriptor
    number ([>= 0]; raises [Invalid_argument] otherwise). *)

val find : t -> int -> entry option
val remove : t -> int -> unit
val socket : t -> int -> Socket.t option
val fold : t -> (int -> entry -> 'a -> 'a) -> 'a -> 'a
val iter : t -> (int -> entry -> unit) -> unit
val cardinal : t -> int
(** Exported for [test_simos], which compares the table with its model. *)

val generation : t -> int
(** Bumped by every {!add_at} (so every {!add}) and {!remove}: while it and
    the table are the same, every fd resolves to the same entry.  A
    process's poll set ([Pollset]) is keyed on it. *)

val copy : t -> t
(** Share the underlying objects and bump pipe-end reference counts (socket
    sharing is counted by the kernel).  The copy has its own index, so
    later changes to either table do not show in the other. *)

(** Standalone (per-pod) checkpoint-restart: everything except the
    network-state section, which {!Zapc_netckpt.Net_ckpt} produces.

    The image records, per member process: the program identity and its
    encoded state, the pending blocked system call in {e virtual} form, the
    residual compute slice, relative timer deadlines, the fd table as
    references into the pod-wide socket/pipe inventories, and the memory
    footprint.  Restart rebuilds the processes Stopped; resuming the pod
    SIGCONTs them, at which point blocked system calls re-issue
    transparently against the restored resources. *)

module Value = Zapc_codec.Value
module Socket = Zapc_simnet.Socket
module Proc = Zapc_simos.Proc
module Pod = Zapc_pod.Pod
module Net_ckpt = Zapc_netckpt.Net_ckpt
module Meta = Zapc_netckpt.Meta
module Sock_state = Zapc_netckpt.Sock_state

type checkpoint_result = {
  image : Value.t;  (** the complete pod image, ready for Wire.encode *)
  meta : Meta.pod_meta;
  encoded_bytes : int;  (** serialized size of the structured state *)
  memory_bytes : int;  (** modelled address-space bytes *)
  net_result : Net_ckpt.result;
  proc_count : int;
}

val logical_size : checkpoint_result -> int
(** What a real checkpointer would write: encoded + memory bytes. *)

val checkpoint : ?mode:Sock_state.mode -> ?net:Net_ckpt.result -> Pod.t -> checkpoint_result
(** Assemble the full pod image.  Pass [net] to reuse an already-taken
    network-state checkpoint (the Agent runs that step first and times it
    separately).  The pod must be suspended. *)

val restore_processes :
  Pod.t -> Value.t -> socket_of_ref:(int -> Socket.t option) -> Proc.t list
(** Rebuild the pod's processes from an image.  [socket_of_ref] maps socket
    references to the connections the Agent re-established in the earlier
    restart steps.  Also applies the time-virtualization bias. *)

(** {1 Incremental checkpoint support} *)

val dirty_memory_bytes : Pod.t -> int
(** Modelled address-space bytes modified since the last durably stored
    snapshot (summed {!Zapc_simos.Memory.dirty_bytes} over every member,
    zombies included). *)

val clear_memory_dirty : Pod.t -> unit
(** Clear every member's dirty-region set — call once an epoch's image has
    been durably stored. *)

val snapshot_memory_dirty : Pod.t -> int
(** One pre-copy round boundary: atomically capture-and-clear every member's
    dirty set ({!Zapc_simos.Memory.snapshot_dirty}) and return the total
    bytes the round must ship.  Mutations after the call accumulate toward
    the next round. *)

(** {1 Image accessors} *)

val meta_of_image : Value.t -> Meta.pod_meta
val sockets_of_image : Value.t -> Sock_state.image array
val memory_bytes_of_image : Value.t -> int
val pod_id_of_image : Value.t -> int
(** Exported for [test_ckpt], which checks that an image records its pod. *)

val vip_of_image : Value.t -> int
val name_of_image : Value.t -> string

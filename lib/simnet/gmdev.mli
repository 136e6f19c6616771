(** A Myrinet/GM-style kernel-bypass messaging device.

    The paper (end of section 5) says the ZapC approach extends to OS-bypass
    interconnects if (1) the communication library is decoupled from the
    device-driver instance by virtualizing its interface, and (2) the state
    the device holds can be extracted and reinstated on another device.
    This device satisfies both: the ioctl-like syscall surface is
    interposable by the pod layer (virtual addresses), and the driver
    exposes {!extract_port}/{!reinstate_port} used by the pod checkpoint.

    Semantics: unordered, unreliable datagrams between (address, port)
    endpoints whose receive queues live in the device, not the socket layer.
    In-flight messages drop during a checkpoint (netfilter); libraries built
    on GM retry on timeout. *)

module Value = Zapc_codec.Value

val gm_proto : int
(** Raw-IP protocol number carrying GM traffic on the fabric. *)

type port = {
  gp_addr : Addr.t;  (** real (ip, port) the hardware demuxes on *)
  rxq : (Addr.t * string) Queue.t;
  mutable rx_bytes : int;
  capacity : int;
  rd_waiters : Waitq.t;  (** woken on arrival and on close *)
  mutable closed : bool;
}

type t

val create : node:int -> t
val set_tx : t -> (Packet.t -> unit) -> unit

(** {1 Library interface (reached through Gm_* syscalls)} *)

val open_port : t -> ip:Addr.ip -> port:int -> (port, Errno.t) result
(** [port = 0] allocates. *)

val close_port : t -> port -> unit
val send : t -> port -> Addr.t -> string -> (unit, Errno.t) result

type rres = Gdata of Addr.t * string | Gblock | Gclosed

val recv : port -> rres
val wait_readable : port -> (unit -> unit) -> unit
(** Queue a waiter for the next arrival (or close) on the port.  A waiter
    already queued is not added again; the wake runs waiters in
    first-registration order ({!Waitq}). *)

(** {1 Hardware receive path} *)

val on_packet : t -> Packet.t -> string -> unit

(** {1 Driver extract/reinstate hooks (checkpoint-restart)} *)

val extract_port : port -> virt:(Addr.t -> Addr.t) -> Value.t
(** Save a port's state with addresses mapped back to the pod's virtual
    ones, so the image is location-independent. *)

val reinstate_port : t -> Value.t -> real:(Addr.t -> Addr.t) -> (port, Errno.t) result
(** Recreate the port (and its queued messages) on this node's device. *)

val port_count : t -> int
val drop_count : t -> int

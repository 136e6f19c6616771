(** Per-socket state save and restore (paper section 5).

    A socket's state has three parts: parameters, data queues, and minimal
    protocol-specific state.

    - {b Parameters}: the whole option table is saved (getsockopt-style) and
      reapplied on restore.
    - {b Receive queue}: extracted with the paper's read-and-reinject
      technique — drained through the socket's own recvmsg dispatch entry
      (which also picks up any alternate-queue data left by a previous
      restart, in order), saved, and immediately re-deposited through the
      alternate receive queue so a continued (snapshot) run still reads it
      first.  The deliberately flawed {!Peek} mode reproduces the Cruz-style
      approach the paper criticises: it misses the out-of-band byte.
    - {b Send queue}: the unacknowledged in-kernel data (acked..sent, the
      retransmission queue) plus buffered-unsent data, read without side
      effects.
    - {b Protocol state}: only the sent/recv/acked sequence numbers (the
      necessary-and-sufficient set of section 5); they travel in the
      meta-data entry, not here. *)

module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Socket = Zapc_simnet.Socket
module Namespace = Zapc_pod.Namespace

type mode = Read_inject | Peek

type image = {
  kind : Socket.kind;
  local : Addr.t option;  (** virtual *)
  remote : Addr.t option;  (** virtual *)
  hl : [ `Conn of Meta.conn_state | `Listener of int | `Plain ];
  opts : Value.t;
  recv_data : string;
  oob : char option;
  send_data : string;
  dgrams : (Addr.t * string) list;  (** virtual source addresses *)
  queued_on : int option;
      (** index of the listener whose accept queue held this connection *)
  syn_child_of : int option;
      (** index of the listener whose SYN queue held this half-open child *)
  nonblock_pending : bool;
}

val to_value : image -> Value.t
val of_value : Value.t -> image

val classify : Socket.t -> [ `Conn of Meta.conn_state | `Listener of int | `Plain ]
(** Exported for [test_ckpt], which checks each socket's classification. *)

val save : ?mode:mode -> ns:Namespace.t -> Socket.t -> image
(** Must run while the owning pod is suspended and its network blocked. *)

val meta_entry : sock_ref:int -> Socket.t -> image -> Meta.entry option
(** The connectivity-table entry for an established-ish stream socket. *)

val trim_overlap : acked:int -> peer_recv:int -> string -> string
(** Discard from saved send-queue data the prefix the peer already received
    (the overlap of Figure 4): [peer_recv - acked] bytes. *)

val restore_options : Socket.t -> image -> unit

val restore_connection : Socket.t -> image -> send_data:string -> unit
(** Apply saved state to a re-established connection: options, receive
    queue via the alternate queue + dispatch interposition, urgent byte,
    (pre-trimmed) send-queue resend, half-close status. *)

val restore_orphan : Socket.t -> image -> unit
(** Endpoint whose peer no longer exists: remaining data readable, then EOF. *)

val restore_dgrams : ns:Namespace.t -> Socket.t -> image -> unit

val bytes_saved : image -> int
(** Queue payload bytes captured. *)

val image_size : image -> int
(** Encoded size of the image (network-state section accounting). *)

(** Per-node network stack: socket creation, binding, port allocation,
    connection demultiplexing, and packet input from the fabric.

    The kernel ({!Zapc_simos.Kernel}) calls in here to implement socket
    system calls; the ZapC Agent calls in directly when reconstructing
    connections at restart. *)


type t

val create : node:int -> Fabric.t -> t
val new_socket : t -> Socket.kind -> Socket.t
val on_packet : t -> Packet.t -> unit

(** {1 Addresses} *)

val add_ip : t -> Addr.ip -> unit
(** Attach an address (host or pod) to this node and the fabric. *)

val remove_ip : t -> Addr.ip -> unit
val default_ip : t -> Addr.ip option

(** {1 Socket operations (system-call back-ends)} *)

val bind : t -> Socket.t -> Addr.t -> (unit, Errno.t) result
(** Port 0 allocates an ephemeral port; a concrete port conflicting with an
    existing binding yields [EADDRINUSE] (unless SO_REUSEADDR). *)

val port_in_use : t -> int -> Addr.ip -> int -> bool
(** [port_in_use t proto ip port]: a listener holds [port] on [ip] or on
    any address, or a connection's local end holds it on [ip] (on any ip,
    when [ip] is {!Addr.any}).  [proto] is the IP protocol number (6 TCP,
    17 UDP).  Reads per-port counts of the connection table, kept by its
    two writers, so it costs O(1) whatever the connection count.
    Exported for [test_simnet], which holds it to a scan of
    {!listener_keys} and {!estab_keys} after every bind, connect, close
    and unregister. *)

val listener_keys : t -> (int * Addr.ip * int) list
(** The listener table's keys, [(proto, ip, port)], in no order.
    Exported for [test_simnet]'s [port_in_use] reference. *)

val estab_keys : t -> (int * Addr.ip * int * Addr.ip * int) list
(** The connection table's keys, [(proto, local ip, local port, remote
    ip, remote port)], in no order.  Exported for [test_simnet]'s
    [port_in_use] reference. *)

val listen : t -> Socket.t -> int -> (unit, Errno.t) result

val connect_start : t -> Socket.t -> Addr.t -> (unit, Errno.t) result
(** Stream: auto-bind (honouring [src_hint]), register for demux, begin the
    TCP handshake.  Datagram/raw: set the default peer and re-register under
    the connected 4-tuple. *)

val accept_take : Socket.t -> Socket.t option
(** Pop one established connection off a listener's accept queue. *)

val sendto : t -> Socket.t -> Addr.t -> string -> (int, Errno.t) result
val close : t -> Socket.t -> unit

val freeze_ip : t -> Addr.ip -> unit
(** Stop the TCP retransmission timers of every socket bound to [ip]: a
    checkpoint-frozen pod's network state freezes with the pod (paper
    section 5), so the netfilter-blocked window does not consume its
    connections' retry budgets. *)

val thaw_ip : t -> Addr.ip -> unit
(** Undo {!freeze_ip}: reset each bound socket's backoff and re-arm its
    retransmission timer so recovery starts promptly after the pod
    resumes. *)

val set_gm_handler : t -> (Packet.t -> string -> unit) -> unit
(** Kernel-bypass device hook: Raw-IP packets with {!Gmdev.gm_proto} are
    handed to the device instead of the raw-socket path. *)

val send_packet : t -> Packet.t -> unit
(** Raw transmit onto the fabric (used by the GM device). *)

val socket_count : t -> int

val net_stats : t -> Socket.net_stats
(** Aggregate transport counters for this stack (shared with every socket
    via the netctx). *)

val retransmit_count : t -> int
(** Total TCP retransmissions fired by any socket of this stack. *)

val window_stall_count : t -> int
(** Total zero-window persist stalls entered by any socket of this stack. *)

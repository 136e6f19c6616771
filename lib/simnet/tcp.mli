(** TCP protocol engine over {!Socket.t}.

    A deliberately real implementation: three-way handshake, cumulative
    acknowledgements, retransmission with exponential backoff and fast
    retransmit, receiver flow control, a small AIMD congestion window,
    out-of-order reassembly (URG markings preserved across reordering),
    FIN teardown through the full state machine, RST handling, and
    single-byte urgent data with BSD out-of-band semantics.

    The checkpoint-restart mechanism depends on the PCB invariants this
    module maintains: [snd_una <= snd_nxt], the retransmission queue holding
    exactly the acked..sent bytes, and [rcv_nxt] advancing only over
    delivered (or OOB-extracted) sequence space. *)

(** {1 Connection lifecycle} *)

val connect : Socket.t -> unit
(** Begin the handshake ([local]/[remote] must already be set and the socket
    registered for demux); completion is observed via the socket state and
    writable wakeups. *)

val listen : Socket.t -> int -> unit
val on_segment : Socket.t -> Packet.tcp_seg -> unit

val on_listener_segment :
  Socket.t -> Addr.t -> Addr.t -> Packet.tcp_seg -> unit
(** SYN arriving at a listening socket: create the child connection and
    reply SYN+ACK; it reaches the accept queue when the handshake
    completes. *)

val restore_syn_received : Socket.t -> iss:int -> irs:int -> unit
(** Rebuild a half-open (SYN_RECEIVED) child at restart from its
    checkpointed sequence numbers and re-emit the SYN+ACK.  The caller must
    have set [local]/[remote] and attached the socket to its restored
    listener ([parent], [pending_children], [synq]). *)

val shutdown_write : Socket.t -> unit
(** Queue a FIN behind any buffered data (half close). *)

val close : Socket.t -> unit

(** {1 Data transfer} *)

val send_data : Socket.t -> string -> (int, Errno.t) result
(** Buffer as much as fits in the send buffer and transmit within the flow
    and congestion windows.  [Ok 0] means the buffer is full: block on
    writable.  Writing after shutdown yields [Error EPIPE]. *)

val send_oob : Socket.t -> char -> (unit, Errno.t) result
(** Single-byte urgent data: its own URG segment, occupying sequence space. *)

val output : Socket.t -> unit
(** Push buffered data to the wire (called after restores refill sendq). *)

val after_app_read : Socket.t -> unit
(** Receiver-side window update after the application drains the receive
    queue, so a sender stalled on a zero window resumes. *)

val refresh_keepalive : Socket.t -> unit
(** (Re-)arm the keepalive machinery: when SO_KEEPALIVE is set on an
    established connection, an idle period of TCP_KEEPIDLE seconds triggers
    probes every TCP_KEEPINTVL seconds; after TCP_KEEPCNT unanswered probes
    the connection resets with ETIMEDOUT.  Called automatically when a
    connection establishes, and by network-state restore after re-applying
    the saved socket options (the paper's keepalive-timer protocol state). *)

val net_freeze : Socket.t -> unit
(** Stop the retransmission timer: a checkpoint-frozen pod's network state
    — timers included — freezes with the pod (paper section 5), so retries
    are not burned against a netfilter-blocked address. *)

val net_thaw : Socket.t -> unit
(** Undo [net_freeze]: reset the backoff to the initial RTO, refresh the
    head retry budget and re-arm if unacknowledged data is outstanding, so
    a thawed connection recovers promptly instead of waiting out a backed-
    off timer (and never aborts just because freeze windows kept landing on
    its retransmissions). *)

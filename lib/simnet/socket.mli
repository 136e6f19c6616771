(** The socket abstraction — the communication endpoint the paper's
    network-state checkpoint-restart is defined against.

    Each socket carries (a) a parameter table ({!Sockopt}), (b) data queues —
    receive, send, datagram, and the {e alternate receive queue} used at
    restart — and (c) for stream sockets a TCP control block (the paper's
    PCB, holding the sent/recv/acked sequence numbers).

    Application-facing operations go through a per-socket {e dispatch
    vector} (recvmsg / poll / release), mirroring how ZapC interposes on the
    kernel's socket operations: at restart the restored receive-queue
    contents are deposited in [altq] and interposed implementations serve
    that data first, uninstalling themselves once it is depleted. *)

module Simtime = Zapc_sim.Simtime
module Rng = Zapc_sim.Rng

type kind = Stream | Dgram | Raw of int

val kind_to_string : kind -> string

type tcp_state =
  | St_closed
  | St_listen
  | St_syn_sent
  | St_syn_received
  | St_established
  | St_fin_wait_1
  | St_fin_wait_2
  | St_close_wait
  | St_closing
  | St_last_ack
  | St_time_wait

val tcp_state_to_string : tcp_state -> string

(** One unacknowledged transmission unit: the retransmission queue holds
    exactly the acked..sent bytes the checkpoint extracts as the in-kernel
    send queue. *)
type retx_item = {
  rx_seq : int;
  rx_payload : string;
  rx_fin : bool;
  rx_urg : bool;
  mutable rx_retries : int;
}

(** TCP protocol control block.  [snd_nxt] is the paper's "sent", [rcv_nxt]
    its "recv", [snd_una] its "acked" — the necessary-and-sufficient state
    of section 5. *)
type tcb = {
  mutable st : tcp_state;
  mutable iss : int;
  mutable irs : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable rcv_nxt : int;
  mutable snd_wnd : int;
  mutable cwnd : int;
  mutable rto : Simtime.t;
  mutable rto_armed : bool;
  mutable rto_gen : int;
  mutable ooo : (int * string * bool) list;
      (** out-of-order reassembly, seq-sorted; the flag preserves URG across
          reordering *)
  retx : retx_item Queue.t;
  mutable dup_acks : int;
  mutable fin_rcvd : bool;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable adv_wnd : int;  (** window advertised in our last segment *)
  mutable retransmits : int;
  mutable ka_last : int;  (** keepalive: time of last activity *)
  mutable ka_probes : int;
  mutable ka_gen : int;
}

type recv_flags = { peek : bool; oob : bool; dontwait : bool }

val plain_recv : recv_flags

type poll_events = {
  readable : bool;
  writable : bool;
  pollerr : bool;
  hangup : bool;
}

type recv_result =
  | Rv_data of string
  | Rv_from of Addr.t * string
  | Rv_eof
  | Rv_block
  | Rv_err of Errno.t

type t = {
  id : int;
  kind : kind;
  opts : Sockopt.table;
  mutable local : Addr.t option;
  mutable remote : Addr.t option;
  mutable src_hint : Addr.ip option;  (** preferred source address (pod rip) *)
  recvq : Sockbuf.t;
  sendq : Sockbuf.t;
  altq : Sockbuf.t;  (** the alternate receive queue installed at restart *)
  mutable oob_byte : char option;  (** BSD-style out-of-band byte *)
  dgrams : (Addr.t * string) Queue.t;
  mutable dgram_bytes : int;
  mutable tcb : tcb option;
  accept_q : t Queue.t;
  mutable backlog : int;
  mutable pending_children : int;  (** SYN_RECEIVED children not yet accepted *)
  mutable synq : t list;  (** the SYN queue: those children, arrival order *)
  mutable parent : t option;
  mutable born_by_accept : bool;  (** provenance, drives the restart schedule *)
  mutable err : Errno.t option;
  mutable shut_rd : bool;
  mutable shut_wr : bool;
  mutable closed : bool;
  rd_waiters : Waitq.t;  (** woken when the socket may have become readable *)
  wr_waiters : Waitq.t;  (** woken when the socket may have become writable *)
  mutable rto_tm : nc_timer option;  (* lazily-created retransmission timer *)
  dispatch : dispatch;
  netctx : netctx;
}

(** The interposable dispatch vector (recvmsg / poll / release). *)
and dispatch = {
  mutable d_recvmsg : t -> recv_flags -> int -> recv_result;
  mutable d_poll : t -> poll_events;
  mutable d_release : t -> unit;
  mutable interposed : bool;
}

(** Capabilities the protocol engines need from the owning network stack
    (clock, timers, transmit, demux registration), stored on the socket so
    {!Tcp} needs no dependency on {!Netstack}. *)
and netctx = {
  nc_now : unit -> Simtime.t;
  nc_schedule : Simtime.t -> (unit -> unit) -> unit;
  nc_new_timer : (unit -> unit) -> nc_timer;
  nc_tx : Packet.t -> unit;
  nc_new_socket : kind -> t;
  nc_register_estab : t -> unit;
  nc_unregister : t -> unit;
  nc_rng : Rng.t;
  nc_stats : net_stats;
}

(** A cancellable timer handed out by the owning stack: re-arming moves the
    deadline instead of queueing another closure, so hot restart paths (RTO
    on every ACK) stop flooding the event queue with dead closures. *)
and nc_timer = {
  nct_arm_in : Simtime.t -> unit;
  nct_cancel : unit -> unit;
}

(** Per-stack aggregate transport counters (retransmissions fired,
    zero-window persist stalls entered), shared by every socket of the
    owning {!Netstack} and sampled by the observability layer. *)
and net_stats = {
  mutable ns_retransmits : int;
  mutable ns_window_stalls : int;
}

val create : id:int -> kind:kind -> netctx:netctx -> t

(** {1 Derived properties} *)

val rcvbuf : t -> int
val sndbuf : t -> int
val mss : t -> int
val nonblocking : t -> bool
val oob_inline : t -> bool
val advertised_window : t -> int
val sendq_space : t -> int
val tcp_state : t -> tcp_state
val is_listening : t -> bool

(** {1 Wakeups (condition-variable style)}

    Each direction has one {!Waitq.t}.  A waiter is queued at most once
    (a closure already queued is not added again), and a wake empties the
    queue and runs its waiters in first-registration order. *)

val wake_readers : t -> unit
val wake_writers : t -> unit
val wake_all : t -> unit
val wait_readable : t -> (unit -> unit) -> unit
val wait_writable : t -> (unit -> unit) -> unit

(** {1 SYN-queue maintenance (listener half-open children)} *)

val synq_add : t -> t -> unit
val synq_remove : t -> t -> unit

(** {1 Alternate receive queue interposition (paper section 5)} *)

val install_altqueue : t -> string -> unit
(** Deposit restored receive data and interpose the dispatch vector so the
    application consumes it before anything newer; the original methods are
    reinstated once the queue drains (no steady-state overhead). *)

val append_altqueue : t -> string -> unit
(** Send-queue redirection: concatenate redirected peer data behind the
    already-restored receive data. *)

val uninstall_interposition : t -> unit

(** {1 Checkpoint-side accessors (used by Zapc_netckpt)} *)

val recv_queue_contents : t -> string
val alt_queue_contents : t -> string
val unsent_data : t -> string

val unacked_data : t -> string
(** The data between acked (snd_una) and sent (snd_nxt): the in-kernel send
    queue the paper extracts by walking the socket buffers. *)

val pp : Format.formatter -> t -> unit

(* The socket abstraction: the communication endpoint the paper's
   network-state checkpoint-restart is defined against.

   Each socket carries (a) a parameter table (Sockopt), (b) data queues —
   receive, send, datagram, and the *alternate receive queue* used at
   restart, and (c) for stream sockets a TCP control block (the PCB of the
   paper, holding the sent/recv/acked sequence numbers).

   Application-facing operations go through a per-socket *dispatch vector*
   (recvmsg / poll / release), mirroring how ZapC interposes on the kernel's
   socket ops: at restart the restored receive-queue contents are placed in
   [altq] and interposed implementations serve that data first, uninstalling
   themselves once it is depleted. *)

module Simtime = Zapc_sim.Simtime
module Rng = Zapc_sim.Rng

type kind = Stream | Dgram | Raw of int

let kind_to_string = function
  | Stream -> "stream"
  | Dgram -> "dgram"
  | Raw p -> "raw:" ^ string_of_int p

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

let tcp_state_to_string = function
  | St_closed -> "closed"
  | St_listen -> "listen"
  | St_syn_sent -> "syn_sent"
  | St_syn_received -> "syn_received"
  | St_established -> "established"
  | St_fin_wait_1 -> "fin_wait_1"
  | St_fin_wait_2 -> "fin_wait_2"
  | St_close_wait -> "close_wait"
  | St_closing -> "closing"
  | St_last_ack -> "last_ack"
  | St_time_wait -> "time_wait"

type retx_item = {
  rx_seq : int;
  rx_payload : string;
  rx_fin : bool;
  rx_urg : bool;
  mutable rx_retries : int;
}

(* TCP protocol control block.  [snd_nxt] is the paper's "sent", [rcv_nxt]
   its "recv", [snd_una] its "acked". *)
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
  (* out-of-order reassembly, seq-sorted; the flag preserves URG across
     reordering *)
  retx : retx_item Queue.t;
  mutable dup_acks : int;
  mutable fin_rcvd : bool;
  mutable fin_queued : bool;  (* FIN requested, sent once sendq drains *)
  mutable fin_sent : bool;
  mutable adv_wnd : int;  (* window advertised in our last segment *)
  mutable retransmits : int;
  (* keepalive machinery (armed when SO_KEEPALIVE is set) *)
  mutable ka_last : int;  (* time of last activity on the connection *)
  mutable ka_probes : int;  (* unanswered probes so far *)
  mutable ka_gen : int;  (* cancels stale keepalive timers *)
}

type recv_flags = { peek : bool; oob : bool; dontwait : bool }

let plain_recv = { peek = false; oob = false; dontwait = false }

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
  mutable src_hint : Addr.ip option;  (* preferred source address (pod rip) *)
  recvq : Sockbuf.t;
  sendq : Sockbuf.t;
  altq : Sockbuf.t;
  mutable oob_byte : char option;
  dgrams : (Addr.t * string) Queue.t;
  mutable dgram_bytes : int;
  mutable tcb : tcb option;
  accept_q : t Queue.t;
  mutable backlog : int;
  mutable pending_children : int;  (* SYN_RECEIVED children not yet accepted *)
  mutable synq : t list;  (* the SYN queue: those children, arrival order *)
  mutable parent : t option;
  mutable born_by_accept : bool;
  mutable err : Errno.t option;
  mutable shut_rd : bool;
  mutable shut_wr : bool;
  mutable closed : bool;
  rd_waiters : Waitq.t;
  wr_waiters : Waitq.t;
  mutable rto_tm : nc_timer option;  (* lazily-created retransmission timer *)
  dispatch : dispatch;
  netctx : netctx;
}

and dispatch = {
  mutable d_recvmsg : t -> recv_flags -> int -> recv_result;
  mutable d_poll : t -> poll_events;
  mutable d_release : t -> unit;
  mutable interposed : bool;
}

(* Capabilities the protocol engines need from the owning network stack.
   Stored on the socket so Tcp and Socket need no dependency on Netstack. *)
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

(* A cancellable timer handed out by the owning stack (backed by
   [Engine.timer]): re-arming moves the deadline instead of queueing
   another closure, so per-ACK RTO restarts cost no queue traffic. *)
and nc_timer = {
  nct_arm_in : Simtime.t -> unit;
  nct_cancel : unit -> unit;
}

(* Per-stack aggregate transport counters, shared by every socket of the
   owning Netstack and sampled by the observability layer. *)
and net_stats = {
  mutable ns_retransmits : int;
  mutable ns_window_stalls : int;
}

let rcvbuf s = Sockopt.get s.opts Sockopt.SO_RCVBUF
let sndbuf s = Sockopt.get s.opts Sockopt.SO_SNDBUF
let mss s = Stdlib.max 1 (Sockopt.get s.opts Sockopt.TCP_MAXSEG)
let nonblocking s = Sockopt.get s.opts Sockopt.SO_NONBLOCK <> 0
let oob_inline s = Sockopt.get s.opts Sockopt.SO_OOBINLINE <> 0

let advertised_window s = Stdlib.max 0 (rcvbuf s - Sockbuf.length s.recvq)
let sendq_space s = Stdlib.max 0 (sndbuf s - Sockbuf.length s.sendq)

let tcp_state s = match s.tcb with Some tcb -> tcb.st | None -> St_closed

let is_listening s = tcp_state s = St_listen

let wake_readers s = Waitq.wake s.rd_waiters
let wake_writers s = Waitq.wake s.wr_waiters

let wake_all s =
  wake_readers s;
  wake_writers s

let wait_readable s w = Waitq.add s.rd_waiters w
let wait_writable s w = Waitq.add s.wr_waiters w

let synq_add listener child = listener.synq <- listener.synq @ [ child ]

let synq_remove listener child =
  listener.synq <- List.filter (fun c -> not (c == child)) listener.synq

(* --- default dispatch implementations --- *)

let stream_readable s =
  (not (Sockbuf.is_empty s.recvq))
  || (match s.oob_byte with Some _ -> true | None -> false)
  || (match s.err with Some _ -> true | None -> false)
  || s.shut_rd
  || (match s.tcb with Some tcb -> tcb.fin_rcvd | None -> false)

let default_recvmsg s (flags : recv_flags) n : recv_result =
  match s.kind with
  | Stream ->
    if flags.oob then (
      match s.oob_byte with
      | Some c ->
        if not flags.peek then s.oob_byte <- None;
        Rv_data (String.make 1 c)
      | None -> Rv_err Errno.EINVAL)
    else if not (Sockbuf.is_empty s.recvq) then
      Rv_data (Sockbuf.read s.recvq ~consume:(not flags.peek) n)
    else begin
      match s.err with
      | Some e ->
        if not flags.peek then s.err <- None;
        Rv_err e
      | None ->
        if s.shut_rd then Rv_eof
        else (
          match s.tcb with
          | Some tcb when tcb.fin_rcvd -> Rv_eof
          | Some tcb when tcb.st = St_closed -> Rv_eof
          | Some _ -> Rv_block
          | None -> Rv_err Errno.ENOTCONN)
    end
  | Dgram | Raw _ ->
    if Queue.is_empty s.dgrams then begin
      match s.err with
      | Some e ->
        if not flags.peek then s.err <- None;
        Rv_err e
      | None -> if s.shut_rd then Rv_eof else Rv_block
    end
    else
      let from, data = Queue.peek s.dgrams in
      if not flags.peek then begin
        ignore (Queue.pop s.dgrams);
        s.dgram_bytes <- s.dgram_bytes - String.length data
      end;
      let data = if String.length data > n then String.sub data 0 n else data in
      Rv_from (from, data)

let stream_writable s =
  (not s.shut_wr)
  &&
  match s.tcb with
  | Some tcb ->
    (match tcb.st with
     | St_established | St_close_wait -> sendq_space s > 0
     | St_closed -> s.err <> None (* connect failed: report via poll *)
     | St_listen | St_syn_sent | St_syn_received | St_fin_wait_1 | St_fin_wait_2
     | St_closing | St_last_ack | St_time_wait -> false)
  | None -> false

let default_poll s : poll_events =
  match s.kind with
  | Stream ->
    let listener_ready = not (Queue.is_empty s.accept_q) in
    let readable = listener_ready || stream_readable s in
    let hangup = (match s.tcb with Some tcb -> tcb.fin_rcvd | None -> false) || s.closed in
    { readable; writable = stream_writable s; pollerr = s.err <> None; hangup }
  | Dgram | Raw _ ->
    {
      readable = (not (Queue.is_empty s.dgrams)) || s.err <> None;
      writable = true;
      pollerr = s.err <> None;
      hangup = false;
    }

(* [default_poll]'s relevance test with short-circuit field reads and no
   record: pollerr and hangup first, since they report whatever was asked
   for.  A socket whose poll method is not the default (the alternate-queue
   interposition below) asks that method instead. *)
let poll_relevant s ~want_read ~want_write =
  if s.dispatch.d_poll != default_poll then
    let ev = s.dispatch.d_poll s in
    (ev.readable && want_read) || (ev.writable && want_write) || ev.pollerr || ev.hangup
  else
    let erred = match s.err with Some _ -> true | None -> false in
    match s.kind with
    | Stream ->
      erred || s.closed
      || (match s.tcb with Some tcb -> tcb.fin_rcvd | None -> false)
      || (want_read && ((not (Queue.is_empty s.accept_q)) || stream_readable s))
      || (want_write && stream_writable s)
    | Dgram | Raw _ -> erred || want_write || (want_read && not (Queue.is_empty s.dgrams))

let default_release s =
  Sockbuf.clear s.recvq;
  Sockbuf.clear s.altq;
  s.oob_byte <- None;
  Queue.clear s.dgrams;
  s.dgram_bytes <- 0

let make_dispatch () =
  { d_recvmsg = default_recvmsg; d_poll = default_poll; d_release = default_release;
    interposed = false }

let create ~id ~kind ~netctx =
  {
    id;
    kind;
    opts = Sockopt.create ();
    local = None;
    remote = None;
    src_hint = None;
    recvq = Sockbuf.create ();
    sendq = Sockbuf.create ();
    altq = Sockbuf.create ();
    oob_byte = None;
    dgrams = Queue.create ();
    dgram_bytes = 0;
    tcb = None;
    accept_q = Queue.create ();
    backlog = 0;
    pending_children = 0;
    synq = [];
    parent = None;
    born_by_accept = false;
    err = None;
    shut_rd = false;
    shut_wr = false;
    closed = false;
    rd_waiters = Waitq.create ();
    wr_waiters = Waitq.create ();
    rto_tm = None;
    dispatch = make_dispatch ();
    netctx;
  }

(* --- alternate receive queue interposition (paper section 5) ---

   [install_altqueue] deposits restored receive-queue data in [altq] and
   replaces the recvmsg/poll/release entries of the dispatch vector.  The
   interposed recvmsg serves [altq] before the main receive queue, so the
   application is guaranteed to consume restored data before anything that
   arrives after the restart; once [altq] drains, the original methods are
   reinstated so regular operation pays no overhead. *)

let uninstall_interposition s =
  s.dispatch.d_recvmsg <- default_recvmsg;
  s.dispatch.d_poll <- default_poll;
  s.dispatch.d_release <- default_release;
  s.dispatch.interposed <- false

let interposed_recvmsg s (flags : recv_flags) n : recv_result =
  if flags.oob then default_recvmsg s flags n
  else if not (Sockbuf.is_empty s.altq) then begin
    let data = Sockbuf.read s.altq ~consume:(not flags.peek) n in
    if Sockbuf.is_empty s.altq && not flags.peek then uninstall_interposition s;
    Rv_data data
  end
  else begin
    uninstall_interposition s;
    default_recvmsg s flags n
  end

let interposed_poll s : poll_events =
  if not (Sockbuf.is_empty s.altq) then
    { (default_poll s) with readable = true }
  else default_poll s

let interposed_release s =
  Sockbuf.clear s.altq;
  uninstall_interposition s;
  default_release s

let install_altqueue s data =
  if String.length data > 0 then begin
    Sockbuf.push s.altq data;
    s.dispatch.d_recvmsg <- interposed_recvmsg;
    s.dispatch.d_poll <- interposed_poll;
    s.dispatch.d_release <- interposed_release;
    s.dispatch.interposed <- true;
    wake_readers s
  end

let append_altqueue s data =
  (* Used by the send-queue redirection optimization: peer send-queue data is
     concatenated behind the already-restored receive data. *)
  if String.length data > 0 then begin
    if not s.dispatch.interposed then install_altqueue s data
    else begin
      Sockbuf.push s.altq data;
      wake_readers s
    end
  end

(* --- checkpoint-side accessors (used by Zapc_netckpt) --- *)

let recv_queue_contents s = Sockbuf.contents s.recvq

let unsent_data s = Sockbuf.contents s.sendq

let unacked_data s =
  (* Data between acked (snd_una) and sent (snd_nxt): the in-kernel send
     queue the paper extracts by walking the socket buffers. *)
  match s.tcb with
  | None -> ""
  | Some tcb ->
    let buf = Buffer.create 256 in
    Queue.iter (fun item -> Buffer.add_string buf item.rx_payload) tcb.retx;
    Buffer.contents buf

let pp ppf s =
  Format.fprintf ppf "sock#%d %s %a->%a %s" s.id (kind_to_string s.kind)
    (Format.pp_print_option Addr.pp) s.local (Format.pp_print_option Addr.pp) s.remote
    (tcp_state_to_string (tcp_state s))

(* Sharded, mirrored key-value server pod.

   One process per pod: a nonblocking listener plus an event loop over
   thousands of client connections, driven entirely by Poll.  Requests carry
   a (client, id) pair; the server applies them idempotently against an
   in-memory log ([applied]), so a client retry after a timeout or a crash
   restore is answered from the log instead of being applied twice — the
   server half of the exactly-once argument (DESIGN.md §11).

   Keys hash to shards (Kv_wire.owner); a request for a key this shard does
   not own is answered with a redirect naming the owner.  Owned writes are
   additionally streamed to the next shard over a persistent server-to-server
   connection ([Repl] frames, acked with [Repl_ack]); the mirror applies them
   idempotently into a side table.  That replication link is exactly the
   kind of long-lived cross-pod connection the checkpointer must carry
   through migrations and coordinated epochs.

   Everything the service *is* lives in checkpointable state: the store, the
   applied log, and the per-connection partial-frame buffers.  A restart
   reconstructs the event loop from those buffers alone. *)

module Value = Zapc_codec.Value
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Socket = Zapc_simnet.Socket
module Sockopt = Zapc_simnet.Sockopt
module Addr = Zapc_simnet.Addr
module Errno = Zapc_simnet.Errno

type conn = {
  mutable inbuf : string;
  mutable outbuf : string;
  (* derived, never imaged: whether it wanted to write as of the kept
     request list, and whether it is on [touched] *)
  mutable polled_ww : bool;
  mutable touched : bool;
}

let new_conn ~inbuf ~outbuf = { inbuf; outbuf; polled_ww = false; touched = false }

type work =
  | W_accept
  | W_setnb of int
  | W_recv of int
  | W_send of int
  | W_close of int
  (* outgoing replication link to the mirror shard *)
  | W_rsock
  | W_rconnect
  | W_rsend
  | W_rclose of int

type state = {
  port : int;
  shard : int;
  nshards : int;
  backlog : int;
  mirror_addr : Addr.t option;  (* next shard's vip, if replicating *)
  store : (string, string) Hashtbl.t;
  applied : (int * int, Kv_wire.resp) Hashtbl.t;  (* the in-memory log *)
  mirror : (string, string) Hashtbl.t;  (* replica of the previous shard *)
  mirror_applied : (int * int, unit) Hashtbl.t;
  conns : (int, conn) Hashtbl.t;
  mutable log_seq : int;
  mutable lfd : int;
  mutable ph : int;  (* 0 socket, 1 setnb, 2 bind, 3 listen, 4 loop *)
  mutable todo : work list;  (* runnable work, oldest first... *)
  mutable todo_rev : work list;  (* ...then these, newest first *)
  mutable last : work option;  (* work whose syscall outcome we will receive *)
  mutable polling : bool;
  mutable poll_reqs : Syscall.poll_req list option;
      (* derived, never imaged: the last poll's request list, kept while
         [conns] and [lfd] stay the same and no touched connection's
         outbuf emptiness nor the replication link's [link_key] moved *)
  mutable touched : conn list;  (* derived: connections set since the last poll *)
  mutable polled_link : int;  (* derived: [link_key] as of the kept list *)
  (* replication-link client state *)
  mutable r_fd : int;
  mutable r_st : int;  (* 0 closed, 1 connecting, 2 up *)
  mutable r_out : string;
  mutable r_in : string;
  mutable r_cool : int;  (* poll wakes to skip before the next reconnect *)
  (* counters, surfaced through snapshots *)
  mutable accepted : int;
  mutable served : int;
  mutable dup_hits : int;
  mutable redirects : int;
  mutable repl_sent : int;
  mutable repl_acked : int;
  mutable repl_applied : int;
}

let name = "kvstore"

let start args =
  {
    port = Value.to_int (Value.field "port" args);
    shard = Value.to_int (Value.field "shard" args);
    nshards = Value.to_int (Value.field "nshards" args);
    backlog = Value.to_int (Value.field "backlog" args);
    mirror_addr =
      (match Value.field_opt "mirror" args with
       | Some v -> Value.to_option Addr.of_value v
       | None -> None);
    store = Hashtbl.create 256;
    applied = Hashtbl.create 1024;
    mirror = Hashtbl.create 256;
    mirror_applied = Hashtbl.create 1024;
    conns = Hashtbl.create 1024;
    log_seq = 0;
    lfd = -1;
    ph = 0;
    todo = [];
    todo_rev = [];
    last = None;
    polling = false;
    poll_reqs = None;
    touched = [];
    polled_link = -1;
    r_fd = -1;
    r_st = 0;
    r_out = "";
    r_in = "";
    r_cool = 0;
    accepted = 0;
    served = 0;
    dup_hits = 0;
    redirects = 0;
    repl_sent = 0;
    repl_acked = 0;
    repl_applied = 0;
  }

(* A FIFO of two lists: [push] conses onto the reversed tail, and the head
   takes the tail over, reversed once, when it runs dry. *)
let push s w = s.todo_rev <- w :: s.todo_rev

let pop s =
  match s.todo with
  | w :: rest ->
    s.todo <- rest;
    Some w
  | [] ->
    (match List.rev s.todo_rev with
     | [] -> None
     | w :: rest ->
       s.todo <- rest;
       s.todo_rev <- [];
       Some w)

(* The writer of a connection's outbuf puts it on [touched], the only
   connections the next poll compares. *)
let set_outbuf s (c : conn) b =
  if not c.touched then begin
    c.touched <- true;
    s.touched <- c :: s.touched
  end;
  c.outbuf <- b

let key_of = function Kv_wire.Set (k, _) | Kv_wire.Get k | Kv_wire.Del k -> k

let apply_op s (op : Kv_wire.op) =
  s.log_seq <- s.log_seq + 1;
  match op with
  | Kv_wire.Set (k, v) ->
    Hashtbl.replace s.store k v;
    (Kv_wire.S_ok, "")
  | Kv_wire.Get k ->
    (match Hashtbl.find_opt s.store k with
     | Some v -> (Kv_wire.S_ok, v)
     | None -> (Kv_wire.S_not_found, ""))
  | Kv_wire.Del k ->
    if Hashtbl.mem s.store k then begin
      Hashtbl.remove s.store k;
      (Kv_wire.S_ok, "")
    end
    else (Kv_wire.S_not_found, "")

let replicate s (r : Kv_wire.req) =
  match (s.mirror_addr, r.rq_op) with
  | Some _, (Kv_wire.Set _ | Kv_wire.Del _) ->
    s.r_out <-
      s.r_out
      ^ Kv_wire.frame
          (Kv_wire.Repl
             { rp_seq = s.log_seq; rp_client = r.rq_client; rp_id = r.rq_id; rp_op = r.rq_op });
    s.repl_sent <- s.repl_sent + 1;
    if s.r_st = 2 then push s W_rsend
  | _ -> ()

let handle_req s (r : Kv_wire.req) : Kv_wire.resp =
  let o = Kv_wire.owner ~nshards:s.nshards (key_of r.rq_op) in
  if o <> s.shard then begin
    s.redirects <- s.redirects + 1;
    { rs_client = r.rq_client; rs_id = r.rq_id; rs_status = Kv_wire.S_redirect o; rs_value = "" }
  end
  else
    match Hashtbl.find_opt s.applied (r.rq_client, r.rq_id) with
    | Some resp ->
      s.dup_hits <- s.dup_hits + 1;
      resp
    | None ->
      let status, value = apply_op s r.rq_op in
      let resp =
        { Kv_wire.rs_client = r.rq_client; rs_id = r.rq_id; rs_status = status; rs_value = value }
      in
      Hashtbl.replace s.applied (r.rq_client, r.rq_id) resp;
      replicate s r;
      s.served <- s.served + 1;
      resp

let handle_msg s (c : conn) fd = function
  | Kv_wire.Req r ->
    let was_empty = c.outbuf = "" in
    set_outbuf s c (c.outbuf ^ Kv_wire.frame (Kv_wire.Resp (handle_req s r)));
    if was_empty then push s (W_send fd)
  | Kv_wire.Repl r ->
    (* mirror side of the replication stream: apply idempotently, ack *)
    if not (Hashtbl.mem s.mirror_applied (r.rp_client, r.rp_id)) then begin
      Hashtbl.replace s.mirror_applied (r.rp_client, r.rp_id) ();
      (match r.rp_op with
       | Kv_wire.Set (k, v) -> Hashtbl.replace s.mirror k v
       | Kv_wire.Del k -> Hashtbl.remove s.mirror k
       | Kv_wire.Get _ -> ());
      s.repl_applied <- s.repl_applied + 1
    end;
    let was_empty = c.outbuf = "" in
    set_outbuf s c (c.outbuf ^ Kv_wire.frame (Kv_wire.Repl_ack r.rp_seq));
    if was_empty then push s (W_send fd)
  | Kv_wire.Repl_ack _ | Kv_wire.Resp _ -> ()

(* Acks for our own replication stream arrive on the outgoing link. *)
let handle_rmsg s = function
  | Kv_wire.Repl_ack _ -> s.repl_acked <- s.repl_acked + 1
  | Kv_wire.Req _ | Kv_wire.Resp _ | Kv_wire.Repl _ -> ()

let close_conn s fd =
  if Hashtbl.mem s.conns fd then begin
    Hashtbl.remove s.conns fd;
    s.poll_reqs <- None;
    push s (W_close fd)
  end

let drop_repl_link s =
  if s.r_fd >= 0 then push s (W_rclose s.r_fd);
  s.r_fd <- -1;
  s.r_st <- 0;
  s.r_in <- "";
  s.r_cool <- 32

let apply_result s (w : work) (outcome : Syscall.outcome) =
  match (w, outcome) with
  | W_accept, Syscall.Ret (Syscall.Raccept (fd, _)) ->
    Hashtbl.replace s.conns fd (new_conn ~inbuf:"" ~outbuf:"");
    s.poll_reqs <- None;
    s.accepted <- s.accepted + 1;
    push s (W_setnb fd);
    push s (W_recv fd);
    push s W_accept
  | W_accept, _ -> ()
  | W_setnb _, _ -> ()
  | W_recv fd, Syscall.Ret (Syscall.Rdata "") -> close_conn s fd
  | W_recv fd, Syscall.Ret (Syscall.Rdata d) ->
    (match Hashtbl.find_opt s.conns fd with
     | None -> ()
     | Some c ->
       let msgs, rest = Kv_wire.split (c.inbuf ^ d) in
       c.inbuf <- rest;
       List.iter (handle_msg s c fd) msgs;
       push s (W_recv fd))
  | W_recv _, Syscall.Err Errno.EAGAIN -> ()
  | W_recv fd, Syscall.Err _ -> close_conn s fd
  | W_send fd, Syscall.Ret (Syscall.Rint n) ->
    (match Hashtbl.find_opt s.conns fd with
     | None -> ()
     | Some c ->
       set_outbuf s c (String.sub c.outbuf n (String.length c.outbuf - n));
       if c.outbuf <> "" then push s (W_send fd))
  | W_send _, Syscall.Err Errno.EAGAIN -> ()
  | W_send fd, Syscall.Err _ -> close_conn s fd
  | W_close _, _ -> ()
  (* replication link *)
  | W_rsock, Syscall.Ret (Syscall.Rint fd) ->
    s.r_fd <- fd;
    s.r_st <- 1;
    push s (W_setnb fd);
    push s W_rconnect
  | W_rsock, _ -> drop_repl_link s
  | W_rconnect, Syscall.Ret _ ->
    s.r_st <- 2;
    if s.r_out <> "" then push s W_rsend
  | W_rconnect, Syscall.Err Errno.EAGAIN -> ()  (* in progress; poll writable *)
  | W_rconnect, Syscall.Err _ -> drop_repl_link s
  | W_rsend, Syscall.Ret (Syscall.Rint n) ->
    s.r_out <- String.sub s.r_out n (String.length s.r_out - n);
    if s.r_out <> "" then push s W_rsend
  | W_rsend, Syscall.Err Errno.EAGAIN -> ()
  | W_rsend, Syscall.Err _ -> drop_repl_link s
  | W_rclose _, _ -> ()
  | (W_recv _ | W_send _ | W_rconnect | W_rsend), _ -> ()

let syscall_of s (w : work) : Syscall.t option =
  match w with
  | W_accept -> Some (Syscall.Accept s.lfd)
  | W_setnb fd -> Some (Syscall.Setsockopt (fd, Sockopt.SO_NONBLOCK, 1))
  | W_recv fd ->
    if Hashtbl.mem s.conns fd || (fd = s.r_fd && fd >= 0) then
      Some (Syscall.Recv (fd, 65536, Socket.plain_recv))
    else None
  | W_send fd ->
    (match Hashtbl.find_opt s.conns fd with
     | Some c when c.outbuf <> "" -> Some (Syscall.Send (fd, c.outbuf))
     | Some _ | None -> None)
  | W_close fd -> Some (Syscall.Close fd)
  | W_rsock -> Some (Syscall.Sock_create Socket.Stream)
  | W_rconnect ->
    (match s.mirror_addr with
     | Some a when s.r_fd >= 0 -> Some (Syscall.Connect (s.r_fd, a))
     | _ -> None)
  | W_rsend ->
    if s.r_fd >= 0 && s.r_st = 2 && s.r_out <> "" then Some (Syscall.Send (s.r_fd, s.r_out))
    else None
  | W_rclose fd -> Some (Syscall.Close fd)

(* What the replication link contributes to a poll: no request without an
   fd, else its fd and whether it wants to write. *)
let link_key s =
  if s.r_fd < 0 then -1 else (2 * s.r_fd) + if s.r_st = 1 || s.r_out <> "" then 1 else 0

(* The listener, every client connection in [conns]' fold order, then the
   replication link. *)
let build_poll_reqs s =
  { Syscall.pfd = s.lfd; want_read = true; want_write = false }
  :: Hashtbl.fold
       (fun fd (c : conn) acc ->
         { Syscall.pfd = fd; want_read = true; want_write = c.outbuf <> "" } :: acc)
       s.conns
       (if s.r_fd >= 0 then
          [ { Syscall.pfd = s.r_fd; want_read = true; want_write = s.r_st = 1 || s.r_out <> "" } ]
        else [])

(* The list to poll: the kernel keys its poll set on the very list, so the
   last one is kept while [conns] and [lfd] are unchanged (a change drops
   it) and no touched connection nor the link moved, which makes it equal
   to a fresh build. *)
let poll_reqs s =
  let unchanged =
    List.fold_left
      (fun same (c : conn) ->
        c.touched <- false;
        same && (c.outbuf <> "") = c.polled_ww)
      true s.touched
  in
  s.touched <- [];
  match s.poll_reqs with
  | Some reqs when unchanged && link_key s = s.polled_link -> reqs
  | Some _ | None ->
    let reqs = build_poll_reqs s in
    Hashtbl.iter (fun _ (c : conn) -> c.polled_ww <- c.outbuf <> "") s.conns;
    s.polled_link <- link_key s;
    s.poll_reqs <- Some reqs;
    reqs

(* Pull the next runnable work item; fall back to Poll over everything. *)
let rec next_action s =
  match pop s with
  | Some w ->
    (match syscall_of s w with
     | Some sc ->
       s.last <- Some w;
       Program.Sys sc
     | None -> next_action s)
  | None ->
    (* (re)establish the replication link lazily, rate-limited by poll wakes *)
    if s.mirror_addr <> None && s.r_st = 0 && s.r_out <> "" && s.r_cool = 0 then begin
      push s W_rsock;
      next_action s
    end
    else begin
      if s.r_cool > 0 then s.r_cool <- s.r_cool - 1;
      s.last <- None;
      s.polling <- true;
      Program.Sys (Syscall.Poll (poll_reqs s, None))
    end

let on_poll s evs =
  List.iter
    (fun (fd, (ev : Socket.poll_events)) ->
      if fd = s.lfd then begin
        if ev.readable then push s W_accept
      end
      else if fd = s.r_fd then begin
        if ev.pollerr || ev.hangup then drop_repl_link s
        else begin
          if ev.writable then
            if s.r_st = 1 then push s W_rconnect
            else if s.r_out <> "" then push s W_rsend;
          if ev.readable then push s (W_recv fd)
        end
      end
      else begin
        if ev.readable || ev.hangup then push s (W_recv fd);
        if ev.writable then push s (W_send fd)
      end)
    evs

(* The replication fd is polled for reads too (acks); route its recv results
   through the link handler rather than the per-conn table. *)
let apply_recv_on_rlink s (outcome : Syscall.outcome) =
  match outcome with
  | Syscall.Ret (Syscall.Rdata "") -> drop_repl_link s
  | Syscall.Ret (Syscall.Rdata d) ->
    let msgs, rest = Kv_wire.split (s.r_in ^ d) in
    s.r_in <- rest;
    List.iter (handle_rmsg s) msgs;
    push s (W_recv s.r_fd)
  | Syscall.Err Errno.EAGAIN -> ()
  | _ -> drop_repl_link s

let step s (outcome : Syscall.outcome) =
  match s.ph with
  | 0 ->
    s.ph <- 1;
    (s, Program.Sys (Syscall.Sock_create Socket.Stream))
  | 1 ->
    (match outcome with
     | Syscall.Ret (Syscall.Rint fd) ->
       s.lfd <- fd;
       s.poll_reqs <- None
     | _ -> ());
    s.ph <- 2;
    (s, Program.Sys (Syscall.Setsockopt (s.lfd, Sockopt.SO_NONBLOCK, 1)))
  | 2 ->
    s.ph <- 3;
    (s, Program.Sys (Syscall.Bind (s.lfd, { Addr.ip = Addr.any; port = s.port })))
  | 3 ->
    s.ph <- 4;
    (s, Program.Sys (Syscall.Listen (s.lfd, s.backlog)))
  | _ ->
    if s.polling then begin
      s.polling <- false;
      (match outcome with Syscall.Ret (Syscall.Rpoll evs) -> on_poll s evs | _ -> ())
    end
    else begin
      (match s.last with
       | Some (W_recv fd) when fd = s.r_fd && s.r_fd >= 0 -> apply_recv_on_rlink s outcome
       | Some w -> apply_result s w outcome
       | None -> ())
    end;
    (s, next_action s)

(* --- persistence --- *)

let tbl_to_sorted_list to_k tbl =
  Hashtbl.fold (fun k v acc -> (to_k k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let store_to_value tbl =
  Value.list (Value.pair Value.str Value.str) (tbl_to_sorted_list Fun.id tbl)

let store_of_value v =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (k, d) -> Hashtbl.replace tbl k d)
    (Value.to_list (Value.to_pair Value.to_str Value.to_str) v);
  tbl

let applied_to_value tbl =
  Value.list
    (fun ((c, i), r) ->
      Value.list Fun.id [ Value.int c; Value.int i; Kv_wire.resp_to_value r ])
    (tbl_to_sorted_list Fun.id tbl)

let applied_of_value v =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      match Value.to_list Fun.id e with
      | [ c; i; r ] ->
        Hashtbl.replace tbl (Value.to_int c, Value.to_int i) (Kv_wire.resp_of_value r)
      | _ -> Value.decode_error "kvstore applied entry")
    (Value.to_list Fun.id v);
  tbl

let work_to_value = function
  | W_accept -> Value.tag "acc" Value.unit
  | W_setnb fd -> Value.tag "nb" (Value.int fd)
  | W_recv fd -> Value.tag "rx" (Value.int fd)
  | W_send fd -> Value.tag "tx" (Value.int fd)
  | W_close fd -> Value.tag "cl" (Value.int fd)
  | W_rsock -> Value.tag "rs" Value.unit
  | W_rconnect -> Value.tag "rc" Value.unit
  | W_rsend -> Value.tag "rt" Value.unit
  | W_rclose fd -> Value.tag "rx2" (Value.int fd)

let work_of_value v =
  match Value.to_tag v with
  | "acc", _ -> W_accept
  | "nb", fd -> W_setnb (Value.to_int fd)
  | "rx", fd -> W_recv (Value.to_int fd)
  | "tx", fd -> W_send (Value.to_int fd)
  | "cl", fd -> W_close (Value.to_int fd)
  | "rs", _ -> W_rsock
  | "rc", _ -> W_rconnect
  | "rt", _ -> W_rsend
  | "rx2", fd -> W_rclose (Value.to_int fd)
  | t, _ -> Value.decode_error "kvstore work %s" t

let to_value s =
  Value.assoc
    [ ("port", Value.int s.port);
      ("shard", Value.int s.shard);
      ("nshards", Value.int s.nshards);
      ("backlog", Value.int s.backlog);
      ("mirror", Value.option Addr.to_value s.mirror_addr);
      ("store", store_to_value s.store);
      ("applied", applied_to_value s.applied);
      ("mstore", store_to_value s.mirror);
      ( "mapplied",
        Value.list (Value.pair Value.int Value.int)
          (List.map fst (tbl_to_sorted_list Fun.id s.mirror_applied)) );
      ( "conns",
        Value.list
          (fun (fd, (c : conn)) ->
            Value.list Fun.id [ Value.int fd; Value.str c.inbuf; Value.str c.outbuf ])
          (tbl_to_sorted_list Fun.id s.conns) );
      ("log_seq", Value.int s.log_seq);
      ("lfd", Value.int s.lfd);
      ("ph", Value.int s.ph);
      ("todo", Value.list work_to_value (s.todo @ List.rev s.todo_rev));
      ("last", Value.option work_to_value s.last);
      ("polling", Value.bool s.polling);
      ("r_fd", Value.int s.r_fd);
      ("r_st", Value.int s.r_st);
      ("r_out", Value.str s.r_out);
      ("r_in", Value.str s.r_in);
      ("r_cool", Value.int s.r_cool);
      ( "ctrs",
        Value.list Value.int
          [ s.accepted; s.served; s.dup_hits; s.redirects; s.repl_sent; s.repl_acked;
            s.repl_applied ] ) ]

let of_value v =
  let conns = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      match Value.to_list Fun.id e with
      | [ fd; ib; ob ] ->
        Hashtbl.replace conns (Value.to_int fd)
          (new_conn ~inbuf:(Value.to_str ib) ~outbuf:(Value.to_str ob))
      | _ -> Value.decode_error "kvstore conn entry")
    (Value.to_list Fun.id (Value.field "conns" v));
  let mirror_applied = Hashtbl.create 1024 in
  List.iter
    (fun ci -> Hashtbl.replace mirror_applied ci ())
    (Value.to_list (Value.to_pair Value.to_int Value.to_int) (Value.field "mapplied" v));
  let ctrs = Value.to_list Value.to_int (Value.field "ctrs" v) in
  let ctr i = List.nth ctrs i in
  {
    port = Value.to_int (Value.field "port" v);
    shard = Value.to_int (Value.field "shard" v);
    nshards = Value.to_int (Value.field "nshards" v);
    backlog = Value.to_int (Value.field "backlog" v);
    mirror_addr = Value.to_option Addr.of_value (Value.field "mirror" v);
    store = store_of_value (Value.field "store" v);
    applied = applied_of_value (Value.field "applied" v);
    mirror = store_of_value (Value.field "mstore" v);
    mirror_applied;
    conns;
    log_seq = Value.to_int (Value.field "log_seq" v);
    lfd = Value.to_int (Value.field "lfd" v);
    ph = Value.to_int (Value.field "ph" v);
    todo = Value.to_list work_of_value (Value.field "todo" v);
    todo_rev = [];
    last = Value.to_option work_of_value (Value.field "last" v);
    polling = Value.to_bool (Value.field "polling" v);
    poll_reqs = None;
    touched = [];
    polled_link = -1;
    r_fd = Value.to_int (Value.field "r_fd" v);
    r_st = Value.to_int (Value.field "r_st" v);
    r_out = Value.to_str (Value.field "r_out" v);
    r_in = Value.to_str (Value.field "r_in" v);
    r_cool = Value.to_int (Value.field "r_cool" v);
    accepted = ctr 0;
    served = ctr 1;
    dup_hits = ctr 2;
    redirects = ctr 3;
    repl_sent = ctr 4;
    repl_acked = ctr 5;
    repl_applied = ctr 6;
  }

(* Canonical digest of the service state — store, applied log, and sequence
   number; connection buffers and counters are deliberately excluded (they
   are transport, not state).  Used by the fidelity assertions: a restored
   pod must digest identically to the suspended one. *)
let digest_of_snapshot v =
  let h = ref 0x811c9dc5 in
  let mix s =
    String.iter
      (fun c ->
        h := !h lxor Char.code c;
        h := !h * 0x01000193 land 0x3FFFFFFFFFFF)
      s
  in
  let buf = Buffer.create 4096 in
  Zapc_codec.Wire.encode_raw buf (Value.field "store" v);
  Zapc_codec.Wire.encode_raw buf (Value.field "applied" v);
  Zapc_codec.Wire.encode_raw buf (Value.field "log_seq" v);
  mix (Buffer.contents buf);
  !h

let register () = Program.register_if_absent (module struct
  type nonrec state = state

  let name = name
  let start = start
  let step = step
  let to_value = to_value
  let of_value = of_value
end)

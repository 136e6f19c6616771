(* Open-loop client population for the key-value service.

   One process drives [n] concurrent TCP connections (typically 1000+), each
   modelling an independent client: it issues requests on a fixed open-loop
   schedule (next_send advances by [period] at issue time, so a blackout is
   followed by a catch-up burst, not a silent gap), arms a per-request
   deadline, and on timeout closes the connection and retries the SAME
   request id after a capped exponential backoff with seeded jitter.  The
   server's idempotent apply makes the retry safe; the client's per-request
   id makes duplicate responses detectable.  This is the client half of the
   exactly-once argument (DESIGN.md §11).

   Connections are never checkpointed in the served-traffic scenarios — the
   population plays the outside world.  After a server crash restore its old
   connections are orphaned server-side and segments to them vanish, so the
   ONLY way a client discovers the crash is its request deadline; that is
   deliberate and mirrors real WAN clients.

   Latency samples (completion time, latency) and all counters live in
   program state and are drained host-side through Program.snapshot; the
   completion count alone is read through Program.inspect. *)

module Value = Zapc_codec.Value
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Socket = Zapc_simnet.Socket
module Sockopt = Zapc_simnet.Sockopt
module Addr = Zapc_simnet.Addr
module Errno = Zapc_simnet.Errno

type conn = {
  ix : int;
  home : int;  (* shard this client normally talks to *)
  mutable fd : int;
  mutable target : int;  (* current shard (follows redirects) *)
  mutable cst : int;  (* 0 closed, 1 connecting, 2 idle, 3 inflight, 4 backoff, 5 done *)
  mutable inbuf : string;
  mutable outbuf : string;
  mutable rq_id : int;
  mutable pending : Kv_wire.req option;  (* request awaiting its response *)
  mutable first_sent : int;  (* ns of the FIRST attempt (latency base) *)
  mutable deadline : int;  (* request OR connect deadline, depending on cst *)
  mutable attempts : int;
  mutable wait_until : int;  (* backoff expiry *)
  mutable next_send : int;  (* open-loop schedule *)
  mutable issued : int;
  mutable done_ : int;
  (* derived, never imaged: [req_key] as of the kept request list, and
     whether the connection is on [touched] *)
  mutable polled : int;
  mutable touched : bool;
}

type work = K_sock of int | K_setnb of int | K_conn of int | K_send of int | K_recv of int | K_close of int

(* The connections' timers, by [ix]: a min-heap of the connections with
   a timer key, the state-0 connections that want a socket, and the
   connections whose key may have moved since the last read.  Plain int
   arrays: the collector never follows them. *)
type timers = {
  heap : int array;
  mutable hlen : int;
  key : int array;  (* the key a connection sits in the heap with *)
  hpos : int array;  (* its place in [heap], -1 when out *)
  zeros : int array;
  mutable zlen : int;
  zpos : int array;  (* its place in [zeros], -1 when out *)
  marked : bool array;  (* on [retime] *)
  mutable retime : int list;
}

type state = {
  n : int;
  nshards : int;
  base : int;  (* client-id base for this pod *)
  targets : Addr.t array;  (* vip per shard *)
  period : int;
  timeout_ns : int;
  base_backoff : int;
  max_backoff : int;
  reqs_per_conn : int;
  keys_by_shard : string array array;
  conns : conn array;
  fd_map : (int, int) Hashtbl.t;  (* fd -> conn index *)
  mutable rng : int;
  mutable now : int;
  mutable started : bool;
  mutable todo : work list;  (* runnable work, oldest first... *)
  mutable todo_rev : work list;  (* ...then these, newest first *)
  mutable last : work option;
  mutable polling : bool;
  mutable poll_reqs : Syscall.poll_req list option;
      (* derived, never imaged: the last poll's request list, kept while
         every connection's [req_key] stays what it was when it was built *)
  mutable touched : conn list;  (* derived: connections set since the last poll *)
  mutable timers : timers option;  (* derived, never imaged: built at the first read *)
  mutable clk_pending : bool;
  mutable to_stamp : int list;  (* first_sent of completions awaiting a clock *)
  mutable samples_t : float list;  (* completion timestamps, ns, newest first *)
  mutable samples_lat : float list;
  mutable completed : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable dups : int;
  mutable redirects : int;
  mutable reconnects : int;
  mutable eofs : int;
}

let name = "kv_client"

let keyspace = 64

let make_keys nshards =
  let by = Array.make (Stdlib.max 1 nshards) [] in
  for k = keyspace - 1 downto 0 do
    let key = Printf.sprintf "k%04d" k in
    let o = Kv_wire.owner ~nshards key in
    by.(o) <- key :: by.(o)
  done;
  Array.map Array.of_list by

(* --- timers ---

   A clock tick acts on a connection whose timer is due (state 2 with a
   request left to issue: [next_send]; 1 or 3: [deadline]; 4:
   [wait_until]) or that sits in state 0 wanting a socket, and a poll
   sleeps until the earliest timer.  Rather than scan every connection
   for both, the timed connections sit in a min-heap on their key and the
   state-0 ones in a set ([timers]).  Both are derived from the imaged
   fields, built at the first read after [start] or [of_value].  A writer
   of a key input marks its connection ([touch] does, and every step that
   writes one also sets the connection's state), and [timers] re-reads
   the marked keys before the heap is read, so a field written after the
   state in the same step still counts. *)

let no_key = max_int

let timer_key s (c : conn) =
  match c.cst with
  | 2 -> if c.issued < s.reqs_per_conn then c.next_send else no_key
  | 1 | 3 -> c.deadline
  | 4 -> c.wait_until
  | _ -> no_key

let wants_sock s (c : conn) = c.cst = 0 && (c.done_ < s.reqs_per_conn || c.pending <> None)

let place (t : timers) i ix =
  t.heap.(i) <- ix;
  t.hpos.(ix) <- i

let rec sift_up t i ix =
  let p = (i - 1) / 2 in
  if i > 0 && t.key.(ix) < t.key.(t.heap.(p)) then begin
    place t i t.heap.(p);
    sift_up t p ix
  end
  else place t i ix

let rec sift_down t i ix =
  let l = (2 * i) + 1 in
  if l >= t.hlen then place t i ix
  else begin
    let m = if l + 1 < t.hlen && t.key.(t.heap.(l + 1)) < t.key.(t.heap.(l)) then l + 1 else l in
    if t.key.(t.heap.(m)) < t.key.(ix) then begin
      place t i t.heap.(m);
      sift_down t m ix
    end
    else place t i ix
  end

let set_key t ix key =
  let i = t.hpos.(ix) in
  if key = no_key then begin
    if i >= 0 then begin
      t.hpos.(ix) <- -1;
      t.hlen <- t.hlen - 1;
      if i < t.hlen then begin
        let last = t.heap.(t.hlen) in
        if t.key.(last) < t.key.(ix) then sift_up t i last else sift_down t i last
      end
    end
  end
  else if i < 0 then begin
    t.key.(ix) <- key;
    t.hlen <- t.hlen + 1;
    sift_up t (t.hlen - 1) ix
  end
  else if key < t.key.(ix) then begin
    t.key.(ix) <- key;
    sift_up t i ix
  end
  else if key > t.key.(ix) then begin
    t.key.(ix) <- key;
    sift_down t i ix
  end

let set_zero t ix want =
  let i = t.zpos.(ix) in
  if want && i < 0 then begin
    t.zeros.(t.zlen) <- ix;
    t.zpos.(ix) <- t.zlen;
    t.zlen <- t.zlen + 1
  end
  else if (not want) && i >= 0 then begin
    t.zlen <- t.zlen - 1;
    let last = t.zeros.(t.zlen) in
    t.zeros.(i) <- last;
    t.zpos.(last) <- i;
    t.zpos.(ix) <- -1
  end

let rekey s t (c : conn) =
  set_key t c.ix (timer_key s c);
  set_zero t c.ix (wants_sock s c)

(* Before the first read there is nothing to mark: building the timers
   keys every connection. *)
let retime s (c : conn) =
  match s.timers with
  | Some t when not t.marked.(c.ix) ->
    t.marked.(c.ix) <- true;
    t.retime <- c.ix :: t.retime
  | Some _ | None -> ()

(* The timers with every marked key re-read. *)
let timers s =
  match s.timers with
  | Some t ->
    List.iter
      (fun ix ->
        t.marked.(ix) <- false;
        rekey s t s.conns.(ix))
      t.retime;
    t.retime <- [];
    t
  | None ->
    let t =
      { heap = Array.make s.n 0; hlen = 0; key = Array.make s.n 0; hpos = Array.make s.n (-1);
        zeros = Array.make s.n 0; zlen = 0; zpos = Array.make s.n (-1);
        marked = Array.make s.n false; retime = [] }
    in
    Array.iter (rekey s t) s.conns;
    s.timers <- Some t;
    t

(* The connections the tick at [s.now] acts on, in [ix] order: the order
   a full scan visits them in, which the jitter draws of [backoff_ns] and
   [next_req] depend on.  A subtree of the heap whose root is not due
   holds nothing due. *)
let due s =
  let t = timers s in
  let acc = ref [] in
  let rec walk i =
    if i < t.hlen && t.key.(t.heap.(i)) <= s.now then begin
      acc := t.heap.(i) :: !acc;
      walk ((2 * i) + 1);
      walk ((2 * i) + 2)
    end
  in
  walk 0;
  for i = 0 to t.zlen - 1 do
    acc := t.zeros.(i) :: !acc
  done;
  List.map (fun ix -> s.conns.(ix)) (List.sort Int.compare !acc)

let start args =
  let n = Value.to_int (Value.field "n" args) in
  let nshards = Value.to_int (Value.field "nshards" args) in
  let targets =
    Array.of_list (Value.to_list Addr.of_value (Value.field "targets" args))
  in
  {
    n;
    nshards;
    base = Value.to_int (Value.field "base" args);
    targets;
    period = Value.to_int (Value.field "period" args);
    timeout_ns = Value.to_int (Value.field "timeout" args);
    base_backoff = Value.to_int (Value.field "base_backoff" args);
    max_backoff = Value.to_int (Value.field "max_backoff" args);
    reqs_per_conn = Value.to_int (Value.field "reqs" args);
    keys_by_shard = make_keys nshards;
    conns =
      Array.init n (fun i ->
          {
            ix = i;
            home = i mod nshards;
            fd = -1;
            target = i mod nshards;
            cst = 0;
            inbuf = "";
            outbuf = "";
            rq_id = 0;
            pending = None;
            first_sent = 0;
            deadline = 0;
            attempts = 0;
            wait_until = 0;
            next_send = -1;
            issued = 0;
            done_ = 0;
            polled = -1;
            touched = false;
          });
    fd_map = Hashtbl.create 2048;
    rng = Value.to_int (Value.field "seed" args);
    now = 0;
    started = false;
    todo = [];
    todo_rev = [];
    last = None;
    polling = false;
    poll_reqs = None;
    touched = [];
    timers = None;
    clk_pending = true;
    to_stamp = [];
    samples_t = [];
    samples_lat = [];
    completed = 0;
    retries = 0;
    timeouts = 0;
    dups = 0;
    redirects = 0;
    reconnects = 0;
    eofs = 0;
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

let rand s bound =
  s.rng <- ((s.rng * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  if bound <= 0 then 0 else (s.rng lsr 16) mod bound

let jitter s span = if span <= 0 then 0 else rand s span

(* capped exponential backoff with seeded jitter *)
let backoff_ns s attempts =
  let raw = s.base_backoff * (1 lsl Stdlib.min attempts 16) in
  let capped = Stdlib.min raw s.max_backoff in
  capped + jitter s (capped / 2)

let next_req s (c : conn) : Kv_wire.req =
  c.rq_id <- c.rq_id + 1;
  let shard =
    (* mostly the home shard; occasionally deliberately wrong, to exercise
       the redirect path end to end *)
    if s.nshards > 1 && rand s 16 = 0 then (c.home + 1) mod s.nshards else c.target
  in
  let pool = s.keys_by_shard.(shard) in
  let key = pool.(rand s (Array.length pool)) in
  let op =
    match rand s 10 with
    | 0 -> Kv_wire.Del key
    | 1 | 2 -> Kv_wire.Get key
    | _ -> Kv_wire.Set (key, Printf.sprintf "v%d.%d" (s.base + c.ix) c.rq_id)
  in
  { Kv_wire.rq_client = s.base + c.ix; rq_id = c.rq_id; rq_op = op }

(* What a connection contributes to a poll: no request without an fd,
   else its fd and whether it wants to write. *)
let req_key (c : conn) =
  if c.fd < 0 then -1 else (2 * c.fd) + if c.cst = 1 || c.outbuf <> "" then 1 else 0

(* The writers of [req_key]'s inputs: each puts the connection on
   [touched], the only ones the next poll compares, and marks its timer
   key for a re-read. *)
let touch s (c : conn) =
  retime s c;
  if not c.touched then begin
    c.touched <- true;
    s.touched <- c :: s.touched
  end

let set_fd s (c : conn) fd =
  touch s c;
  c.fd <- fd

let set_cst s (c : conn) cst =
  touch s c;
  c.cst <- cst

let set_outbuf s (c : conn) b =
  touch s c;
  c.outbuf <- b

let close_fd s (c : conn) =
  if c.fd >= 0 then begin
    Hashtbl.remove s.fd_map c.fd;
    push s (K_close c.fd);
    set_fd s c (-1)
  end;
  c.inbuf <- "";
  set_outbuf s c ""

(* the request (if any) will be retried after a backoff *)
let fail_conn s (c : conn) =
  close_fd s c;
  c.attempts <- c.attempts + 1;
  c.wait_until <- s.now + backoff_ns s c.attempts;
  set_cst s c 4

let on_connected s (c : conn) =
  s.reconnects <- s.reconnects + 1;
  match c.pending with
  | Some r ->
    (* resend the in-flight request (same id: the server dedups) *)
    if c.attempts > 0 then s.retries <- s.retries + 1;
    set_outbuf s c (Kv_wire.frame (Kv_wire.Req r));
    c.deadline <- s.now + s.timeout_ns;
    set_cst s c 3;
    push s (K_send c.ix)
  | None -> set_cst s c 2

let complete s (c : conn) =
  c.pending <- None;
  c.attempts <- 0;
  c.done_ <- c.done_ + 1;
  s.completed <- s.completed + 1;
  s.to_stamp <- c.first_sent :: s.to_stamp;
  set_cst s c (if c.done_ >= s.reqs_per_conn then 5 else 2)

let handle_resp s (c : conn) (r : Kv_wire.resp) =
  match c.pending with
  | Some p when r.rs_id = p.rq_id && r.rs_client = p.rq_client -> (
    match r.rs_status with
    | Kv_wire.S_redirect o ->
      (* wrong shard: chase the owner with the same request id *)
      s.redirects <- s.redirects + 1;
      c.target <- o;
      close_fd s c;
      set_cst s c 0
    | Kv_wire.S_ok | Kv_wire.S_not_found -> complete s c)
  | Some _ | None ->
    (* stale or repeated response for an id already completed *)
    s.dups <- s.dups + 1

let handle_recv s (c : conn) (outcome : Syscall.outcome) =
  match outcome with
  | Syscall.Ret (Syscall.Rdata "") ->
    s.eofs <- s.eofs + 1;
    if c.pending <> None then fail_conn s c
    else begin
      close_fd s c;
      set_cst s c (if c.done_ >= s.reqs_per_conn then 5 else 0)
    end
  | Syscall.Ret (Syscall.Rdata d) ->
    let msgs, rest = Kv_wire.split (c.inbuf ^ d) in
    c.inbuf <- rest;
    List.iter
      (function Kv_wire.Resp r -> handle_resp s c r | _ -> ())
      msgs;
    if c.fd >= 0 then push s (K_recv c.ix)
  | Syscall.Err Errno.EAGAIN -> ()
  | _ -> if c.pending <> None then fail_conn s c else (close_fd s c; set_cst s c 0)

let apply_result s (w : work) (outcome : Syscall.outcome) =
  match w with
  | K_sock i -> (
    let c = s.conns.(i) in
    match outcome with
    | Syscall.Ret (Syscall.Rint fd) ->
      set_fd s c fd;
      Hashtbl.replace s.fd_map fd i;
      set_cst s c 1;
      (* a SYN sent into a crashed node vanishes without an error: the
         handshake needs its own deadline, not just the request *)
      c.deadline <- s.now + s.timeout_ns;
      push s (K_setnb i);
      push s (K_conn i)
    | _ -> fail_conn s c)
  | K_setnb _ -> ()
  | K_conn i -> (
    let c = s.conns.(i) in
    match outcome with
    | Syscall.Ret _ -> on_connected s c
    | Syscall.Err Errno.EAGAIN -> ()  (* handshake in flight; poll writable *)
    | Syscall.Err _ -> fail_conn s c
    | Syscall.Started | Syscall.Done_compute -> ())
  | K_recv i -> handle_recv s s.conns.(i) outcome
  | K_send i -> (
    let c = s.conns.(i) in
    match outcome with
    | Syscall.Ret (Syscall.Rint nb) ->
      set_outbuf s c (String.sub c.outbuf nb (String.length c.outbuf - nb));
      if c.outbuf <> "" then push s (K_send i)
    | Syscall.Err Errno.EAGAIN -> ()
    | Syscall.Err _ -> if c.pending <> None then fail_conn s c else (close_fd s c; set_cst s c 0)
    | _ -> ())
  | K_close _ -> ()

let syscall_of s (w : work) : Syscall.t option =
  match w with
  | K_sock _ -> Some (Syscall.Sock_create Socket.Stream)
  | K_setnb i ->
    let c = s.conns.(i) in
    if c.fd >= 0 then Some (Syscall.Setsockopt (c.fd, Sockopt.SO_NONBLOCK, 1)) else None
  | K_conn i ->
    let c = s.conns.(i) in
    if c.fd >= 0 && c.cst = 1 then Some (Syscall.Connect (c.fd, s.targets.(c.target)))
    else None
  | K_send i ->
    let c = s.conns.(i) in
    if c.fd >= 0 && c.outbuf <> "" then Some (Syscall.Send (c.fd, c.outbuf)) else None
  | K_recv i ->
    let c = s.conns.(i) in
    if c.fd >= 0 then Some (Syscall.Recv (c.fd, 65536, Socket.plain_recv)) else None
  | K_close fd -> Some (Syscall.Close fd)

(* The first tick staggers the open-loop schedules across one period.
   Every connection is still in state 0 then, whose timer does not read
   [next_send], and the timers are built only after it, at this tick's
   [due]; the writes mark their connections all the same. *)
let stagger s =
  if not s.started then begin
    s.started <- true;
    Array.iter
      (fun (c : conn) ->
        c.next_send <- s.now + (c.ix * s.period / Stdlib.max 1 s.n) + jitter s (s.period / 8);
        retime s c)
      s.conns
  end

(* Stamp completions, then fire every due timer.  Runs on each clock tick. *)
let run_timers s =
  List.iter
    (fun fs ->
      s.samples_t <- float_of_int s.now :: s.samples_t;
      s.samples_lat <- float_of_int (s.now - fs) :: s.samples_lat)
    (List.rev s.to_stamp);
  s.to_stamp <- [];
  stagger s;
  List.iter
    (fun (c : conn) ->
      match c.cst with
      | 0 -> if c.done_ < s.reqs_per_conn || c.pending <> None then push s (K_sock c.ix)
      | 4 -> if s.now >= c.wait_until then begin set_cst s c 0; push s (K_sock c.ix) end
      | 2 ->
        if c.issued < s.reqs_per_conn && s.now >= c.next_send then begin
          let r = next_req s c in
          c.pending <- Some r;
          c.issued <- c.issued + 1;
          c.first_sent <- s.now;
          c.deadline <- s.now + s.timeout_ns;
          c.next_send <- c.next_send + s.period;
          set_outbuf s c (c.outbuf ^ Kv_wire.frame (Kv_wire.Req r));
          set_cst s c 3;
          push s (K_send c.ix)
        end
      | 1 | 3 ->
        if s.now >= c.deadline then begin
          if c.pending <> None then s.timeouts <- s.timeouts + 1;
          fail_conn s c
        end
      | _ -> ())
    (due s)

let poll_timeout s =
  let t = timers s in
  if t.hlen = 0 then None else Some (Stdlib.max 1 (t.key.(t.heap.(0)) - s.now))

(* One request per open connection, the last connection first. *)
let build_poll_reqs s =
  Array.fold_left
    (fun acc (c : conn) ->
      if c.fd >= 0 then
        { Syscall.pfd = c.fd; want_read = true; want_write = c.cst = 1 || c.outbuf <> "" } :: acc
      else acc)
    [] s.conns

(* The list to poll: the kernel keys its poll set on the very list, so the
   last one is kept while no touched connection's [req_key] moved, which
   makes it equal to a fresh build. *)
let poll_reqs s =
  let unchanged =
    List.fold_left
      (fun same (c : conn) ->
        c.touched <- false;
        same && req_key c = c.polled)
      true s.touched
  in
  s.touched <- [];
  match s.poll_reqs with
  | Some reqs when unchanged -> reqs
  | Some _ | None ->
    let reqs = build_poll_reqs s in
    Array.iter (fun (c : conn) -> c.polled <- req_key c) s.conns;
    s.poll_reqs <- Some reqs;
    reqs

let rec next_action s =
  match pop s with
  | Some w ->
    (match syscall_of s w with
     | Some sc ->
       s.last <- Some w;
       Program.Sys sc
     | None -> next_action s)
  | None ->
    if s.clk_pending then begin
      s.last <- None;
      Program.Sys Syscall.Clock_gettime
    end
    else begin
      s.last <- None;
      s.polling <- true;
      s.clk_pending <- true;  (* every poll wake is followed by a clock tick *)
      Program.Sys (Syscall.Poll (poll_reqs s, poll_timeout s))
    end

let on_poll s evs =
  List.iter
    (fun (fd, (ev : Socket.poll_events)) ->
      match Hashtbl.find_opt s.fd_map fd with
      | None -> ()
      | Some i ->
        let c = s.conns.(i) in
        if c.cst = 1 then begin
          if ev.writable || ev.pollerr || ev.hangup then push s (K_conn i)
        end
        else begin
          if ev.readable || ev.hangup || ev.pollerr then push s (K_recv i);
          if ev.writable && c.outbuf <> "" then push s (K_send i)
        end)
    evs

let step s (outcome : Syscall.outcome) =
  if s.polling then begin
    s.polling <- false;
    match outcome with Syscall.Ret (Syscall.Rpoll evs) -> on_poll s evs | _ -> ()
  end
  else begin
    match s.last with
    | Some w -> apply_result s w outcome
    | None -> (
      match outcome with
      | Syscall.Ret (Syscall.Rtime t) ->
        s.now <- t;
        s.clk_pending <- false;
        run_timers s
      | _ -> ())
  end;
  (s, next_action s)

(* --- persistence --- *)

let conn_to_value (c : conn) =
  Value.list Fun.id
    [ Value.int c.fd; Value.int c.target; Value.int c.cst; Value.str c.inbuf;
      Value.str c.outbuf; Value.int c.rq_id;
      Value.option Kv_wire.req_to_value c.pending;
      Value.int c.first_sent; Value.int c.deadline; Value.int c.attempts;
      Value.int c.wait_until; Value.int c.next_send; Value.int c.issued;
      Value.int c.done_ ]

let conn_of_value ~nshards ix v =
  match Value.to_list Fun.id v with
  | [ fd; target; cst; inbuf; outbuf; rq_id; pending; first_sent; deadline; attempts;
      wait_until; next_send; issued; done_ ] ->
    {
      ix;
      home = ix mod nshards;
      fd = Value.to_int fd;
      target = Value.to_int target;
      cst = Value.to_int cst;
      inbuf = Value.to_str inbuf;
      outbuf = Value.to_str outbuf;
      rq_id = Value.to_int rq_id;
      pending = Value.to_option Kv_wire.req_of_value pending;
      first_sent = Value.to_int first_sent;
      deadline = Value.to_int deadline;
      attempts = Value.to_int attempts;
      wait_until = Value.to_int wait_until;
      next_send = Value.to_int next_send;
      issued = Value.to_int issued;
      done_ = Value.to_int done_;
      polled = -1;
      touched = false;
    }
  | _ -> Value.decode_error "kv_client conn"

let work_to_value = function
  | K_sock i -> Value.tag "so" (Value.int i)
  | K_setnb i -> Value.tag "nb" (Value.int i)
  | K_conn i -> Value.tag "co" (Value.int i)
  | K_send i -> Value.tag "tx" (Value.int i)
  | K_recv i -> Value.tag "rx" (Value.int i)
  | K_close fd -> Value.tag "cl" (Value.int fd)

let work_of_value v =
  match Value.to_tag v with
  | "so", i -> K_sock (Value.to_int i)
  | "nb", i -> K_setnb (Value.to_int i)
  | "co", i -> K_conn (Value.to_int i)
  | "tx", i -> K_send (Value.to_int i)
  | "rx", i -> K_recv (Value.to_int i)
  | "cl", fd -> K_close (Value.to_int fd)
  | t, _ -> Value.decode_error "kv_client work %s" t

let to_value s =
  Value.assoc
    [ ("n", Value.int s.n);
      ("nshards", Value.int s.nshards);
      ("base", Value.int s.base);
      ("targets", Value.list Addr.to_value (Array.to_list s.targets));
      ("period", Value.int s.period);
      ("timeout", Value.int s.timeout_ns);
      ("base_backoff", Value.int s.base_backoff);
      ("max_backoff", Value.int s.max_backoff);
      ("reqs", Value.int s.reqs_per_conn);
      ("conns", Value.list conn_to_value (Array.to_list s.conns));
      ("rng", Value.int s.rng);
      ("now", Value.int s.now);
      ("started", Value.bool s.started);
      ("todo", Value.list work_to_value (s.todo @ List.rev s.todo_rev));
      ("last", Value.option work_to_value s.last);
      ("polling", Value.bool s.polling);
      ("clk_pending", Value.bool s.clk_pending);
      ("to_stamp", Value.list Value.int s.to_stamp);
      ("samples_t", Value.f64s (Array.of_list (List.rev s.samples_t)));
      ("samples_lat", Value.f64s (Array.of_list (List.rev s.samples_lat)));
      ( "ctrs",
        Value.list Value.int
          [ s.completed; s.retries; s.timeouts; s.dups; s.redirects; s.reconnects; s.eofs ] ) ]

let of_value v =
  let nshards = Value.to_int (Value.field "nshards" v) in
  let conns =
    Array.of_list
      (List.mapi (conn_of_value ~nshards) (Value.to_list Fun.id (Value.field "conns" v)))
  in
  let fd_map = Hashtbl.create 2048 in
  Array.iteri (fun i (c : conn) -> if c.fd >= 0 then Hashtbl.replace fd_map c.fd i) conns;
  let ctrs = Value.to_list Value.to_int (Value.field "ctrs" v) in
  let ctr i = List.nth ctrs i in
  {
    n = Value.to_int (Value.field "n" v);
    nshards;
    base = Value.to_int (Value.field "base" v);
    targets = Array.of_list (Value.to_list Addr.of_value (Value.field "targets" v));
    period = Value.to_int (Value.field "period" v);
    timeout_ns = Value.to_int (Value.field "timeout" v);
    base_backoff = Value.to_int (Value.field "base_backoff" v);
    max_backoff = Value.to_int (Value.field "max_backoff" v);
    reqs_per_conn = Value.to_int (Value.field "reqs" v);
    keys_by_shard = make_keys nshards;
    conns;
    fd_map;
    rng = Value.to_int (Value.field "rng" v);
    now = Value.to_int (Value.field "now" v);
    started = Value.to_bool (Value.field "started" v);
    todo = Value.to_list work_of_value (Value.field "todo" v);
    todo_rev = [];
    last = Value.to_option work_of_value (Value.field "last" v);
    polling = Value.to_bool (Value.field "polling" v);
    poll_reqs = None;
    touched = [];
    timers = None;
    clk_pending = Value.to_bool (Value.field "clk_pending" v);
    to_stamp = Value.to_list Value.to_int (Value.field "to_stamp" v);
    samples_t = List.rev (Array.to_list (Value.to_f64s (Value.field "samples_t" v)));
    samples_lat = List.rev (Array.to_list (Value.to_f64s (Value.field "samples_lat" v)));
    completed = ctr 0;
    retries = ctr 1;
    timeouts = ctr 2;
    dups = ctr 3;
    redirects = ctr 4;
    reconnects = ctr 5;
    eofs = ctr 6;
  }

(* --- host-side snapshot decoding (stats drain) --- *)

type stats = {
  st_issued : int;
  st_completed : int;
  st_retries : int;
  st_timeouts : int;
  st_dups : int;
  st_redirects : int;
  st_reconnects : int;
  st_eofs : int;
  st_inflight : int;
  st_samples : (float * float) array;  (* (completion ns, latency ns) *)
}

let stats_of_snapshot v =
  let ctrs = Value.to_list Value.to_int (Value.field "ctrs" v) in
  let ctr i = List.nth ctrs i in
  let conns = Value.to_list Fun.id (Value.field "conns" v) in
  let issued = ref 0 and inflight = ref 0 in
  List.iter
    (fun cv ->
      match Value.to_list Fun.id cv with
      | [ _fd; _tg; _cst; _ib; _ob; _id; pending; _fs; _dl; _at; _wu; _ns; iss; _dn ] ->
        issued := !issued + Value.to_int iss;
        if Value.to_option Fun.id pending <> None then incr inflight
      | _ -> Value.decode_error "kv_client conn snapshot")
    conns;
  let issued = !issued and inflight = !inflight in
  let t = Value.to_f64s (Value.field "samples_t" v) in
  let lat = Value.to_f64s (Value.field "samples_lat" v) in
  {
    st_issued = issued;
    st_completed = ctr 0;
    st_retries = ctr 1;
    st_timeouts = ctr 2;
    st_dups = ctr 3;
    st_redirects = ctr 4;
    st_reconnects = ctr 5;
    st_eofs = ctr 6;
    st_inflight = inflight;
    st_samples = Array.init (Array.length t) (fun i -> (t.(i), lat.(i)));
  }

(* The state's type id: [Program.inspect] with it reads a live client's
   counters without encoding the whole state. *)
let id : state Type.Id.t = Type.Id.make ()

let register () = Program.register_if_absent ~id (module struct
  type nonrec state = state

  let name = name
  let start = start
  let step = step
  let to_value = to_value
  let of_value = of_value
end)

(* End-to-end tests of the coordinated checkpoint-restart protocol:
   snapshots of running distributed applications, restarts on the same and
   on different nodes, direct migration streaming, ring topologies
   (deadlock-free connection recovery), UDP semantics across checkpoints,
   failure handling, and the protocol's timing structure. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Socket = Zapc_simnet.Socket
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Pod = Zapc_pod.Pod
module Namespace = Zapc_pod.Namespace
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Protocol = Zapc.Protocol
module Params = Zapc.Params
module Launch = Zapc_msg.Launch
module Span = Zapc_obs.Span
module Mpi = Zapc_msg.Mpi

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let logged : string list ref = ref []

let make_cluster ?(params = Params.default) ?(nodes = 4) ?(cpus = 1) ?(seed = 42) () =
  Zapc_apps.Registry.register_all ();
  let cluster = Cluster.make ~seed ~cpus ~params ~node_count:nodes () in
  logged := [];
  for i = 0 to nodes - 1 do
    Kernel.set_logger (Cluster.node cluster i).Cluster.n_kernel (fun _ _ m ->
        logged := m :: !logged)
  done;
  cluster

let has_log prefix =
  List.exists
    (fun s -> String.length s >= String.length prefix
              && String.equal (String.sub s 0 (String.length prefix)) prefix)
    !logged

let find_log prefix =
  List.find_opt
    (fun s -> String.length s >= String.length prefix
              && String.equal (String.sub s 0 (String.length prefix)) prefix)
    !logged

(* --- dedicated test programs --- *)

(* Token ring over a CYCLE of TCP connections (each endpoint both connects
   and accepts), the topology the paper uses to motivate the two-task
   connection recovery.  Written against the raw syscall interface. *)
module Ring = struct
  type phase =
    | Listen_sock | Listen_bind | Listen_listen
    | Conn_new | Conn_wait | Conn_close | Conn_sleep
    | Accept_prev
    | Start_token
    | Recv_tok | Fwd_tok of int
    | Done_ring

  type state = {
    rank : int;
    size : int;
    vips : int array;
    port : int;
    limit : int;
    mutable ph : phase;
    mutable lfd : int;
    mutable sendfd : int;  (* to (rank+1) mod size *)
    mutable recvfd : int;  (* from (rank-1+size) mod size *)
    mutable buf : string;
  }

  let name = "test.ring"

  let start args =
    let rank = Value.to_int (Value.field "rank" args) in
    let size = Value.to_int (Value.field "size" args) in
    let vips = Array.of_list (Value.to_list Value.to_int (Value.field "vips" args)) in
    let port = Value.to_int (Value.field "port" args) in
    let limit = Value.to_int (Value.field "limit" args) in
    { rank; size; vips; port; limit; ph = Listen_sock; lfd = -1; sendfd = -1;
      recvfd = -1; buf = "" }

  let u32 n =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int n);
    Bytes.unsafe_to_string b

  let step s (outcome : Syscall.outcome) =
    let next = s.vips.((s.rank + 1) mod s.size) in
    match (s.ph, outcome) with
    | Listen_sock, _ ->
      s.ph <- Listen_bind;
      (s, Program.Sys (Syscall.Sock_create Socket.Stream))
    | Listen_bind, Syscall.Ret (Syscall.Rint fd) ->
      s.lfd <- fd;
      s.ph <- Listen_listen;
      (s, Program.Sys (Syscall.Bind (fd, { Addr.ip = Addr.any; port = s.port })))
    | Listen_listen, _ ->
      s.ph <- Conn_new;
      (s, Program.Sys (Syscall.Listen (s.lfd, 4)))
    | Conn_new, _ ->
      s.ph <- Conn_wait;
      (s, Program.Sys (Syscall.Sock_create Socket.Stream))
    | Conn_wait, Syscall.Ret (Syscall.Rint fd) ->
      s.sendfd <- fd;
      (s, Program.Sys (Syscall.Connect (fd, { Addr.ip = next; port = s.port })))
    | Conn_wait, Syscall.Ret Syscall.Rnone ->
      s.ph <- Accept_prev;
      (s, Program.Sys (Syscall.Accept s.lfd))
    | Conn_wait, Syscall.Err _ ->
      s.ph <- Conn_close;
      (s, Program.Sys (Syscall.Close s.sendfd))
    | Conn_close, _ ->
      s.ph <- Conn_sleep;
      (s, Program.Sys (Syscall.Nanosleep (Simtime.ms 15)))
    | Conn_sleep, _ ->
      s.ph <- Conn_new;
      (s, Program.Sys Syscall.Getpid)
    | Accept_prev, Syscall.Ret (Syscall.Raccept (fd, _)) ->
      s.recvfd <- fd;
      if s.rank = 0 then begin
        s.ph <- Start_token;
        (s, Program.Sys Syscall.Getpid)
      end
      else begin
        s.ph <- Recv_tok;
        (s, Program.Sys (Syscall.Recv (s.recvfd, 4, Socket.plain_recv)))
      end
    | Start_token, _ ->
      s.ph <- Recv_tok;
      (* fire the first token, then wait for it to come around *)
      (s, Program.Sys (Syscall.Send (s.sendfd, u32 1)))
    | Recv_tok, Syscall.Ret (Syscall.Rint _) ->
      (s, Program.Sys (Syscall.Recv (s.recvfd, 4, Socket.plain_recv)))
    | Recv_tok, Syscall.Ret (Syscall.Rdata "") ->
      (* predecessor closed before the final token reached us *)
      (s, Program.Exit 3)
    | Recv_tok, Syscall.Ret (Syscall.Rdata d) ->
      s.buf <- s.buf ^ d;
      if String.length s.buf >= 4 then begin
        let v = Int32.to_int (String.get_int32_le s.buf 0) in
        s.buf <- String.sub s.buf 4 (String.length s.buf - 4);
        if v >= s.limit + s.size - 1 then begin
          s.ph <- Done_ring;
          (s, Program.Sys (Syscall.Log (Printf.sprintf "ring done v=%d rank=%d" v s.rank)))
        end
        else begin
          (* forward; the Fwd_tok continuation finishes us once the token
             has passed the limit (each rank forwards the final token once,
             so every rank terminates) *)
          s.ph <- Fwd_tok (v + 1);
          (s, Program.Sys (Syscall.Send (s.sendfd, u32 (v + 1))))
        end
      end
      else (s, Program.Sys (Syscall.Recv (s.recvfd, 4, Socket.plain_recv)))
    | Fwd_tok v, _ ->
      if v >= s.limit then begin
        s.ph <- Done_ring;
        (s, Program.Sys (Syscall.Log (Printf.sprintf "ring done v=%d rank=%d" v s.rank)))
      end
      else begin
        s.ph <- Recv_tok;
        (s, Program.Sys (Syscall.Recv (s.recvfd, 4, Socket.plain_recv)))
      end
    | Done_ring, _ -> (s, Program.Exit 0)
    | _, Syscall.Err _ -> (s, Program.Exit 1)
    | _, _ -> (s, Program.Exit 2)

  let phase_to_int = function
    | Listen_sock -> 0 | Listen_bind -> 1 | Listen_listen -> 2 | Conn_new -> 3
    | Conn_wait -> 4 | Conn_close -> 5 | Conn_sleep -> 6 | Accept_prev -> 7
    | Start_token -> 8 | Recv_tok -> 9 | Fwd_tok _ -> 10 | Done_ring -> 11

  let phase_arg = function Fwd_tok v -> v | _ -> 0

  let int_to_phase i arg =
    match i with
    | 0 -> Listen_sock | 1 -> Listen_bind | 2 -> Listen_listen | 3 -> Conn_new
    | 4 -> Conn_wait | 5 -> Conn_close | 6 -> Conn_sleep | 7 -> Accept_prev
    | 8 -> Start_token | 9 -> Recv_tok | 10 -> Fwd_tok arg | _ -> Done_ring

  let to_value s =
    Value.assoc
      [ ("rank", Value.int s.rank); ("size", Value.int s.size);
        ("vips", Value.list Value.int (Array.to_list s.vips));
        ("port", Value.int s.port); ("limit", Value.int s.limit);
        ("ph", Value.int (phase_to_int s.ph)); ("ph_arg", Value.int (phase_arg s.ph));
        ("lfd", Value.int s.lfd); ("sendfd", Value.int s.sendfd);
        ("recvfd", Value.int s.recvfd); ("buf", Value.str s.buf) ]

  let of_value v =
    {
      rank = Value.to_int (Value.field "rank" v);
      size = Value.to_int (Value.field "size" v);
      vips = Array.of_list (Value.to_list Value.to_int (Value.field "vips" v));
      port = Value.to_int (Value.field "port" v);
      limit = Value.to_int (Value.field "limit" v);
      ph = int_to_phase (Value.to_int (Value.field "ph" v)) (Value.to_int (Value.field "ph_arg" v));
      lfd = Value.to_int (Value.field "lfd" v);
      sendfd = Value.to_int (Value.field "sendfd" v);
      recvfd = Value.to_int (Value.field "recvfd" v);
      buf = Value.to_str (Value.field "buf" v);
    }
end

(* UDP chatter: both peers send [count] sequence-numbered datagrams and
   collect whatever arrives; exits after an idle timeout.  Used to check
   the paper's UDP semantics across checkpoints: queued datagrams are
   preserved, in-flight ones may be lost, nothing is ever duplicated. *)
module Udp_chat = struct
  type phase = Mk_sock | Bind_sock | Loop | Closing

  type state = {
    rank : int;
    vips : int array;
    port : int;
    count : int;
    mutable ph : phase;
    mutable fd : int;
    mutable sent : int;
    mutable got : int list;  (* received sequence numbers, newest first *)
    mutable idle : int;
  }

  let name = "test.udp_chat"

  let start args =
    let rank = Value.to_int (Value.field "rank" args) in
    let vips = Array.of_list (Value.to_list Value.to_int (Value.field "vips" args)) in
    let port = Value.to_int (Value.field "port" args) in
    let count = Value.to_int (Value.field "count" args) in
    { rank; vips; port; count; ph = Mk_sock; fd = -1; sent = 0; got = []; idle = 0 }

  let u32 n =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int n);
    Bytes.unsafe_to_string b

  let peer s = s.vips.(1 - s.rank)

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | Mk_sock, _ ->
      s.ph <- Bind_sock;
      (s, Program.Sys (Syscall.Sock_create Socket.Dgram))
    | Bind_sock, Syscall.Ret (Syscall.Rint fd) ->
      s.fd <- fd;
      s.ph <- Loop;
      (s, Program.Sys (Syscall.Bind (fd, { Addr.ip = Addr.any; port = s.port })))
    | Loop, _ ->
      (* alternate: send next datagram (if any), then poll-receive *)
      (match outcome with
       | Syscall.Ret (Syscall.Rfrom (_, d)) when String.length d = 4 ->
         s.got <- Int32.to_int (String.get_int32_le d 0) :: s.got;
         s.idle <- 0
       | Syscall.Err Zapc_simnet.Errno.EAGAIN -> s.idle <- s.idle + 1
       | _ -> ());
      if s.sent < s.count then begin
        s.sent <- s.sent + 1;
        ( s,
          Program.Sys
            (Syscall.Sendto (s.fd, { Addr.ip = peer s; port = s.port }, u32 s.sent)) )
      end
      else if s.idle > 200 then begin
        s.ph <- Closing;
        ( s,
          Program.Sys
            (Syscall.Log
               (Printf.sprintf "udp rank=%d got=%d dup=%b" s.rank (List.length s.got)
                  (List.length s.got <> List.length (List.sort_uniq Int.compare s.got)))) )
      end
      else begin
        (* wait a bit for more datagrams *)
        s.idle <- s.idle + 1;
        ( s,
          Program.Sys
            (Syscall.Recvfrom (s.fd, 100, { Socket.peek = false; oob = false; dontwait = true })) )
      end
    | Closing, _ -> (s, Program.Exit 0)
    | Bind_sock, _ -> (s, Program.Exit 1)

  let ph_to_int = function Mk_sock -> 0 | Bind_sock -> 1 | Loop -> 2 | Closing -> 3
  let int_to_ph = function 0 -> Mk_sock | 1 -> Bind_sock | 2 -> Loop | _ -> Closing

  let to_value s =
    Value.assoc
      [ ("rank", Value.int s.rank);
        ("vips", Value.list Value.int (Array.to_list s.vips));
        ("port", Value.int s.port); ("count", Value.int s.count);
        ("ph", Value.int (ph_to_int s.ph)); ("fd", Value.int s.fd);
        ("sent", Value.int s.sent); ("got", Value.list Value.int s.got);
        ("idle", Value.int s.idle) ]

  let of_value v =
    {
      rank = Value.to_int (Value.field "rank" v);
      vips = Array.of_list (Value.to_list Value.to_int (Value.field "vips" v));
      port = Value.to_int (Value.field "port" v);
      count = Value.to_int (Value.field "count" v);
      ph = int_to_ph (Value.to_int (Value.field "ph" v));
      fd = Value.to_int (Value.field "fd" v);
      sent = Value.to_int (Value.field "sent" v);
      got = Value.to_list Value.to_int (Value.field "got" v);
      idle = Value.to_int (Value.field "idle" v);
    }
end

(* Sets an application-level alarm (the paper's timeout mechanism), sleeps
   through a checkpoint/restart, then reports how much alarm remains and what
   the virtual clock says — time virtualization must keep both continuous. *)
module Alarm_prog = struct
  type state = int

  let name = "test.alarm"
  let start _ = 0

  let step phase (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> (1, Program.Sys (Syscall.Alarm_set (Simtime.ms 500)))
    | 1, _ -> (2, Program.Sys (Syscall.Nanosleep (Simtime.ms 200)))
    | 2, _ -> (3, Program.Sys Syscall.Alarm_remaining)
    | 3, Syscall.Ret (Syscall.Rtime rem) ->
      (4, Program.Sys (Syscall.Log (Printf.sprintf "alarm_rem=%d" rem)))
    | 4, _ -> (5, Program.Sys Syscall.Clock_gettime)
    | 5, Syscall.Ret (Syscall.Rtime t) ->
      (6, Program.Sys (Syscall.Log (Printf.sprintf "clock=%d" t)))
    | _, _ -> (6, Program.Exit 0)

  let to_value p = Value.Int p
  let of_value = Value.to_int
end

(* Stop-and-wait ping over the kernel-bypass (Myrinet/GM-style) device:
   unreliable transport, so lost messages (e.g. in flight during a
   checkpoint) are retried after a poll timeout — the usual discipline of
   libraries built on GM. *)
module Gm_ping = struct
  type phase = Open | Sending of int | Waiting of int | Reading of int | Done_gm

  type state = {
    peer : int;  (* pong's vip *)
    count : int;
    mutable ph : phase;
    mutable fd : int;
  }

  let name = "test.gm_ping"

  let start args =
    { peer = Value.to_int (Value.field "peer" args);
      count = Value.to_int (Value.field "count" args); ph = Open; fd = -1 }

  let u32 n =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int n);
    Bytes.unsafe_to_string b

  let send_action s n =
    Program.Sys (Syscall.Gm_send (s.fd, { Addr.ip = s.peer; port = 7 }, u32 n))

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | Open, Syscall.Ret (Syscall.Rint fd) ->
      s.fd <- fd;
      s.ph <- Sending 1;
      (s, send_action s 1)
    | Open, _ -> (s, Program.Sys (Syscall.Gm_open { Addr.ip = Addr.any; port = 0 }))
    | Sending n, _ ->
      s.ph <- Waiting n;
      ( s,
        Program.Sys
          (Syscall.Poll
             ( [ { Syscall.pfd = s.fd; want_read = true; want_write = false } ],
               Some (Simtime.ms 50) )) )
    | Waiting n, Syscall.Ret (Syscall.Rpoll []) ->
      (* echo lost (unreliable transport): retry *)
      s.ph <- Sending n;
      (s, send_action s n)
    | Waiting n, Syscall.Ret (Syscall.Rpoll _) ->
      s.ph <- Reading n;
      (s, Program.Sys (Syscall.Gm_recv s.fd))
    | Reading n, Syscall.Ret (Syscall.Rfrom (_, d)) ->
      let v = Int32.to_int (String.get_int32_le d 0) in
      if v < n then begin
        (* stale duplicate echo: keep going *)
        s.ph <- Sending n;
        (s, send_action s n)
      end
      else if n >= s.count then begin
        s.ph <- Done_gm;
        (s, Program.Sys (Syscall.Log (Printf.sprintf "gm done n=%d" n)))
      end
      else begin
        s.ph <- Sending (n + 1);
        (s, send_action s (n + 1))
      end
    | Done_gm, _ -> (s, Program.Exit 0)
    | _, Syscall.Err _ -> (s, Program.Exit 1)
    | _, _ -> (s, Program.Exit 2)

  let ph_to_value = function
    | Open -> Value.List [ Value.Int 0; Value.Int 0 ]
    | Sending n -> Value.List [ Value.Int 1; Value.Int n ]
    | Waiting n -> Value.List [ Value.Int 2; Value.Int n ]
    | Reading n -> Value.List [ Value.Int 3; Value.Int n ]
    | Done_gm -> Value.List [ Value.Int 4; Value.Int 0 ]

  let ph_of_value v =
    match v with
    | Value.List [ Value.Int 0; _ ] -> Open
    | Value.List [ Value.Int 1; Value.Int n ] -> Sending n
    | Value.List [ Value.Int 2; Value.Int n ] -> Waiting n
    | Value.List [ Value.Int 3; Value.Int n ] -> Reading n
    | _ -> Done_gm

  let to_value s =
    Value.assoc
      [ ("peer", Value.int s.peer); ("count", Value.int s.count);
        ("ph", ph_to_value s.ph); ("fd", Value.int s.fd) ]

  let of_value v =
    { peer = Value.to_int (Value.field "peer" v);
      count = Value.to_int (Value.field "count" v);
      ph = ph_of_value (Value.field "ph" v);
      fd = Value.to_int (Value.field "fd" v) }
end

module Gm_pong = struct
  type state = { mutable ph : int; mutable fd : int }

  let name = "test.gm_pong"
  let start _ = { ph = 0; fd = -1 }

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ ->
      s.ph <- 1;
      (s, Program.Sys (Syscall.Gm_open { Addr.ip = Addr.any; port = 7 }))
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      s.fd <- fd;
      s.ph <- 2;
      (s, Program.Sys (Syscall.Gm_recv fd))
    | 2, Syscall.Ret (Syscall.Rfrom (src, d)) ->
      s.ph <- 3;
      (s, Program.Sys (Syscall.Gm_send (s.fd, src, d)))
    | 3, _ ->
      s.ph <- 2;
      (s, Program.Sys (Syscall.Gm_recv s.fd))
    | _, _ -> (s, Program.Exit 1)

  let to_value s = Value.List [ Value.Int s.ph; Value.Int s.fd ]

  let of_value = function
    | Value.List [ Value.Int ph; Value.Int fd ] -> { ph; fd }
    | _ -> failwith "bad"
end

(* Allocates [regions] regions of [size] bytes, then rewrites [stride] of
   them (rotating) every [period_us] for [loops] iterations — a
   controllable dirty rate for the live-migration tests.  [loops = 0]
   allocates, logs and sleeps: a quiescent working set. *)
module Dirtyhog = struct
  type state = {
    regions : int;
    size : int;
    stride : int;
    period_us : int;
    loops : int;
    mutable ph : int;  (* 0..regions-1: allocation; then past-the-end *)
    mutable iter : int;
    mutable next : int;  (* 0 = sleep next; 1..stride = touch next *)
  }

  let name = "test.dirtyhog"

  let start args =
    { regions = Value.to_int (Value.field "regions" args);
      size = Value.to_int (Value.field "size" args);
      stride = Value.to_int (Value.field "stride" args);
      period_us = Value.to_int (Value.field "period_us" args);
      loops = Value.to_int (Value.field "loops" args);
      ph = 0; iter = 0; next = 0 }

  let region i = Printf.sprintf "hog.%d" i

  let step s (_ : Syscall.outcome) =
    if s.ph < s.regions then begin
      let i = s.ph in
      s.ph <- s.ph + 1;
      (s, Program.Sys (Syscall.Mem_alloc (region i, s.size)))
    end
    else if s.iter >= s.loops then
      match s.ph - s.regions with
      | 0 ->
        s.ph <- s.ph + 1;
        (s, Program.Sys (Syscall.Log "dirtyhog ready"))
      | _ ->
        (* park like a long-running server: sleep forever in a loop, so the
           process is still alive whenever the engine is sampled *)
        (s, Program.Sys (Syscall.Nanosleep (Simtime.sec 50.0)))
    else if s.next = 0 then begin
      s.next <- 1;
      (s, Program.Sys (Syscall.Nanosleep (Simtime.us s.period_us)))
    end
    else begin
      (* re-alloc at the same size: marks the region dirty (a page write) *)
      let i = ((s.iter * s.stride) + (s.next - 1)) mod s.regions in
      if s.next >= s.stride then begin
        s.next <- 0;
        s.iter <- s.iter + 1
      end
      else s.next <- s.next + 1;
      (s, Program.Sys (Syscall.Mem_alloc (region i, s.size)))
    end

  let to_value s =
    Value.assoc
      [ ("regions", Value.int s.regions); ("size", Value.int s.size);
        ("stride", Value.int s.stride); ("period_us", Value.int s.period_us);
        ("loops", Value.int s.loops); ("ph", Value.int s.ph);
        ("iter", Value.int s.iter); ("next", Value.int s.next) ]

  let of_value v =
    { regions = Value.to_int (Value.field "regions" v);
      size = Value.to_int (Value.field "size" v);
      stride = Value.to_int (Value.field "stride" v);
      period_us = Value.to_int (Value.field "period_us" v);
      loops = Value.to_int (Value.field "loops" v);
      ph = Value.to_int (Value.field "ph" v);
      iter = Value.to_int (Value.field "iter" v);
      next = Value.to_int (Value.field "next" v) }
end

(* Listens, then sleeps long enough for a checkpoint/restart to catch a
   connection still queued on the listener; then accepts one connection
   and logs the peer's address and everything it reads up to EOF. *)
module Lazy_server = struct
  type state = { port : int; mutable ph : int; mutable fd : int; mutable got : string }

  let name = "test.lazy_server"
  let start args = { port = Value.to_int args; ph = 0; fd = -1; got = "" }

  let step s (outcome : Syscall.outcome) =
    let next ph call = s.ph <- ph; (s, Program.Sys call) in
    match (s.ph, outcome) with
    | 0, _ -> next 1 (Syscall.Sock_create Socket.Stream)
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      s.fd <- fd;
      next 2 (Syscall.Bind (fd, { Addr.ip = Addr.any; port = s.port }))
    | 2, _ -> next 3 (Syscall.Listen (s.fd, 4))
    | 3, _ -> next 4 (Syscall.Nanosleep (Simtime.ms 200))
    | 4, _ -> next 5 (Syscall.Accept s.fd)
    | 5, Syscall.Ret (Syscall.Raccept (fd, peer)) ->
      s.fd <- fd;
      next 6 (Syscall.Log (Format.asprintf "accepted %a" Addr.pp peer))
    | 6, Syscall.Ret (Syscall.Rdata "") ->
      next 7 (Syscall.Log (Printf.sprintf "read %S then eof" s.got))
    | 6, Syscall.Ret (Syscall.Rdata d) ->
      s.got <- s.got ^ d;
      next 6 (Syscall.Recv (s.fd, 64, Socket.plain_recv))
    | 6, Syscall.Err _ -> (s, Program.Exit 1)
    | 6, _ -> next 6 (Syscall.Recv (s.fd, 64, Socket.plain_recv))
    | 7, _ -> (s, Program.Exit 0)
    | _, _ -> (s, Program.Exit 1)

  let to_value s =
    Value.assoc
      [ ("port", Value.int s.port); ("ph", Value.int s.ph); ("fd", Value.int s.fd);
        ("got", Value.str s.got) ]

  let of_value v =
    { port = Value.to_int (Value.field "port" v); ph = Value.to_int (Value.field "ph" v);
      fd = Value.to_int (Value.field "fd" v); got = Value.to_str (Value.field "got" v) }
end

(* Connects to a server, sends "hello" and then idles with the connection
   open. *)
module Hello_client = struct
  type state = { dst : Addr.t; mutable ph : int; mutable fd : int }

  let name = "test.hello_client"
  let start args = { dst = Addr.of_value args; ph = 0; fd = -1 }

  let step s (outcome : Syscall.outcome) =
    let next ph call = s.ph <- ph; (s, Program.Sys call) in
    match (s.ph, outcome) with
    | 0, _ -> next 1 (Syscall.Nanosleep (Simtime.ms 5))
    | 1, _ -> next 2 (Syscall.Sock_create Socket.Stream)
    | 2, Syscall.Ret (Syscall.Rint fd) ->
      s.fd <- fd;
      next 3 (Syscall.Connect (fd, s.dst))
    | 3, Syscall.Ret _ -> next 4 (Syscall.Send (s.fd, "hello"))
    | 4, _ -> next 4 (Syscall.Nanosleep (Simtime.sec 50.0))
    | _, _ -> (s, Program.Exit 1)

  let to_value s =
    Value.assoc
      [ ("dst", Addr.to_value s.dst); ("ph", Value.int s.ph); ("fd", Value.int s.fd) ]

  let of_value v =
    { dst = Addr.of_value (Value.field "dst" v); ph = Value.to_int (Value.field "ph" v);
      fd = Value.to_int (Value.field "fd" v) }
end

let () =
  Program.register_if_absent (module Lazy_server);
  Program.register_if_absent (module Hello_client);
  Program.register_if_absent (module Ring);
  Program.register_if_absent (module Udp_chat);
  Program.register_if_absent (module Alarm_prog);
  Program.register_if_absent (module Gm_ping);
  Program.register_if_absent (module Gm_pong);
  Program.register_if_absent (module Dirtyhog)

(* launch [n] pods on the given nodes running a raw (non-Mpi) program *)
let launch_raw cluster ~name ~program ~placement ~mk_args =
  let pods =
    List.mapi
      (fun r node ->
        Cluster.create_pod cluster ~node_idx:node ~name:(Printf.sprintf "%s-%d" name r))
      placement
  in
  Cluster.link_pods pods;
  let vips = List.map (fun (p : Pod.t) -> p.vip) pods in
  let procs = List.mapi (fun r pod -> Pod.spawn pod ~program ~args:(mk_args r vips)) pods in
  (pods, procs)

let exited procs = List.for_all (fun (p : Proc.t) -> p.Proc.exit_code <> None) procs

let bt_args g iters =
  Zapc_apps.Bt_nas.params_to_value { Zapc_apps.Bt_nas.default_params with g; iters }

(* ranks of a restarted app: collect the program's processes from the
   re-created pods *)
let restarted_ranks pod_ids program =
  List.concat_map
    (fun id ->
      match Pod.find id with
      | None -> []
      | Some pod ->
        List.filter_map
          (fun (_, (pr : Proc.t)) ->
            if String.equal (Program.name_of pr.Proc.inst) program then Some pr else None)
          (Pod.members pod))
    pod_ids

(* ------------------------------------------------------------------ *)

let test_snapshot_then_continue () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"snap" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  check tint "two metas" 2 (List.length r.Manager.r_metas);
  check tint "two stats" 2 (List.length r.Manager.r_stats);
  (* the application continues and completes correctly after the snapshot *)
  ignore (Launch.wait_done cluster app);
  check tbool "checksum logged" true (has_log "bt_nas: checksum");
  (* network-state time is a small fraction of the total (paper section 6) *)
  List.iter
    (fun (_, st) ->
      check tbool "net time < local time" true
        (st.Protocol.st_net_time < st.Protocol.st_local_time))
    r.Manager.r_stats

let test_restart_on_other_nodes_same_result () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"snap2" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  ignore (Launch.wait_done cluster app);
  let reference = Option.get (find_log "bt_nas: checksum") in
  logged := [];
  (* restart the snapshot on different nodes *)
  let rr =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app) ~target_nodes:[ 2; 3 ]
      ~key_prefix:"snap2"
  in
  check tbool "restart ok" true rr.Manager.r_ok;
  let ranks = restarted_ranks (Launch.pod_ids app) "bt_nas" in
  check tint "both ranks restored" 2 (List.length ranks);
  Cluster.run_until cluster ~timeout:(Simtime.sec 1200.0) (fun () -> exited ranks);
  (* bit-identical result from the restarted computation *)
  check tbool "same checksum" true (List.mem reference !logged);
  (* the restored pods live on the new nodes *)
  List.iter
    (fun id ->
      let pod = Option.get (Pod.find id) in
      match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) pod.Pod.rip with
      | Some n -> check tbool "on node 2 or 3" true (n = 2 || n = 3)
      | None -> Alcotest.fail "pod rip unattached")
    (Launch.pod_ids app)

let test_migration_streaming () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  (* checkpoint streamed directly to the destination Agents, no storage *)
  let items =
    List.map2
      (fun (p : Pod.t) target ->
        { Manager.ci_node = (match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) p.rip with Some n -> n | None -> -1);
          ci_pod = p.pod_id; ci_dest = Protocol.U_node target })
      app.Launch.pods [ 2; 3 ]
  in
  let r = Cluster.checkpoint_sync cluster ~items ~resume:false in
  check tbool "migrate checkpoint ok" true r.Manager.r_ok;
  (* source pods are destroyed *)
  check tbool "sources gone" true
    (List.for_all (fun id -> Pod.find id = None) (Launch.pod_ids app));
  (* restart from the streamed images *)
  let ritems =
    List.map2
      (fun id target ->
        { Manager.ri_node = target; ri_pod = id; ri_uri = Protocol.U_node target })
      (Launch.pod_ids app) [ 2; 3 ]
  in
  let rr = Cluster.restart_sync cluster ~items:ritems in
  check tbool "restart ok" true rr.Manager.r_ok;
  let ranks = restarted_ranks (Launch.pod_ids app) "bt_nas" in
  check tint "ranks" 2 (List.length ranks);
  Cluster.run_until cluster ~timeout:(Simtime.sec 1200.0) (fun () -> exited ranks);
  check tbool "completes after migration" true (has_log "bt_nas: checksum")

(* A stream lands on its destination before the source lets go: with both
   destination Agents cut off, the checkpoint fails and every source pod
   keeps running where it was, its network unblocked. *)
let test_stream_to_unreachable_keeps_source () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  List.iter (fun n -> Manager.break_channel (Cluster.manager cluster) ~node:n) [ 2; 3 ];
  (* let the Manager see the breaks before the checkpoint starts *)
  Cluster.run cluster ~until:(Simtime.ms 6) ();
  let items =
    List.map2
      (fun (p : Pod.t) (src, dst) ->
        { Manager.ci_node = src; ci_pod = p.pod_id; ci_dest = Protocol.U_node dst })
      app.Launch.pods [ (0, 2); (1, 3) ]
  in
  let r = Cluster.checkpoint_sync cluster ~items ~resume:false in
  check tbool "stream to unreachable nodes fails" false r.Manager.r_ok;
  List.iter2
    (fun id node ->
      match Pod.find id with
      | None -> Alcotest.failf "source pod %d lost" id
      | Some pod ->
        check tbool "still on its node" true
          (Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) pod.Pod.rip = Some node);
        check tbool "running" false pod.Pod.frozen)
    (Launch.pod_ids app) [ 0; 1 ];
  check tint "no netfilter rule left" 0
    (Zapc_simnet.Netfilter.blocked_count
       (Zapc_simnet.Fabric.netfilter (Cluster.fabric cluster)));
  ignore (Launch.wait_done cluster app);
  check tbool "app completes in place" true (has_log "bt_nas: checksum")

(* A U_node restart whose image never landed has nothing to wait for: it
   fails at once with the Agent's report instead of hanging until the
   phase timeout. *)
let test_restart_without_streamed_image () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"nostream" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  List.iter Pod.destroy app.Launch.pods;
  let items =
    List.map2
      (fun id target ->
        { Manager.ri_node = target; ri_pod = id; ri_uri = Protocol.U_node target })
      (Launch.pod_ids app) [ 2; 3 ]
  in
  let rr = Cluster.restart_sync cluster ~items in
  check tbool "restart fails" false rr.Manager.r_ok;
  (match rr.Manager.r_failure with
   | Some (Protocol.F_agent _) -> ()
   | _ -> Alcotest.failf "expected F_agent, got: %s" rr.Manager.r_detail);
  check tbool "fails well under a virtual second" true
    (Simtime.compare rr.Manager.r_duration (Simtime.ms 100) < 0)

(* A connection still queued on a listener, from a pod outside the
   restored set, comes back as an orphan on the restored listener's accept
   queue: accepting it reports the peer's address, then reads the saved
   data and EOF. *)
let test_restart_queued_orphan () =
  let cluster = make_cluster () in
  let server = Cluster.create_pod cluster ~node_idx:0 ~name:"server" in
  let client = Cluster.create_pod cluster ~node_idx:1 ~name:"client" in
  Cluster.link_pods [ server; client ];
  ignore (Pod.spawn server ~program:"test.lazy_server" ~args:(Value.int 7000));
  ignore
    (Pod.spawn client ~program:"test.hello_client"
       ~args:(Addr.to_value { Addr.ip = server.vip; port = 7000 }));
  Cluster.run cluster ~until:(Simtime.ms 20) ();
  let r = Cluster.snapshot cluster ~pods:[ server ] ~key_prefix:"orphan" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  Pod.destroy server;
  let rr =
    Cluster.restart_app cluster ~pod_ids:[ server.pod_id ] ~target_nodes:[ 2 ]
      ~key_prefix:"orphan"
  in
  check tbool "restart ok" true rr.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 1.0) (fun () -> has_log "read ");
  check tbool "accept reports the client" true
    (has_log (Format.asprintf "accepted %a:" Addr.pp_ip client.vip));
  check tbool "saved data, then EOF" true (has_log "read \"hello\" then eof")

(* Pod ids and real addresses restart in every cluster, so a new cluster
   must not see the pods of an earlier one: a restore in a cluster of two
   pods translates neither the vip nor the rip of a third pod that only an
   earlier cluster of four had. *)
let test_new_cluster_empty_registry () =
  let first = make_cluster () in
  let old =
    List.init 4 (fun i -> Cluster.create_pod first ~node_idx:1 ~name:(Printf.sprintf "old%d" i))
  in
  Cluster.link_pods old;
  let gone = List.nth old 2 in
  let cluster = make_cluster () in
  let pods =
    List.init 2 (fun i -> Cluster.create_pod cluster ~node_idx:1 ~name:(Printf.sprintf "new%d" i))
  in
  Cluster.link_pods pods;
  let p = List.hd pods in
  check tbool "the earlier cluster's third pod is not found" true (Pod.find gone.pod_id = None);
  ignore (Pod.spawn p ~program:"test.lazy_server" ~args:(Value.int 7000));
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:[ p ] ~key_prefix:"reg" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  Pod.destroy p;
  let rr =
    Cluster.restart_app cluster ~pod_ids:[ p.pod_id ] ~target_nodes:[ 2 ] ~key_prefix:"reg"
  in
  check tbool "restart ok" true rr.Manager.r_ok;
  match Pod.find p.pod_id with
  | None -> Alcotest.fail "restored pod not registered"
  | Some restored ->
    check tbool "an earlier cluster's vip passes through" true
      (Addr.equal_ip (Namespace.rip_of_vip restored.ns gone.vip) gone.vip);
    check tbool "an earlier cluster's rip passes through" true
      (Addr.equal_ip (Namespace.vip_of_rip restored.ns gone.rip) gone.rip);
    check tbool "the live sibling still resolves" true
      (let q = List.nth pods 1 in
       Addr.equal_ip (Namespace.rip_of_vip restored.ns q.vip) q.rip);
    check tbool "the earlier cluster's third pod is still not found" true
      (Pod.find gone.pod_id = None)

(* Stream a running 2-rank BT/NAS from nodes 0 and 1 straight to the
   Agents of nodes 2 and 3, and restart it there. *)
let stream_bt ?params ?(before = fun _ _ -> ()) () =
  let cluster = make_cluster ?params () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  before cluster app;
  let items =
    List.map2
      (fun (p : Pod.t) (src, dst) ->
        { Manager.ci_node = src; ci_pod = p.pod_id; ci_dest = Protocol.U_node dst })
      app.Launch.pods [ (0, 2); (1, 3) ]
  in
  let r = Cluster.checkpoint_sync cluster ~items ~resume:false in
  check tbool "stream checkpoint ok" true r.Manager.r_ok;
  let rr =
    Cluster.restart_sync cluster
      ~items:
        (List.map2
           (fun id dst -> { Manager.ri_node = dst; ri_pod = id; ri_uri = Protocol.U_node dst })
           (Launch.pod_ids app) [ 2; 3 ])
  in
  check tbool "stream restart ok" true rr.Manager.r_ok;
  (cluster, app, r, rr)

(* A stream never passes through Storage, so it ships logical bytes and
   pays no codec CPU on either side: with compression on, the checkpoint
   and the restart take exactly the virtual time they take with it off. *)
let test_stream_skips_compression () =
  let durations compress =
    let _, _, r, rr = stream_bt ~params:{ Params.default with compress } () in
    (r.Manager.r_duration, rr.Manager.r_duration)
  in
  check (Alcotest.pair tint tint) "same checkpoint and restart durations"
    (durations false) (durations true)

(* The commit rule of every U_node item: a source lost right after its
   image landed costs nothing — the checkpoint succeeds, the restart brings
   the application up on the destinations, and it completes. *)
let stream_source_lost () =
  let lost = ref false in
  let cluster, app, _, _ =
    stream_bt
      ~before:(fun cluster app ->
        let src = List.combine (Launch.pod_ids app) [ 0; 1 ] in
        Span.subscribe (Cluster.enable_trace cluster) (function
          | Span.Instant i when (not !lost) && String.equal i.in_what "destroyed" ->
            lost := true;
            Manager.break_channel (Cluster.manager cluster)
              ~node:(List.assoc i.in_pod src)
          | _ -> ()))
      ()
  in
  let m = Cluster.metrics cluster in
  check tint "one source lost after its commit" 1
    (Zapc_obs.Metrics.counter m "mgr.mig.src_lost_after_commit");
  let ranks = restarted_ranks (Launch.pod_ids app) "bt_nas" in
  Cluster.run_until cluster ~timeout:(Simtime.sec 1200.0) (fun () -> exited ranks);
  check tbool "completes after the stream" true (has_log "bt_nas: checksum");
  m

let test_stream_source_lost () = ignore (stream_source_lost ())

let test_ring_restart () =
  let cluster = make_cluster ~nodes:4 () in
  let placement = [ 0; 1; 2 ] in
  let pods, procs =
    launch_raw cluster ~name:"ring" ~program:"test.ring" ~placement
      ~mk_args:(fun r vips ->
        Value.assoc
          [ ("rank", Value.int r); ("size", Value.int 3);
            ("vips", Value.list Value.int vips); ("port", Value.int 4400);
            ("limit", Value.int 5000) ])
  in
  (* let the ring get going, then snapshot mid-token *)
  Cluster.run cluster ~until:(Simtime.ms 40) ();
  check tbool "still running" true (not (exited procs));
  let r = Cluster.snapshot cluster ~pods ~key_prefix:"ring" in
  check tbool "ring snapshot ok" true r.Manager.r_ok;
  (* every pod has both a connect-role and an accept-role endpoint *)
  List.iter
    (fun (pm : Zapc_netckpt.Meta.pod_meta) ->
      let roles = List.map (fun e -> e.Zapc_netckpt.Meta.role) pm.pm_entries in
      check tbool "has accept" true (List.mem Zapc_netckpt.Meta.Accept roles);
      check tbool "has connect" true (List.mem Zapc_netckpt.Meta.Connect roles))
    r.Manager.r_metas;
  (* kill the originals, restart the ring on fresh nodes; recovery must not
     deadlock even though the connection graph is a cycle *)
  List.iter Pod.destroy pods;
  let pod_ids = List.map (fun (p : Pod.t) -> p.Pod.pod_id) pods in
  let rr =
    Cluster.restart_app cluster ~pod_ids ~target_nodes:[ 3; 3; 3 ] ~key_prefix:"ring"
  in
  check tbool "ring restart ok" true rr.Manager.r_ok;
  let ranks = restarted_ranks pod_ids "test.ring" in
  check tint "three restored" 3 (List.length ranks);
  Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () -> exited ranks);
  check tbool "token completed" true (has_log "ring done v=5000");
  List.iter (fun (p : Proc.t) -> check tbool "clean exit" true (p.exit_code = Some 0)) ranks

let test_udp_across_checkpoint () =
  let cluster = make_cluster () in
  let pods, procs =
    launch_raw cluster ~name:"udp" ~program:"test.udp_chat" ~placement:[ 0; 1 ]
      ~mk_args:(fun r vips ->
        Value.assoc
          [ ("rank", Value.int r); ("vips", Value.list Value.int vips);
            ("port", Value.int 4500); ("count", Value.int 3000) ])
  in
  Cluster.run cluster ~until:(Simtime.ms 2) ();
  let r = Cluster.snapshot cluster ~pods ~key_prefix:"udp" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () -> exited procs);
  (* both peers finished; no duplicated datagrams (loss is acceptable) *)
  check tbool "rank0 done" true (has_log "udp rank=0");
  check tbool "rank1 done" true (has_log "udp rank=1");
  check tbool "no duplicates" true
    (List.for_all
       (fun s ->
         not (String.length s >= 3 && String.equal (String.sub s 0 3) "udp")
         || not
              (String.length s > 9
               && String.equal (String.sub s (String.length s - 9) 9) "dup=true"))
       !logged)

let test_manager_failure_aborts () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  (* begin a checkpoint, then sever one Agent's control connection while the
     operation is in flight *)
  let result = ref None in
  let items =
    List.map
      (fun (p : Pod.t) ->
        { Manager.ci_node = (match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) p.rip with Some n -> n | None -> -1);
          ci_pod = p.pod_id; ci_dest = Protocol.U_storage "doomed" })
      app.Launch.pods
  in
  Manager.checkpoint (Cluster.manager cluster) ~items ~resume:true ~on_done:(fun r ->
      result := Some r);
  Engine.schedule (Cluster.engine cluster) ~delay:(Simtime.ms 20) (fun () ->
      Manager.break_channel (Cluster.manager cluster) ~node:0);
  Cluster.run_until cluster (fun () -> !result <> None);
  (* the operation aborts... *)
  check tbool "operation failed" true (not (Option.get !result).Manager.r_ok);
  (* ...and the application resumes gracefully and still completes correctly
     (paper section 4: "the operation will be gracefully aborted, and the
     application will resume its execution") *)
  ignore (Launch.wait_done cluster app);
  check tbool "app completed after abort" true (has_log "bt_nas: checksum")

let test_checkpoint_completes_without_failure () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"ok" in
  check tbool "completed" true r.Manager.r_ok;
  ignore (Launch.wait_done cluster app);
  check tbool "app completed" true (has_log "bt_nas: checksum")

let test_agent_channel_break () =
  let params = Params.default in
  Zapc_apps.Registry.register_all ();
  let engine = Engine.create ~seed:1 () in
  let ch = Zapc.Control.create ~engine ~latency:(Simtime.us 100) ~bps:1e9 in
  let got = ref [] in
  Zapc.Control.set_up_handler ch (fun m -> got := m :: !got);
  Zapc.Control.on_break ch (fun () -> got := "broken" :: !got);
  Zapc.Control.send_up ch ~bytes:10 "hello";
  Engine.run engine;
  Alcotest.(check (list string)) "delivered" [ "hello" ] !got;
  Zapc.Control.send_up ch ~bytes:10 "in-flight";
  Zapc.Control.break ch;
  Engine.run engine;
  (* in-flight message dropped; both sides notified *)
  check tbool "break notified" true (List.mem "broken" !got);
  check tbool "in-flight dropped" true (not (List.mem "in-flight" !got));
  ignore params

let test_restart_missing_image_fails_cleanly () =
  let cluster = make_cluster () in
  let r =
    Cluster.restart_sync cluster
      ~items:[ { Manager.ri_node = 0; ri_pod = 999; ri_uri = Protocol.U_storage "absent" } ]
  in
  check tbool "fails" true (not r.Manager.r_ok)

let test_two_pods_per_node_dual_cpu () =
  (* the paper's 16-node configuration: dual-CPU nodes, one pod per CPU *)
  let cluster = make_cluster ~nodes:2 ~cpus:2 () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 0; 1; 1 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"dual" in
  check tbool "snapshot of 4 pods on 2 nodes" true r.Manager.r_ok;
  check tint "four pods" 4 (List.length r.Manager.r_stats);
  ignore (Launch.wait_done cluster app);
  check tbool "completes" true (has_log "bt_nas: checksum")

(* checkpoint the restarted application AGAIN and restart it elsewhere: the
   second checkpoint must re-extract data parked in alternate receive queues
   by the first restore, and the end result must still be identical *)
let test_double_restart_chain () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 40) ()
  in
  ignore (Launch.wait_done cluster app);
  let reference = Option.get (find_log "bt_nas: checksum") in
  (* same workload, interrupted twice *)
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 40) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 6) ();
  let r1 = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"hop1" in
  check tbool "first snapshot" true r1.Manager.r_ok;
  List.iter Pod.destroy app.Launch.pods;
  let rr1 =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app) ~target_nodes:[ 2; 3 ]
      ~key_prefix:"hop1"
  in
  check tbool "first restart" true rr1.Manager.r_ok;
  (* run a little, then snapshot the RESTARTED pods and move them again *)
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 6)) ();
  let pods2 = List.filter_map Pod.find (Launch.pod_ids app) in
  check tint "pods alive after first restart" 2 (List.length pods2);
  let r2 = Cluster.snapshot cluster ~pods:pods2 ~key_prefix:"hop2" in
  check tbool "second snapshot" true r2.Manager.r_ok;
  List.iter Pod.destroy pods2;
  let rr2 =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app) ~target_nodes:[ 1; 0 ]
      ~key_prefix:"hop2"
  in
  check tbool "second restart" true rr2.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      find_log "bt_nas: checksum" <> None);
  check tbool "identical result after two hops" true (List.mem reference !logged)

(* restart over a lossy fabric: connection recovery and the send-queue
   resend ride on real TCP, so retransmission must absorb the loss *)
let test_restart_with_packet_loss () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 6) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"lossy" in
  check tbool "snapshot" true r.Manager.r_ok;
  ignore (Launch.wait_done cluster app);
  let reference = Option.get (find_log "bt_nas: checksum") in
  logged := [];
  Zapc_simnet.Fabric.set_loss_prob (Cluster.fabric cluster) 0.03;
  let rr =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app) ~target_nodes:[ 2; 3 ]
      ~key_prefix:"lossy"
  in
  check tbool "restart over lossy fabric" true rr.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      find_log "bt_nas: checksum" <> None);
  check tbool "identical result despite loss" true (List.mem reference !logged)

(* the application-level timeout mechanism survives a checkpoint/restart
   with a long down-time in between: the alarm's remaining time and the
   virtual clock both continue as if the gap never happened *)
let test_alarm_and_clock_across_restart () =
  let cluster = make_cluster () in
  let pod = Cluster.create_pod cluster ~node_idx:0 ~name:"alarmpod" in
  Cluster.link_pods [ pod ];
  let _p = Pod.spawn pod ~program:"test.alarm" ~args:Value.unit in
  (* checkpoint mid-sleep at 100 ms *)
  Cluster.run cluster ~until:(Simtime.ms 100) ();
  let r = Cluster.snapshot cluster ~pods:[ pod ] ~key_prefix:"alarm" in
  check tbool "snapshot" true r.Manager.r_ok;
  Pod.destroy pod;
  (* a long outage: restart only at t=5s *)
  Cluster.run cluster ~until:(Simtime.sec 5.0) ();
  let rr =
    Cluster.restart_app cluster ~pod_ids:[ pod.Pod.pod_id ] ~target_nodes:[ 2 ]
      ~key_prefix:"alarm"
  in
  check tbool "restart" true rr.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      find_log "clock=" <> None);
  (* the alarm was set to 500 ms at ~0 and checked at ~200 ms of app time:
     ~300 ms must remain — it must NOT have expired during the 5 s outage *)
  (match find_log "alarm_rem=" with
   | Some line ->
     let rem = int_of_string (String.sub line 10 (String.length line - 10)) in
     check tbool "alarm not expired" true (rem > Simtime.ms 200 && rem <= Simtime.ms 400)
   | None -> Alcotest.fail "no alarm log");
  (* and the virtual clock hides the outage: it reads ~200 ms, not ~5 s *)
  match find_log "clock=" with
  | Some line ->
    let t = int_of_string (String.sub line 6 (String.length line - 6)) in
    check tbool "clock continuous" true (t < Simtime.ms 400)
  | None -> Alcotest.fail "no clock log"

let test_checkpoint_timing_structure () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 128 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"timing" in
  check tbool "ok" true r.Manager.r_ok;
  List.iter
    (fun (_, st) ->
      (* network-state checkpoint well under 10ms, a small fraction of the
         local time (paper: 3-10%) *)
      check tbool "net ckpt < 10ms" true (st.Protocol.st_net_time < Simtime.ms 10);
      check tbool "images nonempty" true (st.Protocol.st_image_bytes > 1_000_000);
      check tbool "procs = app + daemon" true (st.Protocol.st_procs = 2))
    r.Manager.r_stats;
  (* total duration includes agent work plus control round-trips *)
  check tbool "duration covers agent local time" true
    (List.for_all
       (fun (_, st) -> r.Manager.r_duration >= st.Protocol.st_local_time)
       r.Manager.r_stats)

(* N -> M reshaping (paper section 3: "ZapC can migrate a distributed
   application running on N cluster nodes to run on M cluster nodes, where
   generally N != M"): 4 pods from 4 nodes consolidated onto 2, then the
   result must still be exact *)
let test_n_to_m_consolidation () =
  let cluster = make_cluster ~nodes:4 () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1; 2; 3 ]
      ~app_args:(bt_args 96 40) ()
  in
  ignore (Launch.wait_done cluster app);
  let reference = Option.get (find_log "bt_nas: checksum") in
  let cluster = make_cluster ~nodes:4 () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1; 2; 3 ]
      ~app_args:(bt_args 96 40) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 6) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"ntom" in
  check tbool "snapshot" true r.Manager.r_ok;
  List.iter Pod.destroy app.Launch.pods;
  (* two pods per node on nodes 0 and 1 *)
  let rr =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app) ~target_nodes:[ 0; 0; 1; 1 ]
      ~key_prefix:"ntom"
  in
  check tbool "restart 4 pods on 2 nodes" true rr.Manager.r_ok;
  List.iter
    (fun id ->
      let pod = Option.get (Pod.find id) in
      match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) pod.Pod.rip with
      | Some n -> check tbool "consolidated" true (n = 0 || n = 1)
      | None -> Alcotest.fail "pod unattached")
    (Launch.pod_ids app);
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      find_log "bt_nas: checksum" <> None);
  check tbool "identical result on half the nodes" true (List.mem reference !logged)

(* the periodic-checkpoint service: rotating epochs, pruning, and recovery
   of the whole application from the last good epoch after a crash *)
let test_periodic_service_recovery () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 256 1500) ()
  in
  ignore (Launch.wait_done cluster app);
  let reference = Option.get (find_log "bt_nas: checksum") in
  (* fresh run with the service ticking every 200 ms *)
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 256 1500) ()
  in
  let svc =
    Zapc.Periodic.start cluster ~pods:app.Launch.pods ~prefix:"svc"
      ~period:(Simtime.ms 200) ~keep:2 ()
  in
  Cluster.run cluster ~until:(Simtime.ms 900) ();
  check tbool "app still running at crash time" true (not (Launch.is_done app));
  check tbool "epochs completed" true (Zapc.Periodic.last_good svc >= 2);
  (* pruning: only the last [keep] epochs remain in storage *)
  let keys = Zapc.Storage.keys (Cluster.storage cluster) in
  let epoch_keys =
    List.filter
      (fun k -> String.length k >= 3 && String.equal (String.sub k 0 3) "svc")
      keys
  in
  check tbool "old epochs pruned" true (List.length epoch_keys <= 2 * 2);
  (* node 0 crashes; recover on fresh nodes from the last good epoch *)
  List.iter
    (fun (p : Pod.t) ->
      match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) p.rip with
      | Some 0 -> Pod.destroy p
      | Some _ | None -> ())
    app.Launch.pods;
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () ->
      not (Manager.busy (Cluster.manager cluster)));
  let r = Zapc.Periodic.recover svc ~target_nodes:[ 2; 3 ] in
  check tbool "recovery ok" true r.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      find_log "bt_nas: checksum" <> None);
  check tbool "identical result after recovery" true (List.mem reference !logged)

(* recover before any epoch completed: a structured refusal, not a crash *)
let test_periodic_recover_without_snapshot () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 256 1500) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Zapc.Periodic.start cluster ~pods:app.Launch.pods ~prefix:"virgin"
      ~period:(Simtime.sec 10.0) ()
  in
  check tint "no epoch yet" 0 (Zapc.Periodic.last_good svc);
  let r = Zapc.Periodic.recover svc ~target_nodes:[ 2; 3 ] in
  check tbool "recovery refused" true (not r.Manager.r_ok);
  (match r.Manager.r_failure with
   | Some (Protocol.F_missing_image _) -> ()
   | _ -> Alcotest.fail "expected F_missing_image for last_good = 0");
  Zapc.Periodic.stop svc

(* a period shorter than a checkpoint: overlapping epochs are skipped while
   the Manager is busy (never queued), with the reason recorded *)
let test_periodic_skips_while_busy () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 256 1500) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Zapc.Periodic.start cluster ~pods:app.Launch.pods ~prefix:"busy"
      ~period:(Simtime.ms 20) ~keep:2 ()
  in
  Cluster.run cluster ~until:(Simtime.ms 800) ();
  check tbool "some epochs completed" true (Zapc.Periodic.completed svc >= 1);
  check tbool "overlapping epochs skipped" true (Zapc.Periodic.skipped svc > 0);
  (match Zapc.Periodic.last_skip_reason svc with
   | Some "manager busy" -> ()
   | Some other -> Alcotest.fail ("unexpected skip reason: " ^ other)
   | None -> Alcotest.fail "skip reason not recorded");
  Zapc.Periodic.stop svc

(* a pod whose address is no longer on the fabric must skip the epoch with
   a recorded reason — never fall back to checkpointing on node 0 *)
let test_periodic_skips_unresolvable_pod () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 256 1500) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Zapc.Periodic.start cluster ~pods:app.Launch.pods ~prefix:"unres"
      ~period:(Simtime.ms 200) ~keep:2 ()
  in
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () ->
      Zapc.Periodic.completed svc >= 1
      && not (Manager.busy (Cluster.manager cluster)));
  (* node 1 falls off the fabric but its pod object survives *)
  Zapc_simnet.Fabric.detach_node (Cluster.fabric cluster) 1;
  let before = Zapc.Periodic.skipped svc in
  let good = Zapc.Periodic.last_good svc in
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 500)) ();
  check tbool "epochs skipped, not misplaced" true (Zapc.Periodic.skipped svc > before);
  (match Zapc.Periodic.last_skip_reason svc with
   | Some reason ->
     check tbool "reason names the unresolvable pod" true
       (String.length reason > 0 && String.sub reason 0 3 = "pod")
   | None -> Alcotest.fail "skip reason not recorded");
  check tint "no further epoch completed" good (Zapc.Periodic.last_good svc);
  Zapc.Periodic.stop svc

(* pruning leaves exactly [keep] epochs resident (Storage.keys is exact) *)
let test_periodic_prunes_to_keep () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 256 1500) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let keep = 2 in
  let svc =
    Zapc.Periodic.start cluster ~pods:app.Launch.pods ~prefix:"rot"
      ~period:(Simtime.ms 150) ~keep ()
  in
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () ->
      Zapc.Periodic.last_good svc >= keep + 2
      && not (Manager.busy (Cluster.manager cluster)));
  Zapc.Periodic.stop svc;
  let good = Zapc.Periodic.last_good svc in
  let expected =
    List.concat_map
      (fun e ->
        List.map
          (fun (p : Pod.t) -> Printf.sprintf "rot.e%d.pod%d" e p.Pod.pod_id)
          app.Launch.pods)
      (List.init keep (fun i -> good - keep + 1 + i))
    |> List.sort String.compare
  in
  let resident =
    List.filter
      (fun k -> String.length k >= 3 && String.equal (String.sub k 0 3) "rot")
      (Zapc.Storage.keys (Cluster.storage cluster))
  in
  check (Alcotest.list Alcotest.string) "exactly keep epochs resident" expected
    resident

(* --- incremental (delta) checkpointing --- *)

(* The first incremental epoch has no base and falls back to a full image;
   the second chains on the first and writes a fraction of the bytes (BT's
   untouched rss dominates the full image), and a restart from the *delta*
   epoch reproduces the exact result — Storage.get materializes the chain
   transparently. *)
let test_incremental_snapshot_and_restart () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let storage = Cluster.storage cluster in
  let r1 =
    Cluster.snapshot ~incremental:true cluster ~pods:app.Launch.pods
      ~key_prefix:"inc-e1"
  in
  check tbool "first epoch ok" true r1.Manager.r_ok;
  List.iter
    (fun (p : Pod.t) ->
      check tbool "first epoch is full" true
        (Zapc.Storage.base_key storage (Printf.sprintf "inc-e1.pod%d" p.Pod.pod_id)
         = None))
    app.Launch.pods;
  List.iter
    (fun (_, st) -> check tint "full write flagged as full" 0 st.Protocol.st_full_bytes)
    r1.Manager.r_stats;
  Cluster.run cluster ~until:(Simtime.ms 10) ();
  let r2 =
    Cluster.snapshot ~incremental:true cluster ~pods:app.Launch.pods
      ~key_prefix:"inc-e2"
  in
  check tbool "second epoch ok" true r2.Manager.r_ok;
  List.iter
    (fun (p : Pod.t) ->
      check tbool "second epoch chains on the first" true
        (Zapc.Storage.base_key storage (Printf.sprintf "inc-e2.pod%d" p.Pod.pod_id)
         = Some (Printf.sprintf "inc-e1.pod%d" p.Pod.pod_id)))
    app.Launch.pods;
  List.iter
    (fun (_, st) ->
      check tbool "delta write flagged" true (st.Protocol.st_full_bytes > 0);
      check tbool "delta <= 50% of the full bytes" true
        (st.Protocol.st_image_bytes * 2 <= st.Protocol.st_full_bytes))
    r2.Manager.r_stats;
  (* the app continues to its reference answer... *)
  ignore (Launch.wait_done cluster app);
  let reference = Option.get (find_log "bt_nas: checksum") in
  logged := [];
  (* ...and a restart from the delta epoch on other nodes reproduces it *)
  let rr =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app) ~target_nodes:[ 2; 3 ]
      ~key_prefix:"inc-e2"
  in
  check tbool "restart from delta epoch ok" true rr.Manager.r_ok;
  let ranks = restarted_ranks (Launch.pod_ids app) "bt_nas" in
  Cluster.run_until cluster ~timeout:(Simtime.sec 1200.0) (fun () -> exited ranks);
  check tbool "same checksum from the delta epoch" true (List.mem reference !logged)

(* the Agents' chain cap is the only full-image forcing mechanism: with
   max_delta_chain = 2 the write pattern over five incremental epochs must
   be full, delta, delta, full, delta *)
let test_delta_chain_cap_forces_full () =
  let params = { Params.default with Params.max_delta_chain = 2 } in
  let cluster = make_cluster ~params () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 256 1500) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let storage = Cluster.storage cluster in
  for e = 1 to 5 do
    Cluster.run cluster ~until:(Simtime.ms (5 + (10 * e))) ();
    let r =
      Cluster.snapshot ~incremental:true cluster ~pods:app.Launch.pods
        ~key_prefix:(Printf.sprintf "cap.e%d" e)
    in
    check tbool (Printf.sprintf "epoch %d ok" e) true r.Manager.r_ok
  done;
  let base_of e pid =
    Zapc.Storage.base_key storage (Printf.sprintf "cap.e%d.pod%d" e pid)
  in
  List.iter
    (fun (p : Pod.t) ->
      let pid = p.Pod.pod_id in
      let link e = Some (Printf.sprintf "cap.e%d.pod%d" e pid) in
      check tbool "e1 full" true (base_of 1 pid = None);
      check tbool "e2 chains on e1" true (base_of 2 pid = link 1);
      check tbool "e3 chains on e2" true (base_of 3 pid = link 2);
      check tbool "e4 full again (cap reached)" true (base_of 4 pid = None);
      check tbool "e5 chains on e4" true (base_of 5 pid = link 4))
    app.Launch.pods

(* the Myrinet/GM extension (paper section 5): kernel-bypass messaging
   whose device-resident port state is extracted and reinstated across a
   migration; in-flight messages drop (unreliable) and the library's
   timeout-retry absorbs the loss *)
let test_gm_checkpoint_migration () =
  let cluster = make_cluster () in
  (* launched manually: ping and pong run different programs *)
  let pong_pod = Cluster.create_pod cluster ~node_idx:0 ~name:"gm-pong" in
  let ping_pod = Cluster.create_pod cluster ~node_idx:1 ~name:"gm-ping" in
  Cluster.link_pods [ pong_pod; ping_pod ];
  let pong = Pod.spawn pong_pod ~program:"test.gm_pong" ~args:Value.unit in
  let ping =
    Pod.spawn ping_pod ~program:"test.gm_ping"
      ~args:
        (Value.assoc
           [ ("peer", Value.int pong_pod.Pod.vip); ("count", Value.int 600) ])
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  check tbool "mid-run" true (ping.Proc.exit_code = None);
  (* checkpoint both, destroy, restart on nodes 2 and 3 *)
  let r = Cluster.snapshot cluster ~pods:[ pong_pod; ping_pod ] ~key_prefix:"gm" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  List.iter Pod.destroy [ pong_pod; ping_pod ];
  let rr =
    Cluster.restart_app cluster
      ~pod_ids:[ pong_pod.Pod.pod_id; ping_pod.Pod.pod_id ]
      ~target_nodes:[ 2; 3 ] ~key_prefix:"gm"
  in
  check tbool "restart ok" true rr.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () -> has_log "gm done");
  check tbool "all exchanges completed" true (has_log "gm done n=600");
  ignore pong

(* determinism: the entire cluster — kernels, TCP, protocol — is a
   deterministic function of the seed; two identical runs agree on every
   observable, event for event *)
let test_determinism () =
  let run () =
    let cluster = make_cluster ~seed:1234 () in
    let app =
      Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
        ~app_args:(bt_args 96 30) ()
    in
    Cluster.run cluster ~until:(Simtime.ms 5) ();
    let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"det" in
    let t = Launch.wait_done cluster app in
    (Simtime.to_sec t, r.Manager.r_duration,
     List.sort compare (List.map (fun (p, st) -> (p, st.Protocol.st_image_bytes)) r.Manager.r_stats),
     Option.get (find_log "bt_nas: checksum"))
  in
  let a = run () in
  let b = run () in
  check tbool "bit-for-bit reproducible" true (a = b)

(* the Figure-2 timeline: the standalone checkpoint overlaps the Manager
   synchronization, and resume waits for BOTH the local standalone
   checkpoint and the Manager's 'continue' *)
let test_figure2_timeline () =
  let cluster = make_cluster () in
  let tr = Cluster.enable_trace cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 128 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"fig2" in
  check tbool "ok" true r.Manager.r_ok;
  let time pod what =
    match
      List.find_opt
        (fun (i : Span.instant) -> i.in_pod = pod && String.equal i.in_what what)
        (Span.instants tr)
    with
    | Some i -> i.in_time
    | None -> Alcotest.failf "missing trace event %s for pod %d" what pod
  in
  List.iter
    (fun (p : Pod.t) ->
      let id = p.pod_id in
      (* phases happen in Figure-1 order *)
      check tbool "suspend before net ckpt" true (time id "suspended" <= time id "net_ckpt_done");
      check tbool "net ckpt before meta" true (time id "net_ckpt_done" <= time id "meta_sent");
      (* the Manager's continue arrives DURING the standalone checkpoint:
         this is the overlap the network-state-first ordering buys *)
      check tbool "continue overlaps standalone" true
        (time id "continue_received" < time id "standalone_done");
      (* resume gates on both conditions *)
      check tbool "resume after standalone" true
        (time id "resumed" >= time id "standalone_done");
      check tbool "resume after continue" true
        (time id "resumed" >= time id "continue_received"))
    app.Launch.pods;
  (* the rendering is printable and mentions every pod *)
  let s = Zapc.Trace.render_checkpoint tr in
  check tbool "render nonempty" true (String.length s > 100);
  ignore (Launch.wait_done cluster app)

(* the same invariant asserted from the *rendered* timeline: the render is
   what the bench harness and CLI print, so its numbers (ms offsets from
   the Manager broadcast) must carry the Figure-2 structure too *)
let test_rendered_timeline () =
  let cluster = make_cluster () in
  let tr = Cluster.enable_trace cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 128 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"rfig2" in
  check tbool "ok" true r.Manager.r_ok;
  let s = Zapc.Trace.render_checkpoint tr in
  (* pod rows: "pod suspnd netck meta standa contin resume" *)
  let rows =
    List.filter_map
      (fun line ->
        match
          String.split_on_char ' ' line |> List.filter (fun x -> x <> "")
        with
        | [ pod; su; ne; me; st; co; re ] ->
          (match int_of_string_opt pod with
           | Some p ->
             Some
               ( p, float_of_string su, float_of_string ne, float_of_string me,
                 float_of_string st, float_of_string co, float_of_string re )
           | None -> None)
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  check tint "one rendered row per pod" (List.length app.Launch.pods)
    (List.length rows);
  List.iter
    (fun (pod, suspend, netck, meta, standalone, continue_, resume) ->
      check tbool (Printf.sprintf "pod%d: suspend first" pod) true
        (suspend <= netck && netck <= meta);
      (* the overlap: 'continue' lands after the meta-data went out but
         DURING the standalone checkpoint *)
      check tbool (Printf.sprintf "pod%d: continue overlaps standalone" pod)
        true
        (meta <= continue_ && continue_ < standalone);
      (* resume gates on standalone_done AND continue_received *)
      check tbool (Printf.sprintf "pod%d: resume gates on both" pod) true
        (resume >= standalone && resume >= continue_))
    rows;
  ignore (Launch.wait_done cluster app)

let test_serial_ablation_slower () =
  let run_mode serial =
    let params =
      { Params.default with Params.serial_ckpt = serial; cost_jitter = 0.0 }
    in
    let cluster = make_cluster ~params () in
    let app =
      Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
        ~app_args:(bt_args 128 30) ()
    in
    Cluster.run cluster ~until:(Simtime.ms 5) ();
    let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"abl" in
    check tbool "ok" true r.Manager.r_ok;
    r.Manager.r_duration
  in
  let overlapped = run_mode false in
  let serial = run_mode true in
  check tbool "overlapped checkpoint is not slower" true (overlapped <= serial)

(* --- live migration (iterative pre-copy) --- *)

let hog_args ~regions ~size ~stride ~period_us ~loops =
  Value.assoc
    [ ("regions", Value.int regions); ("size", Value.int size);
      ("stride", Value.int stride); ("period_us", Value.int period_us);
      ("loops", Value.int loops) ]

(* One pod on [node_idx] running a dirtyhog with the given touch pattern. *)
let launch_hog cluster ~node_idx ~args =
  let pod = Cluster.create_pod cluster ~node_idx ~name:"hog" in
  Cluster.link_pods [ pod ];
  let _proc = Pod.spawn pod ~program:"test.dirtyhog" ~args in
  pod

let pod_node cluster id =
  match Pod.find id with
  | None -> -1
  | Some p ->
    (match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) p.Pod.rip with
     | Some n -> n
     | None -> -1)

(* A quiescent pod (allocated, now sleeping) converges in at most two
   pre-copy rounds, lands on the destination with its working set intact,
   and its blackout beats a stop-and-copy of the same pod. *)
let migrate_quiescent_blackout ~max_rounds =
  let cluster = make_cluster ~nodes:2 () in
  let m = Cluster.metrics cluster in
  (* 256 x 256 KB = 64 MB working set: big enough that the image transfer
     and restore dominate the fixed costs, which is where pre-copy pays *)
  let pod =
    launch_hog cluster ~node_idx:0
      ~args:(hog_args ~regions:256 ~size:262_144 ~stride:0 ~period_us:0 ~loops:0)
  in
  Cluster.run_until cluster ~timeout:(Simtime.sec 5.0) (fun () ->
      has_log "dirtyhog ready");
  let r = Cluster.migrate_sync cluster ~pod ~dest_node:1 ?max_rounds:(Some max_rounds) in
  check tbool "migrate ok" true r.Manager.r_ok;
  check tint "pod lives on the destination" 1 (pod_node cluster pod.Pod.pod_id);
  (* working set survived the trip *)
  let pod' = Option.get (Pod.find pod.Pod.pod_id) in
  let mem_total =
    List.fold_left
      (fun acc (_, (p : Proc.t)) -> acc + Zapc_simos.Memory.total p.Proc.mem)
      0 (Pod.members pod')
  in
  check tint "working set intact" (256 * 262_144) mem_total;
  check tint "one migration succeeded" 1 (Zapc_obs.Metrics.counter m "mgr.mig.ok");
  m

let rounds_blackout_forced m =
  (Zapc_obs.Metrics.hist_sum m "mig.rounds",
   Zapc_obs.Metrics.hist_sum m "mig.blackout_ms",
   Zapc_obs.Metrics.counter m "mig.forced_stops")

let test_live_migrate_quiescent () =
  let rounds, blackout_pc, forced =
    rounds_blackout_forced (migrate_quiescent_blackout ~max_rounds:8)
  in
  check tbool "converged in at most 2 rounds" true (rounds >= 1.0 && rounds <= 2.0);
  check tint "no forced stop" 0 forced;
  check tbool "blackout recorded" true (blackout_pc > 0.0);
  (* same pod, same instant, stop-and-copy (round cap 0): the pre-copy
     blackout must be well under it — the full image travels while the pod
     still runs, and the prestaged restore skips the cold-start fixed cost *)
  let rounds0, blackout_sc, _ =
    rounds_blackout_forced (migrate_quiescent_blackout ~max_rounds:0)
  in
  check tbool "cap 0 ships no pre-copy round" true (rounds0 = 0.0);
  check tbool
    (Printf.sprintf "pre-copy blackout (%.1f ms) < 50%% of stop-and-copy (%.1f ms)"
       blackout_pc blackout_sc)
    true
    (blackout_pc < 0.5 *. blackout_sc)

(* A pod dirtying its whole working set faster than the link can ship it
   never converges: the round cap forces the stop-and-copy, the operation
   still succeeds, and the forced stop is visible in the metrics. *)
let migrate_forced_stop () =
  let cluster = make_cluster ~nodes:2 () in
  let m = Cluster.metrics cluster in
  (* 16 x 128 KB = 2 MB, all of it rewritten every ~0.5 ms: a round's copy
     (~17 ms on the Gigabit fabric) always leaves 2 MB dirty again *)
  let pod =
    launch_hog cluster ~node_idx:0
      ~args:(hog_args ~regions:16 ~size:131_072 ~stride:16 ~period_us:500
               ~loops:100_000)
  in
  Cluster.run cluster ~until:(Simtime.ms 20) ();
  let r = Cluster.migrate_sync cluster ~pod ~dest_node:1 ~max_rounds:3 in
  check tbool "migrate ok despite non-convergence" true r.Manager.r_ok;
  check tint "forced stop counted" 1
    (Zapc_obs.Metrics.counter m "mig.forced_stops");
  check tbool "ran exactly the round cap" true
    (Zapc_obs.Metrics.hist_sum m "mig.rounds" = 3.0);
  check tint "pod lives on the destination" 1 (pod_node cluster pod.Pod.pod_id);
  (* bounded blackout: the forced stop-and-copy ships only the residue (one
     round's dirtying), not rounds x the working set *)
  let blackout = Zapc_obs.Metrics.hist_sum m "mig.blackout_ms" in
  check tbool "blackout bounded" true (blackout > 0.0 && blackout < 1000.0);
  m

let test_live_migrate_forced_stop () = ignore (migrate_forced_stop ())

(* Round cap 0 degenerates to today's checkpoint-migrate-restart: no
   pre-copy round is ever sent, the destination pays the full cold-start
   restore, and the pod still arrives correctly. *)
let migrate_cap0 () =
  let cluster = make_cluster ~nodes:2 () in
  let m = Cluster.metrics cluster in
  let tr = Cluster.enable_trace cluster in
  let pod =
    launch_hog cluster ~node_idx:0
      ~args:(hog_args ~regions:8 ~size:65_536 ~stride:0 ~period_us:0 ~loops:0)
  in
  Cluster.run_until cluster ~timeout:(Simtime.sec 5.0) (fun () ->
      has_log "dirtyhog ready");
  let r = Cluster.migrate_sync cluster ~pod ~dest_node:1 ~max_rounds:0 in
  check tbool "migrate ok" true r.Manager.r_ok;
  check tint "no pre-copy round streamed" 0
    (Zapc_obs.Metrics.hist_count m "mig.bytes_per_round");
  check tbool "no mig_round trace event" true
    (not
       (List.exists
          (fun (i : Span.instant) -> String.equal i.in_what "mig_round")
          (Span.instants tr)));
  check tbool "commit reported zero rounds" true
    (Zapc_obs.Metrics.hist_count m "mig.rounds" = 1
     && Zapc_obs.Metrics.hist_sum m "mig.rounds" = 0.0);
  check tint "pod lives on the destination" 1 (pod_node cluster pod.Pod.pod_id);
  m

let test_live_migrate_cap0_degenerates () = ignore (migrate_cap0 ())

(* Both ranks of a connected application live-migrate in one operation,
   under the paper's single synchronization point: each pod goes dark
   exactly once, inside the migrate span, both land on their destinations,
   and the run ends on the checksum of an unmigrated run. *)
let migrate_pod_set () =
  let launch_bt cluster =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  let reference =
    let cluster = make_cluster () in
    ignore (Launch.wait_done cluster (launch_bt cluster));
    match find_log "bt_nas: checksum" with
    | Some l -> l
    | None -> Alcotest.fail "unmigrated run logged no checksum"
  in
  let cluster = make_cluster () in
  let tr = Cluster.enable_trace cluster in
  let app = launch_bt cluster in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let dests = [ 2; 3 ] in
  let items =
    List.map2
      (fun (p : Pod.t) dst ->
        { Manager.ci_node = pod_node cluster p.pod_id; ci_pod = p.pod_id;
          ci_dest = Protocol.U_node dst })
      app.Launch.pods dests
  in
  let result = ref None in
  Manager.migrate_items (Cluster.manager cluster) ~max_rounds:4 ~items
    ~on_done:(fun r -> result := Some r);
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () -> !result <> None);
  check tbool "pod-set migration ok" true (Option.get !result).Manager.r_ok;
  let spans = Zapc_obs.Span.spans (Zapc.Trace.recorder tr) in
  let named n =
    List.filter (fun (sp : Zapc_obs.Span.span) -> String.equal sp.sp_name n) spans
  in
  let m0, m1 =
    match named "migrate" with
    | [ { sp_begin; sp_end = Some e; _ } ] -> (sp_begin, e)
    | _ -> Alcotest.fail "expected one closed migrate span"
  in
  List.iter2
    (fun id dst ->
      (match List.filter (fun (sp : Zapc_obs.Span.span) -> sp.sp_pod = id) (named "blackout") with
       | [ { sp_begin; sp_end = Some e; _ } ] ->
         check tbool "blackout inside the migrate span" true (m0 < sp_begin && e < m1)
       | bs -> Alcotest.failf "pod %d: %d blackout spans" id (List.length bs));
      check tint "pod on its destination" dst (pod_node cluster id))
    (Launch.pod_ids app) dests;
  let ranks = restarted_ranks (Launch.pod_ids app) "bt_nas" in
  Cluster.run_until cluster ~timeout:(Simtime.sec 1200.0) (fun () -> exited ranks);
  check tbool "checksum of the unmigrated run" true (List.mem reference !logged);
  Cluster.metrics cluster

let test_live_migrate_pod_set () = ignore (migrate_pod_set ())

(* A migration's failure paths: losing the destination mid-round fails the
   copy and the pod keeps running at its source; losing it as the restore
   begins fails the restore. *)
let migrate_failures () =
  let cluster = make_cluster () in
  let tr = Cluster.enable_trace cluster in
  let break_at what node =
    let armed = ref true in
    Span.subscribe tr (function
      | Span.Instant i when !armed && String.equal i.in_what what ->
        armed := false;
        Manager.break_channel (Cluster.manager cluster) ~node
      | _ -> ())
  in
  let pod =
    launch_hog cluster ~node_idx:0
      ~args:(hog_args ~regions:16 ~size:131_072 ~stride:16 ~period_us:500
               ~loops:100_000)
  in
  Cluster.run cluster ~until:(Simtime.ms 20) ();
  break_at "mig_round" 1;
  let r = Cluster.migrate_sync cluster ~pod ~dest_node:1 ~max_rounds:3 in
  check tbool "copy fails with its destination" false r.Manager.r_ok;
  check tint "pod still on its source" 0 (pod_node cluster pod.Pod.pod_id);
  break_at "mig_copy_done" 2;
  let r = Cluster.migrate_sync cluster ~pod ~dest_node:2 ~max_rounds:3 in
  check tbool "restore fails with its destination" false r.Manager.r_ok;
  Cluster.metrics cluster

(* The metric catalogue contract: the instruments of one family that a set
   of registries holds equal the names the table rows of
   doc/OBSERVABILITY.md write whole between backquotes, in both
   directions.  A family is the names under [prefixes] and under none of
   [except] (the rows other tests hold). *)
let check_catalogue ?(except = []) ~prefixes registries =
  let under ps name = List.exists (fun p -> String.starts_with ~prefix:p name) ps in
  let ours name = under prefixes name && not (under except name) in
  let registered =
    List.concat_map (fun m -> List.filter ours (Zapc_obs.Metrics.names m)) registries
    |> List.sort_uniq compare
  in
  let doc =
    let path =
      if Sys.file_exists "../doc/OBSERVABILITY.md" then "../doc/OBSERVABILITY.md"
      else "doc/OBSERVABILITY.md"
    in
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (String.starts_with ~prefix:"|")
    |> String.concat "\n"
  in
  let name_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.' in
  let documented = ref [] in
  String.iteri
    (fun i c ->
      if c = '`' then begin
        let j = ref (i + 1) in
        while !j < String.length doc && name_char doc.[!j] do incr j done;
        let name = String.sub doc (i + 1) (!j - i - 1) in
        if !j < String.length doc && doc.[!j] = '`' && ours name then
          documented := name :: !documented
      end)
    doc;
  check (Alcotest.list Alcotest.string) "registered names = documented names"
    (List.sort_uniq compare !documented) registered

(* Every mig.*, mgr.mig.* and agent.mig* instrument the migration tests'
   clusters register. *)
let test_migration_metric_catalogue () =
  check_catalogue ~prefixes:[ "mig."; "mgr.mig."; "agent.mig" ]
    [ migrate_quiescent_blackout ~max_rounds:8; migrate_forced_stop ();
      migrate_cap0 (); migrate_pod_set (); stream_source_lost ();
      migrate_failures () ]

(* A minimal full pod image whose processes carry one value each; enough
   for [Delta.make]/[Delta.apply] to chain. *)
let catalogue_image ~procs =
  Value.assoc
    [ ("pod_id", Value.int 7); ("name", Value.str "cat"); ("vip", Value.int 0);
      ("clock", Value.int 0); ("next_vpid", Value.int 3);
      ("memory_bytes", Value.int 65536); ("sockets", Value.List []);
      ("meta", Value.List []); ("pipes", Value.List []); ("gm_ports", Value.List []);
      ("procs",
       Value.List
         (List.map
            (fun (vpid, x) -> Value.assoc [ ("vpid", Value.int vpid); ("x", Value.int x) ])
            procs)) ]

(* Drive one store through every path that registers a storage.*
   instrument: puts and misses, a write outage, a slot outage and its heal,
   corruption with fallback, a delta chain resolved, then broken, a pinned
   overwrite and remove, and node deaths down to the last copy. *)
let exercise_storage ~backend ~compress =
  let module Storage = Zapc.Storage in
  let module Image = Zapc_ckpt.Image in
  let module Delta = Zapc_ckpt.Delta in
  let metrics = Zapc_obs.Metrics.create () in
  let st =
    Storage.create ~trace:(Zapc.Trace.create ()) ~metrics ~backend ~compress ~nodes:3 (Engine.create ~seed:5 ())
  in
  let base = catalogue_image ~procs:[ (1, 1); (2, 2) ] in
  let full = catalogue_image ~procs:[ (1, 1); (2, 3) ] in
  let put k v = ignore (Storage.put ~node:0 st k (Image.of_pod_image v)) in
  let delta ~base_key = Delta.make ~base_key ~base ~full ~dirty_bytes:4096 in
  put "base" base;
  put "base2" base;
  ignore (Storage.get st "missing");
  Storage.set_fail_writes st (Some "full");
  put "lost" base;
  Storage.set_fail_writes st None;
  Storage.set_replica_fail st ~replica:1 (Some "outage");
  put "d" (delta ~base_key:"base");
  Storage.heal_replicas st;
  ignore (Storage.get st "d");
  ignore (Storage.corrupt st ~replica:0 "base2");
  ignore (Storage.get st "base2");
  put "empty" (catalogue_image ~procs:[]);
  put "broken" (delta ~base_key:"empty");
  ignore (Storage.get st "broken");
  put "base" full;
  Storage.remove st "empty";
  Storage.remove st "broken";
  Storage.remove st "d";
  List.iter (Storage.node_died st) [ 1; 2; 0 ];
  metrics

(* Every storage.* instrument that stores of all three backends, with and
   without compression, register. *)
let test_storage_metric_catalogue () =
  check_catalogue ~prefixes:[ "storage." ]
    (List.concat_map
       (fun backend ->
         List.map (fun compress -> exercise_storage ~backend ~compress) [ false; true ])
       [ Params.Sb_plain; Params.Sb_dedup; Params.Sb_buddy ])

(* Every ckpt.* and netckpt.* instrument that one full and one delta
   checkpoint register is in doc/OBSERVABILITY.md, and vice versa. *)
let test_ckpt_metric_catalogue () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let full = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"cat-full" in
  check tbool "full checkpoint ok" true full.Manager.r_ok;
  Cluster.run cluster ~until:(Simtime.ms 10) ();
  let delta =
    Cluster.snapshot ~incremental:true cluster ~pods:app.Launch.pods
      ~key_prefix:"cat-delta"
  in
  check tbool "delta checkpoint ok" true delta.Manager.r_ok;
  List.iter
    (fun (_, st) -> check tbool "delta write" true (st.Protocol.st_full_bytes > 0))
    delta.Manager.r_stats;
  check_catalogue ~prefixes:[ "ckpt."; "netckpt." ] [ Cluster.metrics cluster ]

(* The Manager's and the Agents' own instruments, the non-migration
   [mgr.*] and [agent.*] rows, on a traced cluster so that every
   successful operation publishes its critical path.  A full and a delta
   checkpoint, then a checkpoint whose pod on node 1 hangs at the continue
   broadcast: that Agent gives up waiting and the Manager's done phase
   times out.  The hang lifts inside the next checkpoint (of the node-0 pod
   alone), so node 1's late failure report lands on an operation that is
   not waiting for it.  Last, a restart that succeeds and one whose target
   node hangs until the Manager aborts it. *)
let mgr_agent_registry () =
  let params = { Params.default with phase_timeout = Simtime.sec 1.0 } in
  let cluster = make_cluster ~params () in
  let tr = Cluster.enable_trace cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 400) ()
  in
  let pod0, pod1 =
    match app.Launch.pods with [ a; b ] -> (a, b) | _ -> assert false
  in
  let hang_at what node hung =
    let armed = ref true in
    Span.subscribe tr (function
      | Span.Instant i when !armed && String.equal i.in_what what ->
        armed := false;
        Cluster.set_hung cluster node hung
      | _ -> ())
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let ok what (r : Manager.op_result) = check tbool what true r.Manager.r_ok in
  ok "full checkpoint" (Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"mgr-full");
  Cluster.run cluster ~until:(Simtime.ms 10) ();
  ok "delta checkpoint"
    (Cluster.snapshot ~incremental:true cluster ~pods:app.Launch.pods ~key_prefix:"mgr-delta");
  hang_at "continue_broadcast" 1 true;
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"mgr-hung" in
  check tbool "hung checkpoint times out" true
    (match r.Manager.r_failure with Some (Protocol.F_timeout _) -> true | _ -> false);
  hang_at "continue_broadcast" 1 false;
  ok "checkpoint of the other pod" (Cluster.snapshot cluster ~pods:[ pod0 ] ~key_prefix:"mgr-one");
  let reg = Cluster.metrics cluster in
  check tbool "the late report counted stale" true
    (Zapc_obs.Metrics.counter reg "mgr.stale_done" > 0);
  (* checkpoint and destroy both pods, living on nodes [n0] and [n1] *)
  let stop key_prefix n0 n1 =
    ok "stopping checkpoint"
      (Cluster.checkpoint_sync cluster ~resume:false
         ~items:(Launch.checkpoint_items app ~key_prefix
                   ~node_of_pod:(fun p -> if p == pod0 then n0 else n1)))
  in
  stop "mgr-stop" 0 1;
  let pod_ids = [ pod0.Pod.pod_id; pod1.Pod.pod_id ] in
  ok "restart" (Cluster.restart_app cluster ~pod_ids ~target_nodes:[ 2; 3 ] ~key_prefix:"mgr-stop");
  stop "mgr-again" 2 3;
  Cluster.set_hung cluster 1 true;
  let r = Cluster.restart_app cluster ~pod_ids ~target_nodes:[ 0; 1 ] ~key_prefix:"mgr-again" in
  check tbool "hung restart fails" false r.Manager.r_ok;
  Cluster.set_hung cluster 1 false;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 50)) ();
  reg

let test_mgr_agent_metric_catalogue () =
  check_catalogue ~prefixes:[ "mgr."; "agent." ]
    ~except:[ "mgr.tree."; "mgr.mig."; "agent.mig" ]
    [ mgr_agent_registry () ]

(* A checkpoint whose pod on node 1 hangs at the continue broadcast times
   out, and node 1's Agent queues its own "timed out waiting for continue"
   failure behind the hang.  The hang lifts as the next checkpoint of both
   pods broadcasts, so that report reaches the Manager while the new
   operation waits on the same pod: it names the earlier operation, so it
   is counted stale and the new checkpoint succeeds. *)
let test_late_done_of_aborted_checkpoint () =
  let params = { Params.default with phase_timeout = Simtime.sec 1.0 } in
  let cluster = make_cluster ~params () in
  let tr = Cluster.enable_trace cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 400) ()
  in
  let hang_at what hung =
    let armed = ref true in
    Span.subscribe tr (function
      | Span.Instant i when !armed && String.equal i.in_what what ->
        armed := false;
        Cluster.set_hung cluster 1 hung
      | _ -> ())
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  hang_at "continue_broadcast" true;
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"late-hung" in
  check tbool "hung checkpoint times out" true
    (match r.Manager.r_failure with Some (Protocol.F_timeout _) -> true | _ -> false);
  hang_at "ckpt_broadcast" false;
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"late-next" in
  check tbool
    (match r.Manager.r_failure with
     | Some f -> "next checkpoint ok, not " ^ Protocol.failure_to_string f
     | None -> "next checkpoint ok")
    true r.Manager.r_ok;
  check tint "the late report counted stale" 1
    (Zapc_obs.Metrics.counter (Cluster.metrics cluster) "mgr.stale_done")

(* Every net.* instrument is in doc/OBSERVABILITY.md, and vice versa: the
   per-cluster fabric, netfilter and TCP gauges plus the counters a
   restore registers.  A fat fabric latency holds the connect storm's
   half-open children on the kv listeners' SYN queues at the suspend, so
   the restore rebuilds them, and re-announces each restored vip. *)
let test_net_metric_catalogue () =
  let module Serve = Zapc_apps.Serve in
  let cfg = { Serve.default_cfg with n_conns = 64; reqs_per_conn = 1 } in
  let t = Serve.setup ~nodes:4 ~seed:16 ~cfg () in
  let cluster = t.Serve.cluster in
  Zapc_simnet.Fabric.set_latency (Cluster.fabric cluster) (Simtime.ms 10);
  Cluster.run cluster ~until:(Simtime.ms 20) ();
  let r =
    Cluster.checkpoint_sync cluster ~items:(Serve.ckpt_items t ~prefix:"netcat")
      ~resume:false
  in
  check tbool "suspend checkpoint ok" true r.Manager.r_ok;
  let r =
    Cluster.restart_app cluster
      ~pod_ids:(List.map (fun (p : Pod.t) -> p.pod_id) t.Serve.servers)
      ~target_nodes:[ 2; 3 ] ~key_prefix:"netcat"
  in
  check tbool "restart ok" true r.Manager.r_ok;
  let m = Cluster.metrics cluster in
  let counter = Zapc_obs.Metrics.counter m in
  check tbool "a SYN-queued child restored" true (counter "net.synq_restored" > 0);
  check tbool "a vip re-announced" true (counter "net.vip_rebound" > 0);
  check_catalogue ~prefixes:[ "net." ] [ m ]

(* Every client.* and serve.* instrument is in doc/OBSERVABILITY.md, and
   vice versa: what [Serve.feed_metrics] registers after a small served
   run. *)
let test_serve_metric_catalogue () =
  let module Serve = Zapc_apps.Serve in
  let cfg = { Serve.default_cfg with n_conns = 32; reqs_per_conn = 2; period = Simtime.ms 20 } in
  let t = Serve.setup ~nodes:4 ~seed:5 ~cfg () in
  Serve.wait_done ~timeout:(Simtime.sec 2.0) t;
  let s = Serve.feed_metrics t in
  check tint "every request completed" (Serve.total_expected t) s.Serve.st_completed;
  check_catalogue ~prefixes:[ "client."; "serve." ] [ Cluster.metrics t.Serve.cluster ]

(* Regression: Periodic and the Supervisor observe a migrated pod's new
   home atomically at the handoff.  An epoch that fires mid-migration is
   skipped (manager busy), the first epoch after the handoff checkpoints
   the pod exactly once on its NEW node, and the supervisor's watch set
   follows the pod. *)
let test_periodic_epoch_mid_migration () =
  let cluster = make_cluster ~nodes:3 () in
  let m = Cluster.metrics cluster in
  (* a working set big enough that the migration spans several epochs *)
  let pod =
    launch_hog cluster ~node_idx:0
      ~args:(hog_args ~regions:64 ~size:262_144 ~stride:4 ~period_us:400
               ~loops:100_000)
  in
  let svc =
    Zapc.Periodic.start cluster ~pods:[ pod ] ~prefix:"mg" ~period:(Simtime.ms 40)
      ~keep:2 ()
  in
  let sup = Zapc.Supervisor.start cluster svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () ->
      Zapc.Periodic.last_good svc >= 1
      && not (Manager.busy (Cluster.manager cluster)));
  check (Alcotest.list tint) "watching the source node" [ 0 ]
    (Zapc.Supervisor.watched sup);
  let skipped_before = Zapc.Periodic.skipped svc in
  let failed_before = Zapc_obs.Metrics.counter m "mgr.ckpt.failed" in
  (* async: the periodic service keeps ticking while the migration runs *)
  let result = ref None in
  Manager.migrate (Cluster.manager cluster) ~pod:pod.Pod.pod_id ~src_node:0
    ~dest_node:1 ~max_rounds:4 ~on_done:(fun r -> result := Some r);
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () -> !result <> None);
  check tbool "migration ok" true (Option.get !result).Manager.r_ok;
  check tbool "mid-migration epochs were skipped, not misplaced" true
    (Zapc.Periodic.skipped svc > skipped_before);
  (match Zapc.Periodic.last_skip_reason svc with
   | Some "manager busy" -> ()
   | Some other -> Alcotest.fail ("unexpected skip reason: " ^ other)
   | None -> Alcotest.fail "skip reason not recorded");
  (* the supervisor's watch set followed the pod at the handoff *)
  check (Alcotest.list tint) "watching the destination node" [ 1 ]
    (Zapc.Supervisor.watched sup);
  (* the next epoch checkpoints the pod exactly once, on the new node *)
  let good = Zapc.Periodic.last_good svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () ->
      Zapc.Periodic.last_good svc > good
      && not (Manager.busy (Cluster.manager cluster)));
  check tint "no epoch targeted the stale source node" failed_before
    (Zapc_obs.Metrics.counter m "mgr.ckpt.failed");
  let epoch = Zapc.Periodic.last_good svc in
  let keys =
    List.filter
      (fun k ->
        let p = Printf.sprintf "mg.e%d." epoch in
        String.length k >= String.length p
        && String.equal (String.sub k 0 (String.length p)) p)
      (Zapc.Storage.keys (Cluster.storage cluster))
  in
  check tint "exactly one image per post-handoff epoch" 1 (List.length keys);
  Zapc.Supervisor.stop sup;
  Zapc.Periodic.stop svc

(* --- supervisor ----------------------------------------------------- *)

(* Fast heartbeats and a short phase timeout, so a detect-recover cycle
   (or a run of failed attempts) takes tens of virtual milliseconds. *)
let sup_params =
  { Params.default with
    phase_timeout = Simtime.ms 400;
    heartbeat_period = Simtime.ms 20;
    heartbeat_misses = 3;
    recover_backoff = Simtime.ms 40;
    recover_backoff_max = Simtime.ms 400;
    recover_retries = 2 }

(* bt on nodes 0 and 1 under a periodic service and a supervisor started
   with no [?trace], on a cluster with the flight recorder on.  Node 1
   crashes while an epoch has its pods suspended, so that epoch fails;
   with [hang], node 2 — the dead pod's recovery target — stalls for good
   at the death declaration, so every recovery attempt times out and the
   supervisor backs off, then gives up. *)
let supervised_crash ?(params = sup_params) ~hang () =
  let module Faultsim = Zapc_faultsim.Faultsim in
  let cluster = make_cluster ~params ~nodes:3 () in
  let fl = Cluster.enable_flight cluster in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 400) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Zapc.Periodic.start cluster ~pods:app.Launch.pods ~prefix:"sup"
      ~period:(Simtime.ms 50) ~keep:2 ()
  in
  let sup = Zapc.Supervisor.start cluster svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Zapc.Periodic.last_good svc >= 1
      && not (Manager.busy (Cluster.manager cluster)));
  if hang then
    Faultsim.install fs
      { fault = Hang_agent { node = 2; duration = None };
        trigger = On_phase { phase = "sup_detect:node1"; pod = None; skip = 0 } };
  Faultsim.install fs
    { fault = Crash_node { node = 1 };
      trigger = On_phase { phase = "suspended"; pod = None; skip = 0 } };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Zapc.Supervisor.recoveries sup >= 1 || Zapc.Supervisor.gave_up sup);
  (cluster, sup, fl)

(* Regression: a supervisor started without [?trace] records into the
   cluster's recorder, so its death declaration trips the flight recorder
   and its recovery episode is a [sup_recover] span. *)
let test_supervisor_default_trace () =
  let cluster, sup, fl = supervised_crash ~hang:false () in
  check tint "recovered" 1 (Zapc.Supervisor.recoveries sup);
  let module Json = Zapc_obs.Json in
  check (Alcotest.option Alcotest.string) "flight dump tripped by the detection"
    (Some "sup_detect:node1")
    (Option.bind (Zapc_obs.Flight.last_dump fl) (fun dump ->
         match Json.parse dump with
         | Ok j -> Option.bind (Json.member "reason" j) Json.to_string_opt
         | Error _ -> None));
  check tbool "closed sup_recover span" true
    (List.exists
       (fun (sp : Span.span) ->
         String.equal sp.sp_name "sup_recover" && sp.sp_end <> None)
       (Span.spans (Cluster.recorder cluster)));
  Zapc.Supervisor.stop sup

(* Every sup.* and periodic.* instrument a supervised run registers — one
   that detects and recovers, one that backs off and gives up — is in the
   catalogue, and vice versa. *)
let test_supervisor_metric_catalogue () =
  let registry ~hang =
    let cluster, sup, _ = supervised_crash ~hang () in
    check tbool "recovered xor gave up" hang (Zapc.Supervisor.gave_up sup);
    Zapc.Supervisor.stop sup;
    Cluster.metrics cluster
  in
  check_catalogue ~prefixes:[ "sup."; "periodic." ]
    [ registry ~hang:false; registry ~hang:true ]

(* ------------------------------------------------------------------ *)
(* Hierarchical coordination (Params.tree_fanout > 0): the control plane
   fans out through a tree of per-node relays instead of N direct
   channels. *)

(* With a zero-cost control plane, command arrival instants are identical
   in both topologies, so the checkpoint captures the same pod state and
   the stored image bytes must match bit-for-bit. *)
let test_tree_snapshot_byte_identical () =
  let run fanout =
    let params =
      { Params.default with
        Params.ctrl_latency = Simtime.zero; ctrl_bps = 1e18;
        cost_jitter = 0.0; tree_fanout = fanout }
    in
    let cluster = make_cluster ~params ~nodes:6 () in
    let app =
      Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1; 2; 3 ]
        ~app_args:(bt_args 96 30) ()
    in
    Cluster.run cluster ~until:(Simtime.ms 5) ();
    let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"tf" in
    check tbool "snapshot ok" true r.Manager.r_ok;
    List.map
      (fun id ->
        Zapc_codec.Wire.encode
          (Option.get
             (Zapc.Storage.get (Cluster.storage cluster)
                (Printf.sprintf "tf.pod%d" id))))
      (Launch.pod_ids app)
  in
  let flat = run 0 in
  let tree = run 2 in
  check tint "same pod count" (List.length flat) (List.length tree);
  List.iteri
    (fun i (a, b) ->
      check tbool (Printf.sprintf "pod %d image bytes identical" i) true
        (String.equal a b))
    (List.combine flat tree)

(* End-to-end through a depth-3 tree with real latencies and the serial
   per-message cost model on: snapshot over the tree, restart on different
   nodes, bit-identical result — and the traffic demonstrably flowed as
   batches through the relays. *)
let run_tree_checkpoint_restart () =
  let params =
    { Params.default with
      Params.tree_fanout = 2; ctrl_proc = Simtime.us 5; cost_jitter = 0.0 }
  in
  let cluster = make_cluster ~params ~nodes:9 () in
  let m = Cluster.metrics cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 2; 5; 7; 8 ]
      ~app_args:(bt_args 96 30) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"tr" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  check tint "four stats" 4 (List.length r.Manager.r_stats);
  check tbool "commands left the root as batches" true
    (Zapc_obs.Metrics.counter m "mgr.tree.down_batches" > 0);
  check tbool "reports arrived aggregated" true
    (Zapc_obs.Metrics.counter m "mgr.tree.up_batches" > 0);
  check tbool "relays aggregated subtree reports" true
    (Zapc_obs.Metrics.counter m "relay.up_batches" > 0);
  ignore (Launch.wait_done cluster app);
  let reference = Option.get (find_log "bt_nas: checksum") in
  logged := [];
  let rr =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app)
      ~target_nodes:[ 0; 1; 3; 4 ] ~key_prefix:"tr"
  in
  check tbool "restart ok" true rr.Manager.r_ok;
  let ranks = restarted_ranks (Launch.pod_ids app) "bt_nas" in
  check tint "all ranks restored" 4 (List.length ranks);
  Cluster.run_until cluster ~timeout:(Simtime.sec 1200.0) (fun () -> exited ranks);
  check tbool "same checksum" true (List.mem reference !logged);
  m

let test_tree_checkpoint_restart () = ignore (run_tree_checkpoint_restart ())

(* Severing a mid-tree relay's uplink during a checkpoint orphans its whole
   subtree: the cascade must abort the deep agents too (their pods resume),
   the root sees the failure, and the application completes untouched.
   Fanout 2 over 7 nodes puts nodes 4 and 5 two hops down under node 1. *)
let run_tree_subtree_break () =
  let params =
    { Params.default with
      Params.tree_fanout = 2; phase_timeout = Simtime.ms 200; cost_jitter = 0.0 }
  in
  let cluster = make_cluster ~params ~nodes:7 () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 4; 5 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let result = ref None in
  let items =
    List.map
      (fun (p : Pod.t) ->
        { Manager.ci_node =
            (match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) p.rip with
             | Some n -> n
             | None -> -1);
          ci_pod = p.pod_id; ci_dest = Protocol.U_storage "doomed" })
      app.Launch.pods
  in
  Manager.checkpoint (Cluster.manager cluster) ~items ~resume:true
    ~on_done:(fun r -> result := Some r);
  Engine.schedule (Cluster.engine cluster) ~delay:(Simtime.ms 20) (fun () ->
      Manager.break_channel (Cluster.manager cluster) ~node:1);
  Cluster.run_until cluster (fun () -> !result <> None);
  check tbool "operation failed" true (not (Option.get !result).Manager.r_ok);
  (* no orphaned frozen pods: everything below the severed hop resumed *)
  ignore (Launch.wait_done cluster app);
  check tbool "app completed after subtree abort" true (has_log "bt_nas: checksum");
  Cluster.metrics cluster

let test_tree_subtree_break_aborts () = ignore (run_tree_subtree_break ())

(* The flat star re-forms after a death like any tree: survivors get fresh
   uplinks, and a command still in flight on an abandoned uplink never
   reaches its Agent. *)
let test_flat_reform_drops_stale_edge () =
  let cluster = make_cluster ~nodes:3 () in
  let mgr = Cluster.manager cluster in
  let pongs = ref [] in
  Manager.set_on_pong mgr (fun ~node ~seq -> pongs := (node, seq) :: !pongs);
  let old_edge = Option.get (Manager.agent_channel mgr ~node:2) in
  Cluster.mark_node_dead cluster 1;
  Cluster.reform_tree cluster;
  check tbool "node 2 has a fresh uplink" true
    (Manager.agent_channel mgr ~node:2 != Some old_edge);
  check tbool "the dead node left the tree" true (Manager.agent_channel mgr ~node:1 = None);
  Zapc.Control.send_down old_edge ~bytes:16 (Protocol.A_ping { seq = 1 });
  Manager.ping mgr ~node:2 ~seq:2;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 1)) ();
  check (Alcotest.list (Alcotest.pair tint tint)) "only the current uplink answers"
    [ (2, 2) ] !pongs;
  check tbool "still a depth-1 tree" true
    (Zapc_obs.Metrics.gauge (Cluster.metrics cluster) "mgr.tree.depth" = 0.0
     && Zapc_obs.Metrics.gauge (Cluster.metrics cluster) "mgr.tree.nodes" = 2.0)

(* A relay handed a command for a node outside its subtree counts a
   misroute and drops it. *)
let relay_misroute () =
  let cluster = make_cluster ~nodes:2 () in
  let m = Cluster.metrics cluster in
  let params = Cluster.params cluster in
  let uplink =
    Zapc.Control.create ~engine:(Cluster.engine cluster)
      ~latency:params.Params.ctrl_latency ~bps:params.Params.ctrl_bps
  in
  ignore
    (Zapc.Relay.create ~engine:(Cluster.engine cluster) ~params ~metrics:m
       ~agent:(Cluster.node cluster 1).Cluster.n_agent ~node:1 ~parent:uplink
       ~children:[] ~routes:[]);
  Zapc.Control.send_down uplink ~bytes:32
    (Protocol.A_batch [ (7, Protocol.A_ping { seq = 1 }) ]);
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 1)) ();
  check tint "one misroute" 1 (Zapc_obs.Metrics.counter m "relay.misroutes");
  m

(* A chain (fanout 1 over 3 nodes): node 1 crashes under node 0's relay,
   which reports the broken edge up; the supervisor re-forms the tree
   over nodes 0 and 2 before recovering. *)
let tree_supervised_reform () =
  let cluster, sup, _ =
    supervised_crash ~params:{ sup_params with Params.tree_fanout = 1 } ~hang:false ()
  in
  check tint "recovered" 1 (Zapc.Supervisor.recoveries sup);
  check tbool "re-formed over the survivors" true
    (Zapc_obs.Metrics.gauge (Cluster.metrics cluster) "mgr.tree.nodes" = 2.0);
  Zapc.Supervisor.stop sup;
  Cluster.metrics cluster

(* Every mgr.tree.* and relay.* instrument the tree runs register is in
   doc/OBSERVABILITY.md, and vice versa. *)
let test_tree_metric_catalogue () =
  check_catalogue ~prefixes:[ "mgr.tree."; "relay." ]
    [ run_tree_checkpoint_restart (); run_tree_subtree_break ();
      tree_supervised_reform (); relay_misroute () ]

(* A node hands out 245 real addresses, 172.16.<node>.11 to .255, each
   once; a 246th would land in the next node's subnet, so it raises. *)
let test_rip_exhaustion () =
  let cluster = make_cluster ~nodes:2 () in
  let pods = List.init 245 (fun _ -> Cluster.create_pod cluster ~node_idx:0 ~name:"rip") in
  let rips = List.sort_uniq compare (List.map (fun (p : Pod.t) -> p.rip) pods) in
  check tint "245 distinct rips" 245 (List.length rips);
  check tbool "all on node 0's subnet" true
    (List.for_all (fun r -> r land lnot 0xff = Addr.make_ip 172 16 0 0) rips);
  check tbool "the next one raises" true
    (match Cluster.create_pod cluster ~node_idx:0 ~name:"rip" with
     | _ -> false
     | exception Invalid_argument _ -> true);
  List.iter Pod.destroy pods

(* Gratuitous ARP at fleet scale: 32 linked pods plus a client pod that is
   not restored.  After the 32 restart one node over, every live
   namespace — the client's included — resolves each restored vip to its
   new rip and back, and forgets the old rip. *)
let test_restart_rebinds_every_namespace () =
  let n = 32 in
  let cluster = make_cluster ~nodes:(n + 1) () in
  let pods =
    List.init n (fun i ->
        Cluster.create_pod cluster ~node_idx:i ~name:(Printf.sprintf "idle%d" i))
  in
  let client = Cluster.create_pod cluster ~node_idx:n ~name:"client" in
  Cluster.link_pods (client :: pods);
  List.iter
    (fun pod ->
      ignore
        (Pod.spawn pod ~program:"test.dirtyhog"
           ~args:(hog_args ~regions:1 ~size:4096 ~stride:0 ~period_us:0 ~loops:0)))
    (client :: pods);
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods ~key_prefix:"arp" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  let ids = List.map (fun (p : Pod.t) -> p.pod_id) pods in
  let old_rips = List.map (fun (p : Pod.t) -> p.rip) pods in
  List.iter Pod.destroy pods;
  let rr =
    Cluster.restart_app cluster ~pod_ids:ids
      ~target_nodes:(List.init n (fun i -> (i + 1) mod n))
      ~key_prefix:"arp"
  in
  check tbool "restart ok" true rr.Manager.r_ok;
  check tint "one rebind per restored pod" n
    (Zapc_obs.Metrics.counter (Cluster.metrics cluster) "net.vip_rebound");
  let restored = List.map (fun id -> Option.get (Pod.find id)) ids in
  List.iter
    (fun (owner : Pod.t) ->
      List.iter2
        (fun (q : Pod.t) old_rip ->
          let where = Printf.sprintf "%s's view of %s" owner.name q.name in
          check tbool (where ^ ": moved") false (Addr.equal_ip q.rip old_rip);
          check tbool (where ^ ": vip -> new rip") true
            (Addr.equal_ip (Namespace.rip_of_vip owner.ns q.vip) q.rip);
          check tbool (where ^ ": new rip -> vip") true
            (Addr.equal_ip (Namespace.vip_of_rip owner.ns q.rip) q.vip);
          check tbool (where ^ ": old rip forgotten") true
            (Addr.equal_ip (Namespace.vip_of_rip owner.ns old_rip) old_rip))
        restored old_rips)
    (client :: restored)

let () =
  Alcotest.run "zapc"
    [ ( "coordinated",
        [ Alcotest.test_case "snapshot then continue" `Quick test_snapshot_then_continue;
          Alcotest.test_case "restart elsewhere, same result" `Quick
            test_restart_on_other_nodes_same_result;
          Alcotest.test_case "migration streaming" `Quick test_migration_streaming;
          Alcotest.test_case "ring topology restart" `Quick test_ring_restart;
          Alcotest.test_case "udp across checkpoint" `Quick test_udp_across_checkpoint;
          Alcotest.test_case "dual-cpu, two pods per node" `Quick
            test_two_pods_per_node_dual_cpu;
          Alcotest.test_case "double restart chain" `Quick test_double_restart_chain;
          Alcotest.test_case "restart with packet loss" `Quick
            test_restart_with_packet_loss;
          Alcotest.test_case "alarm + clock across restart" `Quick
            test_alarm_and_clock_across_restart;
          Alcotest.test_case "periodic service + recovery" `Quick
            test_periodic_service_recovery;
          Alcotest.test_case "periodic: recover without snapshot" `Quick
            test_periodic_recover_without_snapshot;
          Alcotest.test_case "periodic: skips while busy" `Quick
            test_periodic_skips_while_busy;
          Alcotest.test_case "periodic: skips unresolvable pod" `Quick
            test_periodic_skips_unresolvable_pod;
          Alcotest.test_case "incremental snapshot + restart" `Quick
            test_incremental_snapshot_and_restart;
          Alcotest.test_case "delta chain cap forces full" `Quick
            test_delta_chain_cap_forces_full;
          Alcotest.test_case "periodic: prunes to keep" `Quick
            test_periodic_prunes_to_keep;
          Alcotest.test_case "live migrate: quiescent converges" `Quick
            test_live_migrate_quiescent;
          Alcotest.test_case "live migrate: forced stop" `Quick
            test_live_migrate_forced_stop;
          Alcotest.test_case "live migrate: cap 0 degenerates" `Quick
            test_live_migrate_cap0_degenerates;
          Alcotest.test_case "live migrate: pod set" `Quick test_live_migrate_pod_set;
          Alcotest.test_case "live migrate: metric catalogue" `Quick
            test_migration_metric_catalogue;
          Alcotest.test_case "periodic epoch mid-migration" `Quick
            test_periodic_epoch_mid_migration;
          Alcotest.test_case "gm (kernel-bypass) migration" `Quick
            test_gm_checkpoint_migration;
          Alcotest.test_case "N-to-M consolidation" `Quick test_n_to_m_consolidation;
          Alcotest.test_case "stream to unreachable keeps source" `Quick
            test_stream_to_unreachable_keeps_source;
          Alcotest.test_case "restart without streamed image" `Quick
            test_restart_without_streamed_image;
          Alcotest.test_case "restart with a queued orphan" `Quick
            test_restart_queued_orphan;
          Alcotest.test_case "a new cluster starts with an empty registry" `Quick
            test_new_cluster_empty_registry;
          Alcotest.test_case "stream skips compression" `Quick
            test_stream_skips_compression;
          Alcotest.test_case "stream source lost after commit" `Quick
            test_stream_source_lost;
          Alcotest.test_case "restart rebinds every namespace" `Quick
            test_restart_rebinds_every_namespace;
          Alcotest.test_case "a node's real addresses run out" `Quick test_rip_exhaustion;
          Alcotest.test_case "storage metric catalogue" `Quick
            test_storage_metric_catalogue;
          Alcotest.test_case "checkpoint metric catalogue" `Quick
            test_ckpt_metric_catalogue;
          Alcotest.test_case "net metric catalogue" `Quick
            test_net_metric_catalogue;
          Alcotest.test_case "serve metric catalogue" `Quick
            test_serve_metric_catalogue;
          Alcotest.test_case "supervisor: default trace" `Quick
            test_supervisor_default_trace;
          Alcotest.test_case "supervisor metric catalogue" `Quick
            test_supervisor_metric_catalogue;
          Alcotest.test_case "manager and agent metric catalogue" `Quick
            test_mgr_agent_metric_catalogue ] );
      ( "protocol",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "timing structure" `Quick test_checkpoint_timing_structure;
          Alcotest.test_case "figure-2 timeline" `Quick test_figure2_timeline;
          Alcotest.test_case "figure-2 from rendered timeline" `Quick
            test_rendered_timeline;
          Alcotest.test_case "serial ablation" `Quick test_serial_ablation_slower;
          Alcotest.test_case "agent failure aborts gracefully" `Quick
            test_manager_failure_aborts;
          Alcotest.test_case "checkpoint completes" `Quick
            test_checkpoint_completes_without_failure;
          Alcotest.test_case "control channel break" `Quick test_agent_channel_break;
          Alcotest.test_case "missing image fails cleanly" `Quick
            test_restart_missing_image_fails_cleanly;
          Alcotest.test_case "late done of an aborted checkpoint is stale" `Quick
            test_late_done_of_aborted_checkpoint ] );
      ( "tree",
        [ Alcotest.test_case "tree vs flat: byte-identical snapshot" `Quick
            test_tree_snapshot_byte_identical;
          Alcotest.test_case "checkpoint + restart through the tree" `Quick
            test_tree_checkpoint_restart;
          Alcotest.test_case "mid-tree break aborts the subtree" `Quick
            test_tree_subtree_break_aborts;
          Alcotest.test_case "flat re-form drops stale-edge commands" `Quick
            test_flat_reform_drops_stale_edge;
          Alcotest.test_case "tree metric catalogue" `Quick test_tree_metric_catalogue ] ) ]

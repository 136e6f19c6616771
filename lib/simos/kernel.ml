(* The per-node simulated kernel: process table, multi-CPU round-robin
   scheduler, signal delivery, and the system-call executor that bridges
   programs to the network stack, pipes, timers and memory accounting. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Rng = Zapc_sim.Rng
module Addr = Zapc_simnet.Addr
module Socket = Zapc_simnet.Socket
module Sockopt = Zapc_simnet.Sockopt
module Errno = Zapc_simnet.Errno
module Netstack = Zapc_simnet.Netstack
module Tcp = Zapc_simnet.Tcp
module Fabric = Zapc_simnet.Fabric

type t = {
  node_id : int;
  hostname : string;
  engine : Engine.t;
  net : Netstack.t;
  config : Kconfig.t;
  procs : (int, Proc.t) Hashtbl.t;
  runq : Proc.t Queue.t;
  mutable idle_cpus : int;
  cpus : int;
  mutable next_pid : int;
  mutable next_pipe_id : int;
  sock_refs : (int, int) Hashtbl.t;  (* socket id -> fd reference count *)
  rng : Rng.t;
  gm : Zapc_simnet.Gmdev.t;  (* kernel-bypass messaging device *)
  mutable fs : Simfs.t;  (* shared across nodes (SAN), see Cluster *)
  mutable on_log : t -> Proc.t -> string -> unit;
  mutable exited : int;
}

let create ?(config = Kconfig.default) ?(cpus = 1) ?(hostname = "node") ~node_id fabric =
  let engine = Fabric.engine fabric in
  let k = {
    node_id;
    hostname;
    engine;
    net = Netstack.create ~node:node_id fabric;
    config;
    procs = Hashtbl.create 32;
    runq = Queue.create ();
    idle_cpus = cpus;
    cpus;
    next_pid = 100 * (node_id + 1);
    next_pipe_id = 1;
    sock_refs = Hashtbl.create 32;
    rng = Rng.split (Engine.rng engine);
    gm = Zapc_simnet.Gmdev.create ~node:node_id;
    fs = Simfs.create ();
    on_log = (fun _ _ _ -> ());
    exited = 0;
  }
  in
  (* wire the kernel-bypass device to the node's wire and demux *)
  Zapc_simnet.Gmdev.set_tx k.gm (fun p -> Netstack.send_packet k.net p);
  Netstack.set_gm_handler k.net (fun p data -> Zapc_simnet.Gmdev.on_packet k.gm p data);
  k

let engine k = k.engine
let netstack k = k.net
let now k = Engine.now k.engine
let find_proc k pid = Hashtbl.find_opt k.procs pid
let processes k = Hashtbl.fold (fun _ p acc -> p :: acc) k.procs []
let set_logger k fn = k.on_log <- fn
let set_fs k fs = k.fs <- fs
let fs k = k.fs
let gm k = k.gm

(* Pipe ids are node-unique handles; restore paths must draw from the same
   counter as Syscall.Pipe or a restored pod's pipes could collide with a
   live (or later-created) pipe on the destination node. *)
let alloc_pipe_id k =
  let id = k.next_pipe_id in
  k.next_pipe_id <- k.next_pipe_id + 1;
  id

(* --- socket fd reference counting --- *)

let ref_socket k (s : Socket.t) =
  let c = match Hashtbl.find_opt k.sock_refs s.id with Some c -> c | None -> 0 in
  Hashtbl.replace k.sock_refs s.id (c + 1)

let unref_socket k (s : Socket.t) =
  match Hashtbl.find_opt k.sock_refs s.id with
  | None -> ()
  | Some c when c <= 1 ->
    Hashtbl.remove k.sock_refs s.id;
    Netstack.close k.net s
  | Some c -> Hashtbl.replace k.sock_refs s.id (c - 1)

(* --- scheduler --- *)

let rec enqueue k (p : Proc.t) =
  if (not p.in_runq) && p.rstate = Proc.Ready then begin
    p.in_runq <- true;
    Queue.add p k.runq;
    kick k
  end

and kick k =
  if k.idle_cpus > 0 && not (Queue.is_empty k.runq) then begin
    let p = Queue.pop k.runq in
    p.in_runq <- false;
    if p.rstate = Proc.Ready then begin
      k.idle_cpus <- k.idle_cpus - 1;
      p.rstate <- Proc.Running;
      Engine.schedule k.engine ~label:"os.dispatch" ~delay:k.config.context_switch
        (fun () -> dispatch k p)
    end
    else kick k (* stale entry: stopped or killed while queued *)
  end

and release_cpu k =
  k.idle_cpus <- k.idle_cpus + 1;
  kick k

(* Executed at the end of a Running episode (compute slice or syscall). *)
and yield k (p : Proc.t) =
  match p.rstate with
  | Proc.Running ->
    p.rstate <- Proc.Ready;
    release_cpu k;
    enqueue k p
  | Proc.Stopped ->
    (* stopped mid-episode: this was the event SIGCONT would have waited
       for, so a later SIGCONT must enqueue the process again *)
    if p.stopped_from = Proc.Running then p.stopped_from <- Proc.Ready;
    release_cpu k
  | Proc.Zombie | Proc.Ready | Proc.Blocked -> release_cpu k

and dispatch k (p : Proc.t) =
  if p.rstate <> Proc.Running then yield k p
  else
    match p.pending_compute with
    | Some remaining -> run_slice k p remaining
    | None ->
      (match p.pending_sys with
       | Some sc -> run_syscall k p sc
       | None ->
         let action = Program.step_instance p.inst p.next_outcome in
         (match action with
          | Program.Compute t ->
            let t = Simtime.ns (int_of_float (float_of_int t /. k.config.cpu_scale)) in
            let t = Stdlib.max 1 t in
            run_slice k p t
          | Program.Sys sc -> run_syscall k p sc
          | Program.Exit code ->
            terminate k p code;
            release_cpu k))

and run_slice k (p : Proc.t) remaining =
  let slice = min remaining k.config.quantum in
  Engine.schedule k.engine ~label:"os.slice" ~delay:slice (fun () ->
      p.cpu_time <- Simtime.add p.cpu_time slice;
      let left = Simtime.sub remaining slice in
      if left > 0 then p.pending_compute <- Some left
      else begin
        p.pending_compute <- None;
        p.next_outcome <- Syscall.Done_compute
      end;
      yield k p)

and run_syscall k (p : Proc.t) sc_orig =
  let sc =
    match p.filter with Some f -> f.f_pre p sc_orig | None -> sc_orig
  in
  let result, extra = exec k p sc in
  match result with
  | `Complete out ->
    let out = match p.filter with Some f -> f.f_post p sc_orig out | None -> out in
    p.pending_sys <- None;
    p.block_deadline <- None;
    p.next_outcome <- out;
    let cost = Simtime.add k.config.syscall_cost extra in
    let cost =
      (* the pod virtualization layer interposes on every system call; its
         (small) cost is what the paper's Figure 5 measures *)
      match p.filter with
      | Some _ -> Simtime.add cost k.config.virt_overhead
      | None -> cost
    in
    p.cpu_time <- Simtime.add p.cpu_time cost;
    Engine.schedule k.engine ~label:"os.syscall" ~delay:cost (fun () -> yield k p)
  | `Block register ->
    p.pending_sys <- Some sc_orig;
    p.rstate <- Proc.Blocked;
    register p.waker;
    release_cpu k

and wake_proc k (p : Proc.t) =
  match p.rstate with
  | Proc.Blocked ->
    p.rstate <- Proc.Ready;
    enqueue k p
  | Proc.Stopped -> if p.stopped_from = Proc.Blocked then p.retry_after_cont <- true
  | Proc.Ready | Proc.Running | Proc.Zombie -> ()

(* --- signals --- *)

and signal_proc k (p : Proc.t) (sg : Signal.t) =
  match sg with
  | Signal.Sigkill -> terminate k p 137
  | Signal.Sigterm -> terminate k p 143
  | Signal.Sigstop ->
    (match p.rstate with
     | Proc.Stopped | Proc.Zombie -> ()
     | (Proc.Ready | Proc.Running | Proc.Blocked) as from ->
       p.stopped_from <- from;
       p.rstate <- Proc.Stopped)
  | Signal.Sigcont ->
    (match p.rstate with
     | Proc.Stopped ->
       if p.stopped_from = Proc.Blocked && not p.retry_after_cont then
         p.rstate <- Proc.Blocked
       else if p.stopped_from = Proc.Running then
         (* the slice or syscall event that holds its CPU is still pending
            and releases the CPU as usual; enqueuing it would let a second
            CPU dispatch it again *)
         p.rstate <- Proc.Running
       else begin
         p.rstate <- Proc.Ready;
         enqueue k p
       end;
       p.retry_after_cont <- false
     | Proc.Ready | Proc.Running | Proc.Blocked | Proc.Zombie -> ())
  | Signal.Sigusr1 | Signal.Sigusr2 -> ()

and terminate k (p : Proc.t) code =
  if Proc.is_alive p then begin
    (* close all descriptors *)
    let entries = Fdtable.fold p.fds (fun fd e acc -> (fd, e) :: acc) [] in
    List.iter
      (fun (fd, e) ->
        Fdtable.remove p.fds fd;
        match e with
        | Fdtable.Fsock s -> unref_socket k s
        | Fdtable.Fpipe_r pi -> Pipe.close_read pi
        | Fdtable.Fpipe_w pi -> Pipe.close_write pi
        | Fdtable.Fgm port -> Zapc_simnet.Gmdev.close_port k.gm port)
      entries;
    p.pollset <- None;  (* it would keep the closed sockets alive *)
    p.exit_code <- Some code;
    p.exit_time <- Some (now k);
    p.rstate <- Proc.Zombie;
    k.exited <- k.exited + 1;
    let watchers = p.exit_watchers in
    p.exit_watchers <- [];
    List.iter (fun w -> w code) watchers
  end

(* --- process creation --- *)

and alloc_pid k =
  let pid = k.next_pid in
  k.next_pid <- k.next_pid + 1;
  pid

and create_proc k inst =
  let p = Proc.create ~pid:(alloc_pid k) inst in
  p.waker <-
    (fun qid ->
      (match p.pollset with Some ps -> Pollset.note ps qid | None -> ());
      wake_proc k p);
  Hashtbl.replace k.procs p.pid p;
  p

and spawn k ~program ~args =
  let p = create_proc k (Program.spawn program args) in
  enqueue k p;
  p

(* --- the system-call executor --- *)

and exec k (p : Proc.t) (sc : Syscall.t) :
  [ `Complete of Syscall.outcome | `Block of (int -> unit) -> unit ] * Simtime.t =
  let ok r = (`Complete (Syscall.Ret r), Simtime.zero) in
  let err e = (`Complete (Syscall.Err e), Simtime.zero) in
  let block register = (`Block register, Simtime.zero) in
  let with_sock fd f =
    match Fdtable.find p.fds fd with
    | Some (Fdtable.Fsock s) -> f s
    | Some (Fdtable.Fpipe_r _ | Fdtable.Fpipe_w _ | Fdtable.Fgm _) -> err Errno.ENOTSOCK
    | None -> err Errno.EBADF
  in
  let nonblocking (s : Socket.t) flags =
    Socket.nonblocking s || flags.Socket.dontwait
  in
  match sc with
  | Syscall.Getpid -> ok (Syscall.Rint p.pid)
  | Syscall.Clock_gettime -> ok (Syscall.Rtime (now k))
  | Syscall.Log m ->
    k.on_log k p m;
    ok Syscall.Rnone
  | Syscall.Fs_put (path, data) ->
    Simfs.put k.fs path data;
    ok Syscall.Rnone
  | Syscall.Fs_append (path, data) ->
    Simfs.append k.fs path data;
    ok Syscall.Rnone
  | Syscall.Fs_get path ->
    (match Simfs.get k.fs path with
     | Some data -> ok (Syscall.Rdata data)
     | None -> err Errno.ENOENT)
  | Syscall.Fs_del path ->
    Simfs.remove k.fs path;
    ok Syscall.Rnone
  | Syscall.Fs_list prefix -> ok (Syscall.Rnames (Simfs.list k.fs prefix))
  | Syscall.Gm_open a ->
    let ip =
      if Addr.equal_ip a.Addr.ip Addr.any then
        match Netstack.default_ip k.net with Some ip -> ip | None -> Addr.any
      else a.Addr.ip
    in
    (match Zapc_simnet.Gmdev.open_port k.gm ~ip ~port:a.Addr.port with
     | Ok port ->
       let fd = Fdtable.add p.fds (Fdtable.Fgm port) in
       ok (Syscall.Rint fd)
     | Error e -> err e)
  | Syscall.Gm_send (fd, dst, data) ->
    (match Fdtable.find p.fds fd with
     | Some (Fdtable.Fgm port) ->
       if String.length data > 65000 then err Errno.EMSGSIZE
       else (
         match Zapc_simnet.Gmdev.send k.gm port dst data with
         | Ok () -> ok (Syscall.Rint (String.length data))
         | Error e -> err e)
     | Some _ -> err Errno.EBADF
     | None -> err Errno.EBADF)
  | Syscall.Gm_recv fd ->
    (match Fdtable.find p.fds fd with
     | Some (Fdtable.Fgm port) ->
       (match Zapc_simnet.Gmdev.recv port with
        | Zapc_simnet.Gmdev.Gdata (src, payload) -> ok (Syscall.Rfrom (src, payload))
        | Zapc_simnet.Gmdev.Gclosed -> err Errno.EBADF
        | Zapc_simnet.Gmdev.Gblock ->
          block (fun waiter -> Zapc_simnet.Gmdev.wait_readable port waiter))
     | Some _ -> err Errno.EBADF
     | None -> err Errno.EBADF)
  | Syscall.Nanosleep d ->
    (match p.block_deadline with
     | Some deadline when Simtime.compare (now k) deadline >= 0 -> ok Syscall.Rnone
     | Some deadline ->
       block (fun waiter ->
           Engine.schedule_at k.engine ~label:"os.sleep" ~at:deadline
             (fun () -> waiter Zapc_simnet.Waitq.no_id))
     | None ->
       if Simtime.compare d Simtime.zero <= 0 then ok Syscall.Rnone
       else begin
         let deadline = Simtime.add (now k) d in
         p.block_deadline <- Some deadline;
         block (fun waiter ->
             Engine.schedule_at k.engine ~label:"os.sleep" ~at:deadline
             (fun () -> waiter Zapc_simnet.Waitq.no_id))
       end)
  | Syscall.Alarm_set d ->
    p.alarm_deadline <- Some (Simtime.add (now k) d);
    ok Syscall.Rnone
  | Syscall.Alarm_cancel ->
    p.alarm_deadline <- None;
    ok Syscall.Rnone
  | Syscall.Alarm_remaining ->
    (match p.alarm_deadline with
     | None -> ok (Syscall.Rtime (-1))
     | Some d -> ok (Syscall.Rtime (Stdlib.max 0 (Simtime.sub d (now k)))))
  | Syscall.Mem_alloc (name, size) ->
    Memory.alloc p.mem name size;
    ok Syscall.Rnone
  | Syscall.Mem_free name ->
    Memory.free p.mem name;
    ok Syscall.Rnone
  | Syscall.Spawn (program, args) ->
    (match Program.lookup program with
     | None -> err Errno.ENOENT
     | Some _ ->
       let child = create_proc k (Program.spawn program args) in
       child.fds <- Fdtable.copy p.fds;
       Fdtable.iter child.fds (fun _ e ->
           match e with
           | Fdtable.Fsock s -> ref_socket k s
           | Fdtable.Fpipe_r _ | Fdtable.Fpipe_w _ | Fdtable.Fgm _ -> ());
       (match p.filter with Some f -> f.f_spawn_child p child | None -> ());
       enqueue k child;
       (`Complete (Syscall.Ret (Syscall.Rint child.pid)), k.config.spawn_cost))
  | Syscall.Kill (pid, sg) ->
    (match find_proc k pid with
     | None -> err Errno.ESRCH
     | Some target ->
       signal_proc k target sg;
       (`Complete (Syscall.Ret Syscall.Rnone), k.config.signal_cost))
  | Syscall.Waitpid pid ->
    (match find_proc k pid with
     | None -> err Errno.ECHILD
     | Some target ->
       (match target.exit_code with
        | Some code ->
          Hashtbl.remove k.procs pid;
          ok (Syscall.Rint code)
        | None ->
          block (fun waiter ->
              target.exit_watchers <-
                (fun _ -> waiter Zapc_simnet.Waitq.no_id) :: target.exit_watchers)))
  | Syscall.Pipe ->
    let pi = Pipe.create ~id:(alloc_pipe_id k) in
    let rfd = Fdtable.add p.fds (Fdtable.Fpipe_r pi) in
    let wfd = Fdtable.add p.fds (Fdtable.Fpipe_w pi) in
    ok (Syscall.Rpair (rfd, wfd))
  | Syscall.Sock_create kind ->
    let s = Netstack.new_socket k.net kind in
    let fd = Fdtable.add p.fds (Fdtable.Fsock s) in
    ref_socket k s;
    ok (Syscall.Rint fd)
  | Syscall.Bind (fd, addr) ->
    with_sock fd (fun s ->
        match Netstack.bind k.net s addr with
        | Ok () -> ok Syscall.Rnone
        | Error e -> err e)
  | Syscall.Listen (fd, backlog) ->
    with_sock fd (fun s ->
        match Netstack.listen k.net s backlog with
        | Ok () -> ok Syscall.Rnone
        | Error e -> err e)
  | Syscall.Connect (fd, dst) ->
    with_sock fd (fun s ->
        match s.kind with
        | Socket.Dgram | Socket.Raw _ ->
          (match Netstack.connect_start k.net s dst with
           | Ok () -> ok Syscall.Rnone
           | Error e -> err e)
        | Socket.Stream ->
          (match s.tcb with
           | None ->
             (match Netstack.connect_start k.net s dst with
              | Error e -> err e
              | Ok () ->
                if Socket.nonblocking s then err Errno.EAGAIN
                else block (fun waiter -> Socket.wait_writable s waiter))
           | Some tcb ->
             (match tcb.st with
              | Socket.St_established -> ok Syscall.Rnone
              | Socket.St_syn_sent | Socket.St_syn_received ->
                if Socket.nonblocking s then err Errno.EAGAIN
                else block (fun waiter -> Socket.wait_writable s waiter)
              | Socket.St_closed ->
                (match s.err with
                 | Some e ->
                   s.err <- None;
                   err e
                 | None -> err Errno.ECONNREFUSED)
              | Socket.St_listen -> err Errno.EINVAL
              | Socket.St_fin_wait_1 | Socket.St_fin_wait_2 | Socket.St_close_wait
              | Socket.St_closing | Socket.St_last_ack | Socket.St_time_wait ->
                err Errno.EISCONN)))
  | Syscall.Accept fd ->
    with_sock fd (fun s ->
        if not (Socket.is_listening s) then err Errno.EINVAL
        else
          match Netstack.accept_take s with
          | Some child ->
            let cfd = Fdtable.add p.fds (Fdtable.Fsock child) in
            ref_socket k child;
            ok (Syscall.Raccept (cfd, Option.get child.remote))
          | None ->
            if Socket.nonblocking s then err Errno.EAGAIN
            else block (fun waiter -> Socket.wait_readable s waiter))
  | Syscall.Send (fd, data) ->
    with_sock fd (fun s -> exec_send k s data ~ok ~err ~block)
  | Syscall.Send_oob (fd, c) ->
    with_sock fd (fun s ->
        match Tcp.send_oob s c with Ok () -> ok (Syscall.Rint 1) | Error e -> err e)
  | Syscall.Recv (fd, n, flags) ->
    with_sock fd (fun s ->
        match s.dispatch.d_recvmsg s flags n with
        | Socket.Rv_data data ->
          if (not flags.peek) && s.kind = Socket.Stream then Tcp.after_app_read s;
          ok (Syscall.Rdata data)
        | Socket.Rv_from (_, data) -> ok (Syscall.Rdata data)
        | Socket.Rv_eof -> ok (Syscall.Rdata "")
        | Socket.Rv_err e -> err e
        | Socket.Rv_block ->
          if nonblocking s flags then err Errno.EAGAIN
          else block (fun waiter -> Socket.wait_readable s waiter))
  | Syscall.Recvfrom (fd, n, flags) ->
    with_sock fd (fun s ->
        match s.dispatch.d_recvmsg s flags n with
        | Socket.Rv_from (from, data) -> ok (Syscall.Rfrom (from, data))
        | Socket.Rv_data data ->
          if (not flags.peek) && s.kind = Socket.Stream then Tcp.after_app_read s;
          let from =
            match s.remote with Some a -> a | None -> { Addr.ip = 0; port = 0 }
          in
          ok (Syscall.Rfrom (from, data))
        | Socket.Rv_eof -> ok (Syscall.Rdata "")
        | Socket.Rv_err e -> err e
        | Socket.Rv_block ->
          if nonblocking s flags then err Errno.EAGAIN
          else block (fun waiter -> Socket.wait_readable s waiter))
  | Syscall.Sendto (fd, dst, data) ->
    with_sock fd (fun s ->
        match s.kind with
        | Socket.Stream -> err Errno.EISCONN
        | Socket.Dgram | Socket.Raw _ ->
          (match Netstack.sendto k.net s dst data with
           | Ok n -> ok (Syscall.Rint n)
           | Error e -> err e))
  | Syscall.Shutdown (fd, how) ->
    with_sock fd (fun s ->
        (match how with
         | Syscall.Shut_rd ->
           s.shut_rd <- true;
           Socket.wake_readers s
         | Syscall.Shut_wr -> Tcp.shutdown_write s
         | Syscall.Shut_rdwr ->
           s.shut_rd <- true;
           Socket.wake_readers s;
           Tcp.shutdown_write s);
        ok Syscall.Rnone)
  | Syscall.Close fd ->
    (match Fdtable.find p.fds fd with
     | None -> err Errno.EBADF
     | Some e ->
       Fdtable.remove p.fds fd;
       (match e with
        | Fdtable.Fsock s -> unref_socket k s
        | Fdtable.Fpipe_r pi -> Pipe.close_read pi
        | Fdtable.Fpipe_w pi -> Pipe.close_write pi
        | Fdtable.Fgm port -> Zapc_simnet.Gmdev.close_port k.gm port);
       ok Syscall.Rnone)
  | Syscall.Getsockopt (fd, key) ->
    with_sock fd (fun s -> ok (Syscall.Rint (Sockopt.get s.opts key)))
  | Syscall.Setsockopt (fd, key, v) ->
    with_sock fd (fun s ->
        Sockopt.set s.opts key v;
        (* a larger send buffer can make a full socket writable, and no
           wait queue fires for that: every poll set that may list the
           socket is dropped, so the next poll scans it again *)
        if key = Sockopt.SO_SNDBUF then Hashtbl.iter (fun _ (q : Proc.t) -> q.pollset <- None) k.procs;
        ok Syscall.Rnone)
  | Syscall.Getsockname fd ->
    with_sock fd (fun s ->
        match s.local with
        | Some a -> ok (Syscall.Raddr a)
        | None -> ok (Syscall.Raddr { Addr.ip = 0; port = 0 }))
  | Syscall.Getpeername fd ->
    with_sock fd (fun s ->
        match s.remote with Some a -> ok (Syscall.Raddr a) | None -> err Errno.ENOTCONN)
  | Syscall.Poll (reqs, timeout) -> exec_poll k p reqs timeout
  | Syscall.Read (fd, n) ->
    (match Fdtable.find p.fds fd with
     | None -> err Errno.EBADF
     | Some (Fdtable.Fsock _) ->
       exec k p (Syscall.Recv (fd, n, Socket.plain_recv)) |> fun r -> r
     | Some (Fdtable.Fpipe_w _ | Fdtable.Fgm _) -> err Errno.EBADF
     | Some (Fdtable.Fpipe_r pi) ->
       (match Pipe.read pi n with
        | Pipe.Pdata d ->
          Pipe.after_read pi;
          ok (Syscall.Rdata d)
        | Pipe.Peof -> ok (Syscall.Rdata "")
        | Pipe.Pblock ->
          block (fun waiter -> Pipe.wait_readable pi waiter)))
  | Syscall.Write (fd, data) ->
    (match Fdtable.find p.fds fd with
     | None -> err Errno.EBADF
     | Some (Fdtable.Fsock s) -> exec_send k s data ~ok ~err ~block
     | Some (Fdtable.Fpipe_r _ | Fdtable.Fgm _) -> err Errno.EBADF
     | Some (Fdtable.Fpipe_w pi) ->
       (match Pipe.write pi data with
        | Pipe.Pwrote n -> ok (Syscall.Rint n)
        | Pipe.Pepipe -> err Errno.EPIPE
        | Pipe.Pwblock ->
          block (fun waiter -> Pipe.wait_writable pi waiter)))

and exec_send k (s : Socket.t) data ~ok ~err ~block =
  match s.kind with
  | Socket.Stream ->
    (match Tcp.send_data s data with
     | Ok 0 ->
       if Socket.nonblocking s then err Errno.EAGAIN
       else block (fun waiter -> Socket.wait_writable s waiter)
     | Ok n -> ok (Syscall.Rint n)
     | Error e -> err e)
  | Socket.Dgram | Socket.Raw _ ->
    (match s.remote with
     | None -> err Errno.ENOTCONN
     | Some dst ->
       (match Netstack.sendto k.net s dst data with
        | Ok n -> ok (Syscall.Rint n)
        | Error e -> err e))

(* Poll answers from the process's poll set (Pollset), which re-checks
   only the entries that can have become ready since the process last
   blocked: those with a wait queue that fired since or never got the
   waker, and those not asking to read.  The answer is the full scan's,
   in request order; see pollset.mli for why.  Blocking queues the waker
   only on the queues that lack it, which leaves it on exactly the queues
   a re-registration on every entry would. *)
and exec_poll k (p : Proc.t) reqs timeout =
  let ok r = (`Complete (Syscall.Ret r), Simtime.zero) in
  let ps =
    match p.pollset with
    | Some ps -> ps
    | None ->
      let ps = Pollset.create () in
      p.pollset <- Some ps;
      ps
  in
  let events = Pollset.poll ps p.fds reqs in
  if events <> [] then ok (Syscall.Rpoll events)
  else begin
    let deadline =
      match (p.block_deadline, timeout) with
      | Some d, _ -> Some d
      | None, Some tmo ->
        let d = Simtime.add (now k) tmo in
        p.block_deadline <- Some d;
        Some d
      | None, None -> None
    in
    match deadline with
    | Some d when Simtime.compare (now k) d >= 0 -> ok (Syscall.Rpoll [])
    | _ ->
      ( `Block
          (fun waiter ->
            Pollset.arm ps waiter;
            match deadline with
            | Some d ->
              Engine.schedule_at k.engine ~label:"os.sleep" ~at:d
                (fun () -> waiter Zapc_simnet.Waitq.no_id)
            | None -> ()),
        Simtime.zero )
  end

(* --- convenience for tests and the ZapC agent --- *)

let signal k pid sg =
  match find_proc k pid with
  | None -> Error Errno.ESRCH
  | Some p ->
    signal_proc k p sg;
    Ok ()

let alive_count k =
  Hashtbl.fold (fun _ p acc -> if Proc.is_alive p then acc + 1 else acc) k.procs 0

(* Failure injection: node power loss.  Every live process dies as if
   SIGKILLed; nothing gets a chance to clean up. *)
let crash k =
  let live = Hashtbl.fold (fun _ p acc -> if Proc.is_alive p then p :: acc else acc) k.procs [] in
  List.iter (fun p -> terminate k p 137) live

(* Tests for the simulated kernel: scheduling, compute preemption, signals
   (stop/cont/kill), blocking syscalls and wakeups, pipes with fd
   inheritance, timers, and multi-CPU parallelism. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Value = Zapc_codec.Value
module Fabric = Zapc_simnet.Fabric
module Socket = Zapc_simnet.Socket
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Signal = Zapc_simos.Signal
module Syscall = Zapc_simos.Syscall

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* global mailbox for test programs to report through the Log syscall *)
let logged : string list ref = ref []

let make_kernel ?(cpus = 1) () =
  let engine = Engine.create ~seed:3 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~cpus ~node_id:0 fabric in
  Zapc_simnet.Netstack.add_ip (Kernel.netstack k) (Zapc_simnet.Addr.make_ip 10 9 9 9);
  Kernel.set_logger k (fun _ _ msg -> logged := msg :: !logged);
  logged := [];
  (engine, k)

let run engine = Engine.run ~max_events:500_000 engine
let run_until engine t = Engine.run ~until:t ~max_events:500_000 engine

(* --- test programs --- *)

(* sleeper: sleeps then logs "woke" and exits *)
module Sleeper2 = struct
  type state = int * Simtime.t  (* phase, duration *)

  let name = "test.sleeper2"
  let start args = (0, Value.to_int args)

  let step (phase, d) (_ : Syscall.outcome) =
    match phase with
    | 0 -> ((1, d), Program.Sys (Syscall.Nanosleep d))
    | 1 -> ((2, d), Program.Sys (Syscall.Log "woke"))
    | _ -> ((2, d), Program.Exit 0)

  let to_value (p, d) = Value.List [ Value.Int p; Value.Int d ]

  let of_value = function
    | Value.List [ Value.Int p; Value.Int d ] -> (p, d)
    | _ -> failwith "bad"
end

(* burner: computes for [d] total then exits *)
module Burner = struct
  type state = int * Simtime.t

  let name = "test.burner"
  let start args = (0, Value.to_int args)

  let step (phase, d) (_ : Syscall.outcome) =
    match phase with
    | 0 -> ((1, d), Program.Compute d)
    | _ -> ((1, d), Program.Exit 0)

  let to_value (p, d) = Value.List [ Value.Int p; Value.Int d ]

  let of_value = function
    | Value.List [ Value.Int p; Value.Int d ] -> (p, d)
    | _ -> failwith "bad"
end

(* piper-parent: makes a pipe, spawns a child reader, writes a message,
   waits for the child *)
module Pipe_parent = struct
  type state = int * int * int  (* phase, rfd, child pid *)

  let name = "test.pipe_parent"
  let start _ = (0, -1, -1)

  let step (phase, rfd, child) (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> ((1, rfd, child), Program.Sys Syscall.Pipe)
    | 1, Syscall.Ret (Syscall.Rpair (r, _w)) ->
      ( (2, r, child),
        Program.Sys (Syscall.Spawn ("test.pipe_child", Value.List [ Value.Int r ])) )
    | 2, Syscall.Ret (Syscall.Rint pid) ->
      (* by construction of the Pipe syscall, the write fd is rfd + 1 *)
      ((3, rfd, pid), Program.Sys (Syscall.Write (rfd + 1, "through the pipe")))
    | 3, Syscall.Ret _ -> ((4, rfd, child), Program.Sys (Syscall.Close (rfd + 1)))
    | 4, _ -> ((5, rfd, child), Program.Sys (Syscall.Waitpid child))
    | 5, Syscall.Ret (Syscall.Rint code) ->
      ((6, rfd, child), Program.Sys (Syscall.Log (Printf.sprintf "child exited %d" code)))
    | _, _ -> ((6, rfd, child), Program.Exit 0)

  let to_value (a, b, c) = Value.List [ Value.Int a; Value.Int b; Value.Int c ]

  let of_value = function
    | Value.List [ Value.Int a; Value.Int b; Value.Int c ] -> (a, b, c)
    | _ -> failwith "bad"
end

module Pipe_child = struct
  type state = int * int  (* phase, rfd *)

  let name = "test.pipe_child"
  let start args = (0, Value.to_int (List.hd (Value.to_list (fun x -> x) args)))

  let step (phase, rfd) (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> ((1, rfd), Program.Sys (Syscall.Read (rfd, 100)))
    | 1, Syscall.Ret (Syscall.Rdata d) ->
      ((2, rfd), Program.Sys (Syscall.Log ("child got: " ^ d)))
    | _, _ -> ((2, rfd), Program.Exit 7)

  let to_value (a, b) = Value.List [ Value.Int a; Value.Int b ]

  let of_value = function
    | Value.List [ Value.Int a; Value.Int b ] -> (a, b)
    | _ -> failwith "bad"
end

(* clock logger: logs current time, sleeps, logs again *)
module Clock_prog = struct
  type state = int

  let name = "test.clock"
  let start _ = 0

  let step phase (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> (1, Program.Sys Syscall.Clock_gettime)
    | 1, Syscall.Ret (Syscall.Rtime t) ->
      (2, Program.Sys (Syscall.Log (Printf.sprintf "t0=%d" t)))
    | 2, _ -> (3, Program.Sys (Syscall.Nanosleep (Simtime.ms 10)))
    | 3, _ -> (4, Program.Sys Syscall.Clock_gettime)
    | 4, Syscall.Ret (Syscall.Rtime t) ->
      (5, Program.Sys (Syscall.Log (Printf.sprintf "t1=%d" t)))
    | _, _ -> (5, Program.Exit 0)

  let to_value p = Value.Int p
  let of_value = Value.to_int
end

(* socket poller: binds a datagram socket, polls it listing it twice, logs
   what poll returned, then receives *)
module Sock_poller = struct
  type state = int * int  (* phase, fd *)

  let name = "test.sock_poller"
  let start _ = (0, -1)

  let step (phase, fd) (outcome : Syscall.outcome) =
    let want = { Syscall.pfd = fd; want_read = true; want_write = false } in
    match (phase, outcome) with
    | 0, _ -> ((1, fd), Program.Sys (Syscall.Sock_create Socket.Dgram))
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      ( (2, fd),
        Program.Sys
          (Syscall.Bind (fd, { Zapc_simnet.Addr.ip = Zapc_simnet.Addr.make_ip 10 9 9 9; port = 7000 })) )
    | 2, _ -> ((3, fd), Program.Sys (Syscall.Poll ([ want; want ], None)))
    | 3, Syscall.Ret (Syscall.Rpoll evs) ->
      ((4, fd), Program.Sys (Syscall.Log (Printf.sprintf "polled %d" (List.length evs))))
    | 4, _ -> ((5, fd), Program.Sys (Syscall.Recv (fd, 100, Socket.plain_recv)))
    | 5, Syscall.Ret (Syscall.Rdata d) -> ((6, fd), Program.Sys (Syscall.Log ("got " ^ d)))
    | _, _ -> ((6, fd), Program.Exit 0)

  let to_value (a, b) = Value.List [ Value.Int a; Value.Int b ]

  let of_value = function
    | Value.List [ Value.Int a; Value.Int b ] -> (a, b)
    | _ -> failwith "bad"
end

(* request poller: makes [n] polls of one request list, built once at
   start, then exits, recording each poll's result in [polled] *)
let polled : (int * Socket.poll_events) list list ref = ref []

module Req_poller = struct
  type state = int * Syscall.poll_req list  (* polls left, requests *)

  let name = "test.req_poller"

  let req_of_value v =
    match v with
    | Value.List [ Value.Int pfd; Value.Bool want_read; Value.Bool want_write ] ->
      { Syscall.pfd; want_read; want_write }
    | _ -> failwith "bad"

  let of_value = function
    | Value.List [ Value.Int n; reqs ] -> (n, Value.to_list req_of_value reqs)
    | _ -> failwith "bad"

  let start = of_value

  let to_value (n, reqs) =
    Value.List
      [ Value.Int n;
        Value.list
          (fun (r : Syscall.poll_req) ->
            Value.List [ Value.Int r.pfd; Value.Bool r.want_read; Value.Bool r.want_write ])
          reqs ]

  let step (n, reqs) (outcome : Syscall.outcome) =
    (match outcome with Syscall.Ret (Syscall.Rpoll evs) -> polled := evs :: !polled | _ -> ());
    if n = 0 then ((n, reqs), Program.Exit 0)
    else ((n - 1, reqs), Program.Sys (Syscall.Poll (reqs, None)))
end

(* model poller: polls whatever list [model_reqs] holds when it starts a
   poll, cycling a non-blocking poll and blocking ones with 1 and 3 ms
   timeouts (so a changed list is soon picked up), and sleeps 300 us
   after an answer that reports something *)
let model_reqs : Syscall.poll_req list ref = ref []

module Model_poller = struct
  type state = int  (* polls started *)

  let name = "test.model_poller"
  let to_value n = Value.Int n
  let of_value = function Value.Int n -> n | _ -> failwith "bad"
  let start = of_value

  let step n (outcome : Syscall.outcome) =
    match outcome with
    | Syscall.Ret (Syscall.Rpoll (_ :: _)) -> (n, Program.Sys (Syscall.Nanosleep (Simtime.us 300)))
    | _ ->
      let timeout =
        match n mod 3 with 0 -> Simtime.ms 3 | 1 -> Simtime.zero | _ -> Simtime.ms 1
      in
      (n + 1, Program.Sys (Syscall.Poll (!model_reqs, Some timeout)))
end

let registered = ref false

let register_test_programs () =
  if not !registered then begin
    registered := true;
    Program.register_if_absent (module Sleeper2);
    Program.register_if_absent (module Burner);
    Program.register_if_absent (module Pipe_parent);
    Program.register_if_absent (module Pipe_child);
    Program.register_if_absent (module Clock_prog);
    Program.register_if_absent (module Sock_poller);
    Program.register_if_absent (module Req_poller);
    Program.register_if_absent (module Model_poller)
  end

(* --- tests --- *)

let test_sleep_and_exit () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.sleeper2" ~args:(Value.Int (Simtime.ms 50)) in
  run engine;
  check tbool "exited" true (p.Proc.exit_code = Some 0);
  check tbool "woke logged" true (List.mem "woke" !logged);
  check tbool "took at least 50ms" true (Engine.now engine >= Simtime.ms 50)

let test_compute_accounting () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.burner" ~args:(Value.Int (Simtime.ms 37)) in
  run engine;
  check tbool "exited" true (p.Proc.exit_code = Some 0);
  check tbool "cpu time ~37ms" true
    (p.Proc.cpu_time >= Simtime.ms 37 && p.Proc.cpu_time < Simtime.ms 39)

let test_two_burners_one_cpu () =
  register_test_programs ();
  let engine, k = make_kernel ~cpus:1 () in
  let a = Kernel.spawn k ~program:"test.burner" ~args:(Value.Int (Simtime.ms 20)) in
  let b = Kernel.spawn k ~program:"test.burner" ~args:(Value.Int (Simtime.ms 20)) in
  run engine;
  check tbool "both exited" true (a.Proc.exit_code = Some 0 && b.Proc.exit_code = Some 0);
  check tbool "serialized on one cpu" true (Engine.now engine >= Simtime.ms 40)

let test_two_burners_two_cpus () =
  register_test_programs ();
  let engine, k = make_kernel ~cpus:2 () in
  let a = Kernel.spawn k ~program:"test.burner" ~args:(Value.Int (Simtime.ms 20)) in
  let b = Kernel.spawn k ~program:"test.burner" ~args:(Value.Int (Simtime.ms 20)) in
  run engine;
  check tbool "both exited" true (a.Proc.exit_code = Some 0 && b.Proc.exit_code = Some 0);
  check tbool "parallel on two cpus" true (Engine.now engine < Simtime.ms 30)

let test_sigstop_cont () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.burner" ~args:(Value.Int (Simtime.ms 20)) in
  Engine.schedule engine ~delay:(Simtime.ms 5) (fun () ->
      Kernel.signal_proc k p Signal.Sigstop);
  Engine.schedule engine ~delay:(Simtime.ms 65) (fun () ->
      check tbool "still stopped" true (p.Proc.rstate = Proc.Stopped);
      check tbool "not exited while stopped" true (p.Proc.exit_code = None);
      Kernel.signal_proc k p Signal.Sigcont);
  run engine;
  check tbool "exited after cont" true (p.Proc.exit_code = Some 0);
  check tbool "finished after the stop window" true (Engine.now engine >= Simtime.ms 75)

(* Regression: a stop and a continue inside one pending compute slice on a
   multi-CPU node.  The slice event still holds the CPU, so SIGCONT must not
   enqueue the process — a free CPU would dispatch it a second time and the
   burner would finish long before its 100 ms of compute. *)
let test_sigstop_cont_within_slice () =
  register_test_programs ();
  let engine, k = make_kernel ~cpus:2 () in
  let p = Kernel.spawn k ~program:"test.burner" ~args:(Value.Int (Simtime.ms 100)) in
  Engine.schedule engine ~delay:(Simtime.ms 1) (fun () ->
      Kernel.signal_proc k p Signal.Sigstop;
      Kernel.signal_proc k p Signal.Sigcont);
  run engine;
  check tbool "exited" true (p.Proc.exit_code = Some 0);
  check tbool "ran its whole 100 ms" true (Engine.now engine >= Simtime.ms 100);
  check tbool "cpu time ~100ms" true
    (p.Proc.cpu_time >= Simtime.ms 100 && p.Proc.cpu_time < Simtime.ms 102)

let test_sigstop_while_blocked () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.sleeper2" ~args:(Value.Int (Simtime.ms 10)) in
  (* stop it while asleep; the wakeup fires while stopped; on CONT the
     blocked syscall retries and completes *)
  Engine.schedule engine ~delay:(Simtime.ms 2) (fun () ->
      Kernel.signal_proc k p Signal.Sigstop);
  Engine.schedule engine ~delay:(Simtime.ms 50) (fun () ->
      Kernel.signal_proc k p Signal.Sigcont);
  run engine;
  check tbool "exited" true (p.Proc.exit_code = Some 0);
  check tbool "woke" true (List.mem "woke" !logged)

(* Stopped while blocked in a poll that lists its socket twice: the socket
   fires while it is stopped, which marks the blocked call for retry and
   leaves it stopped; SIGCONT then runs the poll once. *)
let test_sigstop_while_blocked_on_socket () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.sock_poller" ~args:Value.Unit in
  run_until engine (Simtime.ms 1);
  check tbool "blocked in poll" true (p.Proc.rstate = Proc.Blocked);
  let s =
    Option.get
      (Zapc_simos.Fdtable.fold p.Proc.fds
         (fun _ e acc -> match e with Zapc_simos.Fdtable.Fsock s -> Some s | _ -> acc)
         None)
  in
  check tint "its waker queued once" 1 (Zapc_simnet.Waitq.length s.Socket.rd_waiters);
  Kernel.signal_proc k p Signal.Sigstop;
  let net = Kernel.netstack k in
  let sender = Zapc_simnet.Netstack.new_socket net Socket.Dgram in
  let dst = { Zapc_simnet.Addr.ip = Zapc_simnet.Addr.make_ip 10 9 9 9; port = 7000 } in
  ignore (Zapc_simnet.Netstack.sendto net sender dst "hi");
  run_until engine (Simtime.ms 20);
  check tbool "still stopped" true (p.Proc.rstate = Proc.Stopped);
  check tbool "marked for retry" true p.Proc.retry_after_cont;
  check tint "queue emptied" 0 (Zapc_simnet.Waitq.length s.Socket.rd_waiters);
  check tbool "poll not re-run while stopped" false
    (List.exists (String.starts_with ~prefix:"polled") !logged);
  Kernel.signal_proc k p Signal.Sigcont;
  run engine;
  check tbool "exited" true (p.Proc.exit_code = Some 0);
  check (Alcotest.list Alcotest.string) "poll returned once, then the datagram"
    [ "polled 2"; "got hi" ] (List.rev !logged)

let test_sigkill () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.burner" ~args:(Value.Int (Simtime.sec 10.0)) in
  Engine.schedule engine ~delay:(Simtime.ms 1) (fun () ->
      Kernel.signal_proc k p Signal.Sigkill);
  run engine;
  check tbool "killed" true (p.Proc.exit_code = Some 137);
  check tbool "zombie" true (p.Proc.rstate = Proc.Zombie)

let test_pipe_spawn_waitpid () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.pipe_parent" ~args:Value.Unit in
  run engine;
  check tbool "parent exited" true (p.Proc.exit_code = Some 0);
  check tbool "child got message" true (List.mem "child got: through the pipe" !logged);
  check tbool "waitpid code" true (List.mem "child exited 7" !logged)

let test_clock_monotonic () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.clock" ~args:Value.Unit in
  run engine;
  check tbool "exited" true (p.Proc.exit_code = Some 0);
  let find_t prefix =
    List.find_map
      (fun s ->
        if String.length s > 3 && String.equal (String.sub s 0 3) prefix then
          Some (int_of_string (String.sub s 3 (String.length s - 3)))
        else None)
      !logged
  in
  match (find_t "t0=", find_t "t1=") with
  | Some t0, Some t1 -> check tbool "t1 >= t0 + 10ms" true (t1 - t0 >= Simtime.ms 10)
  | _ -> Alcotest.fail "clock logs missing"

let test_alarm_deadline () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.sleeper2" ~args:(Value.Int (Simtime.ms 1)) in
  run_until engine (Simtime.us 1);
  p.Proc.alarm_deadline <- Some (Simtime.ms 100);
  run engine;
  check tbool "alarm survives" true (p.Proc.alarm_deadline = Some (Simtime.ms 100))

let test_exit_closes_fds () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let p = Kernel.spawn k ~program:"test.pipe_parent" ~args:Value.Unit in
  run engine;
  check tint "fd table empty after exit" 0 (Zapc_simos.Fdtable.cardinal p.Proc.fds)

let test_spawn_unknown_program () =
  register_test_programs ();
  let _, k = make_kernel () in
  match Kernel.spawn k ~program:"no.such.program" ~args:Value.Unit with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_syscall_value_roundtrip () =
  let scs =
    [ Syscall.Getpid; Syscall.Clock_gettime; Syscall.Nanosleep (Simtime.ms 3);
      Syscall.Mem_alloc ("x", 100); Syscall.Spawn ("p", Value.Int 1);
      Syscall.Kill (3, Signal.Sigstop); Syscall.Sock_create Socket.Stream;
      Syscall.Sock_create (Socket.Raw 89);
      Syscall.Bind (3, { Zapc_simnet.Addr.ip = 42; port = 80 });
      Syscall.Connect (4, { Zapc_simnet.Addr.ip = 1; port = 2 });
      Syscall.Recv (5, 100, Socket.plain_recv);
      Syscall.Recv (5, 100, { Socket.peek = true; oob = true; dontwait = true });
      Syscall.Send (6, "data"); Syscall.Send_oob (6, '!');
      Syscall.Poll ([ { Syscall.pfd = 1; want_read = true; want_write = false } ], Some 5);
      Syscall.Shutdown (7, Syscall.Shut_wr); Syscall.Pipe; Syscall.Read (1, 2);
      Syscall.Write (1, "w"); Syscall.Log "m"; Syscall.Waitpid 9;
      Syscall.Getsockopt (1, Zapc_simnet.Sockopt.SO_RCVBUF);
      Syscall.Setsockopt (1, Zapc_simnet.Sockopt.TCP_NODELAY, 1) ]
  in
  List.iter
    (fun sc ->
      let v = Syscall.to_value sc in
      let sc' = Syscall.of_value v in
      check tbool (Syscall.name sc) true (Syscall.to_value sc' = v))
    scs;
  let outs =
    [ Syscall.Started; Syscall.Done_compute; Syscall.Ret Syscall.Rnone;
      Syscall.Ret (Syscall.Rint 5); Syscall.Ret (Syscall.Rdata "d");
      Syscall.Ret (Syscall.Raccept (3, { Zapc_simnet.Addr.ip = 9; port = 1 }));
      Syscall.Ret (Syscall.Rpoll [ (1, { Socket.readable = true; writable = false; pollerr = false; hangup = false }) ]);
      Syscall.Err Zapc_simnet.Errno.EAGAIN ]
  in
  List.iter
    (fun o ->
      let v = Syscall.outcome_to_value o in
      check tbool "outcome" true (Syscall.outcome_to_value (Syscall.outcome_of_value v) = v))
    outs

let test_memory_accounting () =
  let m = Zapc_simos.Memory.create () in
  Zapc_simos.Memory.alloc m "a" 100;
  Zapc_simos.Memory.alloc m "b" 50;
  check tint "total" 150 (Zapc_simos.Memory.total m);
  Zapc_simos.Memory.alloc m "a" 30;
  check tint "realloc" 80 (Zapc_simos.Memory.total m);
  check tint "peak" 150 (Zapc_simos.Memory.peak m);
  Zapc_simos.Memory.free m "b";
  check tint "after free" 30 (Zapc_simos.Memory.total m);
  let v = Zapc_simos.Memory.to_value m in
  let m' = Zapc_simos.Memory.of_value v in
  check tint "restored" 30 (Zapc_simos.Memory.total m')

(* --- the fd table against its hash-table model ---

   [Fd_model] is the table as a plain hash table (lookups included), the
   behaviour the indexed table must keep: same lookups, and fold/iter in
   the same order, since pod images and exit-close follow that order. *)

module Fdtable = Zapc_simos.Fdtable

module Fd_model = struct
  type t = { entries : (int, Fdtable.entry) Hashtbl.t; mutable next_fd : int }

  let create () = { entries = Hashtbl.create 8; next_fd = 3 }

  let add t e =
    let fd = t.next_fd in
    t.next_fd <- fd + 1;
    Hashtbl.replace t.entries fd e;
    fd

  let add_at t fd e =
    Hashtbl.replace t.entries fd e;
    if fd >= t.next_fd then t.next_fd <- fd + 1

  let copy t = { entries = Hashtbl.copy t.entries; next_fd = t.next_fd }
end

type fd_op =
  | Op_add of int * int  (* table, entry *)
  | Op_add_at of int * int * int  (* table, fd, entry *)
  | Op_remove of int * int  (* table, fd *)
  | Op_copy of int * int  (* from, into *)

let fd_tables = 3

let show_fd_op = function
  | Op_add (t, e) -> Printf.sprintf "add t%d e%d" t e
  | Op_add_at (t, fd, e) -> Printf.sprintf "add_at t%d %d e%d" t fd e
  | Op_remove (t, fd) -> Printf.sprintf "remove t%d %d" t fd
  | Op_copy (a, b) -> Printf.sprintf "copy t%d -> t%d" a b

let gen_fd_op =
  let open QCheck.Gen in
  let table = int_bound (fd_tables - 1) and entry = int_bound 5 in
  (* mostly near the low descriptors the tables hand out, sometimes far
     past the index *)
  let fd = frequency [ (8, int_bound 24); (1, int_range 5000 5003); (1, return (-1)) ] in
  frequency
    [ (4, map2 (fun t e -> Op_add (t, e)) table entry);
      (3, map3 (fun t fd e -> Op_add_at (t, max 0 fd, e)) table fd entry);
      (3, map2 (fun t fd -> Op_remove (t, fd)) table fd);
      (1, map2 (fun a b -> Op_copy (a, b)) table table) ]

let prop_fdtable_matches_model =
  QCheck.Test.make ~name:"fd table matches the hash-table model" ~count:1000
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_fd_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) gen_fd_op))
    (fun ops ->
      let engine = Engine.create () in
      let net = Zapc_simnet.Netstack.create ~node:0 (Fabric.create engine) in
      let pipe = Zapc_simos.Pipe.create ~id:1 in
      let entries =
        [| Fdtable.Fpipe_r pipe; Fdtable.Fpipe_w pipe;
           Fdtable.Fsock (Zapc_simnet.Netstack.new_socket net Socket.Stream);
           Fdtable.Fsock (Zapc_simnet.Netstack.new_socket net Socket.Dgram);
           Fdtable.Fpipe_r (Zapc_simos.Pipe.create ~id:2);
           Fdtable.Fpipe_w (Zapc_simos.Pipe.create ~id:3) |]
      in
      let real = Array.init fd_tables (fun _ -> Fdtable.create ()) in
      let model = Array.init fd_tables (fun _ -> Fd_model.create ()) in
      let same_entry a b =
        match (a, b) with Some x, Some y -> x == y | None, None -> true | _ -> false
      in
      let same_list l m =
        List.length l = List.length m
        && List.for_all2 (fun (fa, ea) (fb, eb) -> fa = fb && ea == eb) l m
      in
      let agree i =
        let r = real.(i) and m = model.(i) in
        let lookups_agree =
          List.for_all
            (fun fd ->
              same_entry (Fdtable.find r fd) (Hashtbl.find_opt m.Fd_model.entries fd)
              && (match (Fdtable.socket r fd, Hashtbl.find_opt m.Fd_model.entries fd) with
                  | Some s, Some (Fdtable.Fsock s') -> s == s'
                  | None, (None | Some (Fdtable.Fpipe_r _ | Fdtable.Fpipe_w _ | Fdtable.Fgm _)) ->
                    true
                  | _ -> false))
            (List.init 30 (fun fd -> fd - 1) @ [ 4999; 5000; 5001; 5002; 5003; 5004; 10_000 ])
        in
        let folded = Fdtable.fold r (fun fd e acc -> (fd, e) :: acc) [] in
        let iterated = ref [] in
        Fdtable.iter r (fun fd e -> iterated := (fd, e) :: !iterated);
        let model_folded = Hashtbl.fold (fun fd e acc -> (fd, e) :: acc) m.Fd_model.entries [] in
        lookups_agree && same_list folded model_folded && same_list !iterated model_folded
        && Fdtable.cardinal r = Hashtbl.length m.Fd_model.entries
      in
      List.for_all
        (fun op ->
          (match op with
           | Op_add (t, e) ->
             let fd = Fdtable.add real.(t) entries.(e) in
             if fd <> Fd_model.add model.(t) entries.(e) then QCheck.Test.fail_report "add: fd"
           | Op_add_at (t, fd, e) ->
             Fdtable.add_at real.(t) fd entries.(e);
             Fd_model.add_at model.(t) fd entries.(e)
           | Op_remove (t, fd) ->
             Fdtable.remove real.(t) fd;
             Hashtbl.remove model.(t).Fd_model.entries fd
           | Op_copy (a, b) ->
             real.(b) <- Fdtable.copy real.(a);
             model.(b) <- Fd_model.copy model.(a));
          List.for_all agree (List.init fd_tables Fun.id))
        ops)

(* --- poll --- *)

let no_events = { Socket.readable = false; writable = false; pollerr = false; hangup = false }

(* One poll over every kind of descriptor, ready and not, reports exactly
   the ready ones in request order, with their event records. *)
let test_poll_mixed_kinds () =
  register_test_programs ();
  let engine, k = make_kernel () in
  let net = Kernel.netstack k in
  let ip = Zapc_simnet.Addr.make_ip 10 9 9 9 in
  let gm = Kernel.gm k in
  let port = Result.get_ok (Zapc_simnet.Gmdev.open_port gm ~ip ~port:40) in
  let gm_sender = Result.get_ok (Zapc_simnet.Gmdev.open_port gm ~ip ~port:41) in
  ignore (Zapc_simnet.Gmdev.send gm gm_sender { Zapc_simnet.Addr.ip; port = 40 } "frame");
  let udp port =
    let s = Zapc_simnet.Netstack.new_socket net Socket.Dgram in
    ignore (Zapc_simnet.Netstack.bind net s { Zapc_simnet.Addr.ip; port });
    s
  in
  let idle = udp 7001 and busy = udp 7002 in
  ignore (Zapc_simnet.Netstack.sendto net idle { Zapc_simnet.Addr.ip; port = 7002 } "dgram");
  let full = Zapc_simos.Pipe.create ~id:(Kernel.alloc_pipe_id k) in
  ignore (Zapc_simos.Pipe.write full "bytes");
  let empty = Zapc_simos.Pipe.create ~id:(Kernel.alloc_pipe_id k) in
  run engine;
  let fds = Fdtable.create () in
  let fd_gm = Fdtable.add fds (Fdtable.Fgm port) in
  let fd_idle = Fdtable.add fds (Fdtable.Fsock idle) in
  let fd_pipe_r = Fdtable.add fds (Fdtable.Fpipe_r full) in
  let fd_busy = Fdtable.add fds (Fdtable.Fsock busy) in
  let fd_pipe_w = Fdtable.add fds (Fdtable.Fpipe_w empty) in
  let unknown = 99 in
  let rd pfd = { Syscall.pfd; want_read = true; want_write = false } in
  let reqs =
    [ rd fd_gm; rd unknown; rd fd_idle; rd fd_pipe_r; rd fd_busy;
      { Syscall.pfd = fd_pipe_w; want_read = false; want_write = true } ]
  in
  polled := [];
  let p =
    Kernel.create_proc k (Program.spawn "test.req_poller" (Req_poller.to_value (1, reqs)))
  in
  p.Proc.fds <- fds;
  Kernel.enqueue k p;
  run engine;
  check tbool "exited" true (p.Proc.exit_code = Some 0);
  let show (fd, (e : Socket.poll_events)) =
    Printf.sprintf "%d r%b w%b e%b h%b" fd e.readable e.writable e.pollerr e.hangup
  in
  check (Alcotest.list Alcotest.string) "ready ones, in request order"
    (List.map show
       [ (fd_gm, { no_events with readable = true; writable = true });
         (unknown, { no_events with pollerr = true });
         (fd_pipe_r, { no_events with readable = true });
         (fd_busy, { no_events with readable = true; writable = true });
         (fd_pipe_w, { no_events with writable = true }) ])
    (List.map show (List.concat !polled))

(* A process blocked in Poll over 400 idle TCP sockets, woken by one of
   them with nothing to read, polls the same list again and blocks again.
   That round must not allocate per polled fd: its poll set re-checks only
   the socket that fired, and re-queueing the waker on that socket and the
   engine's own events are the only allocations. *)
let test_poll_rescan_allocation () =
  register_test_programs ();
  let module Netstack = Zapc_simnet.Netstack in
  let module Addr = Zapc_simnet.Addr in
  let n = 400 in
  let engine = Engine.create ~seed:3 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let net = Kernel.netstack k and peer = Netstack.create ~node:1 fabric in
  let ip0 = Addr.make_ip 10 0 0 1 and ip1 = Addr.make_ip 10 0 0 2 in
  Netstack.add_ip net ip0;
  Netstack.add_ip peer ip1;
  let listener = Netstack.new_socket peer Socket.Stream in
  ignore (Netstack.bind peer listener { Addr.ip = ip1; port = 80 });
  ignore (Netstack.listen peer listener n);
  let socks =
    Array.init n (fun _ ->
        let s = Netstack.new_socket net Socket.Stream in
        ignore (Netstack.connect_start net s { Addr.ip = ip1; port = 80 });
        s)
  in
  run engine;
  let fds = Fdtable.create () in
  let reqs =
    Array.to_list
      (Array.map
         (fun s ->
           { Syscall.pfd = Fdtable.add fds (Fdtable.Fsock s); want_read = true; want_write = false })
         socks)
  in
  let p =
    Kernel.create_proc k (Program.spawn "test.req_poller" (Req_poller.to_value (max_int, reqs)))
  in
  p.Proc.fds <- fds;
  Array.iter (Kernel.ref_socket k) socks;
  polled := [];
  Kernel.enqueue k p;
  run engine;
  check tbool "blocked" true (p.Proc.rstate = Proc.Blocked);
  let fire i =
    Socket.wake_readers socks.(i);
    let w0 = Gc.minor_words () in
    Engine.run engine;
    Gc.minor_words () -. w0
  in
  ignore (fire 0);
  let words = fire 1 in
  check tbool "blocked again" true (p.Proc.rstate = Proc.Blocked);
  check tint "re-queued on the socket that fired" 1
    (Zapc_simnet.Waitq.length socks.(1).Socket.rd_waiters);
  check tbool "no poll returned" true (!polled = []);
  Printf.printf "rescan of %d fds: %.0f minor words\n" n words;
  if words >= 2.0 *. float_of_int n then
    Alcotest.failf "rescan of %d fds allocated %.0f words (limit %d)" n words (2 * n)

(* --- the poll set against a full scan ---

   A process polls one list of requests over sockets, pipes and GM ports
   while the test acts on them from outside: the peer side sends, reads,
   closes, resets; the process's side is read, written, shut down, closed;
   and the list flips a request's wants, gains a new descriptor, or drops
   a closed one.  After every operation and every engine event the
   process's poll set must answer exactly what a scan of every request
   answers, records included. *)

type pop =
  | Open_tcp of bool  (* connect to the peer's listener, or to a closed port *)
  | Open_listen
  | Open_udp
  | Open_pipe of bool  (* the process holds the read end, else the write end *)
  | Open_gm
  | Peer_connect of int  (* to the process's listener in this slot *)
  | Accept of int
  | Peer_send of int
  | Send of int
  | Recv of int
  | Peer_recv of int
  | Peer_close of int  (* the peer's FIN; the other pipe end's close; the GM port's close *)
  | Rst of int
  | Shutdown of int * Syscall.shut_how
  | Close of int
  | Flip_write of int
  | Flip_read of int

let show_pop = function
  | Open_tcp b -> Printf.sprintf "open_tcp %b" b
  | Open_listen -> "open_listen"
  | Open_udp -> "open_udp"
  | Open_pipe b -> Printf.sprintf "open_pipe %b" b
  | Open_gm -> "open_gm"
  | Peer_connect i -> Printf.sprintf "peer_connect %d" i
  | Accept i -> Printf.sprintf "accept %d" i
  | Peer_send i -> Printf.sprintf "peer_send %d" i
  | Send i -> Printf.sprintf "send %d" i
  | Recv i -> Printf.sprintf "recv %d" i
  | Peer_recv i -> Printf.sprintf "peer_recv %d" i
  | Peer_close i -> Printf.sprintf "peer_close %d" i
  | Rst i -> Printf.sprintf "rst %d" i
  | Shutdown (i, h) ->
    Printf.sprintf "shutdown %d %s" i
      (match h with Syscall.Shut_rd -> "rd" | Syscall.Shut_wr -> "wr" | Syscall.Shut_rdwr -> "rdwr")
  | Close i -> Printf.sprintf "close %d" i
  | Flip_write i -> Printf.sprintf "flip_write %d" i
  | Flip_read i -> Printf.sprintf "flip_read %d" i

let gen_pop =
  let open QCheck.Gen in
  let slot = int_bound 7 in
  frequency
    [ (3, map (fun b -> Open_tcp b) (frequency [ (4, return true); (1, return false) ]));
      (1, return Open_listen); (1, return Open_udp);
      (1, map (fun b -> Open_pipe b) bool); (2, return Open_gm);
      (2, map (fun i -> Peer_connect i) slot); (2, map (fun i -> Accept i) slot);
      (5, map (fun i -> Peer_send i) slot); (4, map (fun i -> Send i) slot);
      (4, map (fun i -> Recv i) slot); (3, map (fun i -> Peer_recv i) slot);
      (2, map (fun i -> Peer_close i) slot); (1, map (fun i -> Rst i) slot);
      (1, map2 (fun i h -> Shutdown (i, h)) slot
            (oneofl [ Syscall.Shut_rd; Syscall.Shut_wr; Syscall.Shut_rdwr ]));
      (3, map (fun i -> Close i) slot);
      (3, map (fun i -> Flip_write i) slot); (3, map (fun i -> Flip_read i) slot) ]

type pobj =
  | Ptcp of Socket.t
  | Plisten of Socket.t
  | Pudp of Socket.t
  | Ppipe_r of Zapc_simos.Pipe.t
  | Ppipe_w of Zapc_simos.Pipe.t
  | Pgm of Zapc_simnet.Gmdev.port

type pslot = { ps_fd : int; ps_obj : pobj; mutable rd : bool; mutable wr : bool }

(* Run the operations against a model poller; false (or a QCheck failure
   report) at the first disagreement. *)
let pollset_model ops =
  register_test_programs ();
  let module Netstack = Zapc_simnet.Netstack in
  let module Addr = Zapc_simnet.Addr in
  let module Gmdev = Zapc_simnet.Gmdev in
  let module Pipe = Zapc_simos.Pipe in
  let module Sockopt = Zapc_simnet.Sockopt in
  let engine = Engine.create ~seed:5 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let net = Kernel.netstack k and peer = Netstack.create ~node:1 fabric in
  let ip0 = Addr.make_ip 10 0 0 1 and ip1 = Addr.make_ip 10 0 0 2 in
  Netstack.add_ip net ip0;
  Netstack.add_ip peer ip1;
  (* small buffers, so a few sends fill a socket's send queue *)
  let small (s : Socket.t) =
    Sockopt.set s.opts Sockopt.SO_SNDBUF 256;
    Sockopt.set s.opts Sockopt.SO_RCVBUF 512
  in
  let listener = Netstack.new_socket peer Socket.Stream in
  small listener;
  ignore (Netstack.bind peer listener { Addr.ip = ip1; port = 80 });
  ignore (Netstack.listen peer listener 64);
  let peer_udp = Netstack.new_socket peer Socket.Dgram in
  ignore (Netstack.bind peer peer_udp { Addr.ip = ip1; port = 9000 });
  let gm = Kernel.gm k in
  let gm_peer = Result.get_ok (Gmdev.open_port gm ~ip:ip0 ~port:40) in
  let fds = Fdtable.create () in
  let slots = ref [||] in
  (* a closed slot stays listed (reporting pollerr) until the list is
     next rebuilt *)
  let rebuild () =
    slots :=
      Array.of_list
        (List.filter (fun sl -> Option.is_some (Fdtable.find fds sl.ps_fd)) (Array.to_list !slots));
    model_reqs :=
      Array.to_list
        (Array.map (fun sl -> { Syscall.pfd = sl.ps_fd; want_read = sl.rd; want_write = sl.wr })
           !slots)
  in
  rebuild ();
  let next_port = ref 7000 in
  let port () = incr next_port; !next_port in
  let add obj =
    if Array.length !slots < 8 then begin
      let entry =
        match obj with
        | Ptcp s | Plisten s | Pudp s -> Fdtable.Fsock s
        | Ppipe_r pi -> Fdtable.Fpipe_r pi
        | Ppipe_w pi -> Fdtable.Fpipe_w pi
        | Pgm port -> Fdtable.Fgm port
      in
      let sl = { ps_fd = Fdtable.add fds entry; ps_obj = obj; rd = true; wr = false } in
      slots := Array.append !slots [| sl |];
      rebuild ()
    end
  in
  (* the peer's side of a connection: accepted from its listener, or
     connected by it *)
  let peer_eps = ref [] in
  let take_accepted () =
    let rec go () =
      match Netstack.accept_take listener with
      | Some c -> peer_eps := c :: !peer_eps; go ()
      | None -> ()
    in
    go ()
  in
  let peer_of (s : Socket.t) =
    take_accepted ();
    List.find_opt
      (fun (e : Socket.t) -> e.local = s.remote && e.remote = s.local && s.remote <> None)
      !peer_eps
  in
  let drain (s : Socket.t) =
    match s.dispatch.d_recvmsg s Socket.plain_recv 100_000 with
    | Socket.Rv_data _ -> if s.kind = Socket.Stream then Zapc_simnet.Tcp.after_app_read s
    | Socket.Rv_from _ | Socket.Rv_eof | Socket.Rv_err _ | Socket.Rv_block -> ()
  in
  let read_pipe pi =
    match Pipe.read pi 100_000 with
    | Pipe.Pdata _ -> Pipe.after_read pi
    | Pipe.Peof | Pipe.Pblock -> ()
  in
  let data = String.make 300 'x' in
  let slot i f = let a = !slots in if a <> [||] then f a.(i mod Array.length a) in
  let apply = function
    | Open_tcp to_listener ->
      let s = Netstack.new_socket net Socket.Stream in
      small s;
      let port = if to_listener then 80 else 81 in
      ignore (Netstack.connect_start net s { Addr.ip = ip1; port });
      add (Ptcp s)
    | Open_listen ->
      let s = Netstack.new_socket net Socket.Stream in
      small s;
      ignore (Netstack.bind net s { Addr.ip = ip0; port = port () });
      ignore (Netstack.listen net s 8);
      add (Plisten s)
    | Open_udp ->
      let s = Netstack.new_socket net Socket.Dgram in
      ignore (Netstack.bind net s { Addr.ip = ip0; port = port () });
      add (Pudp s)
    | Open_pipe reader ->
      let pi = Pipe.create ~id:(Kernel.alloc_pipe_id k) in
      add (if reader then Ppipe_r pi else Ppipe_w pi)
    | Open_gm -> add (Pgm (Result.get_ok (Gmdev.open_port gm ~ip:ip0 ~port:(port ()))))
    | Peer_connect i ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Plisten s ->
            let c = Netstack.new_socket peer Socket.Stream in
            small c;
            ignore (Netstack.connect_start peer c (Option.get s.local));
            peer_eps := c :: !peer_eps
          | _ -> ())
    | Accept i ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Plisten s -> (match Netstack.accept_take s with Some c -> add (Ptcp c) | None -> ())
          | _ -> ())
    | Peer_send i ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Ptcp s -> Option.iter (fun e -> ignore (Zapc_simnet.Tcp.send_data e data)) (peer_of s)
          | Pudp s -> ignore (Netstack.sendto peer peer_udp (Option.get s.local) data)
          | Ppipe_r pi -> ignore (Pipe.write pi data)
          | Pgm port -> ignore (Gmdev.send gm gm_peer port.Gmdev.gp_addr data)
          | Plisten _ | Ppipe_w _ -> ())
    | Send i ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Ptcp s -> ignore (Zapc_simnet.Tcp.send_data s data)
          | Pudp s -> ignore (Netstack.sendto net s { Addr.ip = ip1; port = 9000 } data)
          | Ppipe_w pi -> ignore (Pipe.write pi data)
          | Pgm port -> ignore (Gmdev.send gm port gm_peer.Gmdev.gp_addr data)
          | Plisten _ | Ppipe_r _ -> ())
    | Recv i ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Ptcp s | Pudp s -> drain s
          | Ppipe_r pi -> read_pipe pi
          | Pgm port -> ignore (Gmdev.recv port)
          | Plisten _ | Ppipe_w _ -> ())
    | Peer_recv i ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Ptcp s -> Option.iter drain (peer_of s)
          | Ppipe_w pi -> read_pipe pi
          | Pgm _ -> ignore (Gmdev.recv gm_peer)
          | Pudp _ -> drain peer_udp
          | Plisten _ | Ppipe_r _ -> ())
    | Peer_close i ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Ptcp s -> Option.iter Zapc_simnet.Tcp.shutdown_write (peer_of s)
          | Ppipe_r pi -> Pipe.close_write pi
          | Ppipe_w pi -> Pipe.close_read pi
          | Pgm port -> Gmdev.close_port gm port
          | Plisten _ | Pudp _ -> ())
    | Rst i ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Ptcp ({ local = Some l; remote = Some r; _ } : Socket.t) ->
            Netstack.send_packet peer
              { Zapc_simnet.Packet.src = r; dst = l;
                body =
                  Zapc_simnet.Packet.Tcp_seg
                    { seq = 0; ack_no = 0; window = 0; urg_ptr = 0; payload = "";
                      flags = { Zapc_simnet.Packet.no_flags with rst = true } } }
          | _ -> ())
    | Shutdown (i, how) ->
      slot i (fun sl ->
          match sl.ps_obj with
          | Ptcp s ->
            if how <> Syscall.Shut_wr then begin
              s.shut_rd <- true;
              Socket.wake_readers s
            end;
            if how <> Syscall.Shut_rd then Zapc_simnet.Tcp.shutdown_write s
          | _ -> ())
    | Close i ->
      slot i (fun sl ->
          if Option.is_some (Fdtable.find fds sl.ps_fd) then begin
            Fdtable.remove fds sl.ps_fd;
            match sl.ps_obj with
            | Ptcp s | Plisten s | Pudp s -> Netstack.close net s
            | Ppipe_r pi -> Pipe.close_read pi
            | Ppipe_w pi -> Pipe.close_write pi
            | Pgm port -> Gmdev.close_port gm port
          end)
    | Flip_write i -> slot i (fun sl -> sl.wr <- not sl.wr; rebuild ())
    | Flip_read i -> slot i (fun sl -> sl.rd <- not sl.rd; rebuild ())
  in
  let p = Kernel.create_proc k (Program.spawn "test.model_poller" (Value.Int 0)) in
  p.Proc.fds <- fds;
  Kernel.enqueue k p;
  let agree () =
    let reqs =
      match p.Proc.pending_sys with
      | Some (Syscall.Poll (reqs, _)) -> reqs
      | Some _ | None -> !model_reqs
    in
    let full = Zapc_simos.Pollset.scan fds reqs in
    let cached =
      match p.Proc.pollset with Some ps -> Zapc_simos.Pollset.poll ps fds reqs | None -> full
    in
    cached = full
    || QCheck.Test.fail_reportf "at %d ns: poll set reports %d fds, the scan %d"
         (Engine.now engine) (List.length cached) (List.length full)
  in
  let rec events n =
    n = 0 || Engine.pending engine = 0
    || (Engine.run ~max_events:1 engine;
        agree () && events (n - 1))
  in
  List.for_all (fun op -> apply op; agree () && events 200) ops

let prop_pollset_matches_scan =
  QCheck.Test.make ~name:"poll set answers what a full scan answers" ~count:150
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_pop ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) gen_pop))
    pollset_model

(* The read queue carries hangups, so a request that does not ask to read
   is re-checked at every poll: a GM port closed under it, and the peer's
   FIN on a connection polled for neither reading nor writing, must both
   show although no queue the poll registers on fires. *)
let test_pollset_hangup_without_read () =
  check tbool "gm port closed under a poll that does not read" true
    (pollset_model [ Open_gm; Flip_read 0; Peer_close 0 ]);
  check tbool "FIN on a connection polled for nothing" true
    (pollset_model [ Open_tcp true; Flip_read 0; Peer_close 0 ])

let () =
  Alcotest.run "simos"
    [ ( "scheduler",
        [ Alcotest.test_case "sleep and exit" `Quick test_sleep_and_exit;
          Alcotest.test_case "compute accounting" `Quick test_compute_accounting;
          Alcotest.test_case "1 cpu serializes" `Quick test_two_burners_one_cpu;
          Alcotest.test_case "2 cpus parallelize" `Quick test_two_burners_two_cpus ] );
      ( "signals",
        [ Alcotest.test_case "stop/cont" `Quick test_sigstop_cont;
          Alcotest.test_case "stop while blocked" `Quick test_sigstop_while_blocked;
          Alcotest.test_case "kill" `Quick test_sigkill;
          Alcotest.test_case "stop while blocked on a socket" `Quick
            test_sigstop_while_blocked_on_socket;
          Alcotest.test_case "stop/cont within one slice, 2 cpus" `Quick
            test_sigstop_cont_within_slice ] );
      ( "resources",
        [ Alcotest.test_case "pipe + spawn + waitpid" `Quick test_pipe_spawn_waitpid;
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "alarm" `Quick test_alarm_deadline;
          Alcotest.test_case "exit closes fds" `Quick test_exit_closes_fds;
          Alcotest.test_case "spawn unknown" `Quick test_spawn_unknown_program;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting ] );
      ( "values",
        [ Alcotest.test_case "syscall roundtrip" `Quick test_syscall_value_roundtrip ] );
      ("fdtable", [ QCheck_alcotest.to_alcotest prop_fdtable_matches_model ]);
      ( "poll",
        [ Alcotest.test_case "mixed kinds: ready ones in request order" `Quick
            test_poll_mixed_kinds;
          Alcotest.test_case "rescan allocates nothing per fd" `Quick
            test_poll_rescan_allocation;
          QCheck_alcotest.to_alcotest prop_pollset_matches_scan;
          Alcotest.test_case "hangups reach a poll that does not read" `Quick
            test_pollset_hangup_without_read ] ) ]

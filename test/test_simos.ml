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

let registered = ref false

let register_test_programs () =
  if not !registered then begin
    registered := true;
    Program.register_if_absent (module Sleeper2 : Program.S);
    Program.register_if_absent (module Burner : Program.S);
    Program.register_if_absent (module Pipe_parent : Program.S);
    Program.register_if_absent (module Pipe_child : Program.S);
    Program.register_if_absent (module Clock_prog : Program.S);
    Program.register_if_absent (module Sock_poller : Program.S)
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
            test_sigstop_while_blocked_on_socket ] );
      ( "resources",
        [ Alcotest.test_case "pipe + spawn + waitpid" `Quick test_pipe_spawn_waitpid;
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "alarm" `Quick test_alarm_deadline;
          Alcotest.test_case "exit closes fds" `Quick test_exit_closes_fds;
          Alcotest.test_case "spawn unknown" `Quick test_spawn_unknown_program;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting ] );
      ( "values",
        [ Alcotest.test_case "syscall roundtrip" `Quick test_syscall_value_roundtrip ] ) ]

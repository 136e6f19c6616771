(* Unit tests for the checkpoint layers: socket-state save/restore (the
   read-and-reinject extraction, the flawed peek baseline, overlap fix-up),
   meta-data classification and scheduling, and pod image round-trips. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Value = Zapc_codec.Value
module Wire = Zapc_codec.Wire
module Addr = Zapc_simnet.Addr
module Fabric = Zapc_simnet.Fabric
module Netstack = Zapc_simnet.Netstack
module Socket = Zapc_simnet.Socket
module Sockbuf = Zapc_simnet.Sockbuf
module Sockopt = Zapc_simnet.Sockopt
module Tcp = Zapc_simnet.Tcp
module Errno = Zapc_simnet.Errno
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Namespace = Zapc_pod.Namespace
module Pod = Zapc_pod.Pod
module Meta = Zapc_netckpt.Meta
module Sock_state = Zapc_netckpt.Sock_state
module Net_ckpt = Zapc_netckpt.Net_ckpt
module Pod_ckpt = Zapc_ckpt.Pod_ckpt
module Image = Zapc_ckpt.Image
module Delta = Zapc_ckpt.Delta
module Memory = Zapc_simos.Memory
module Storage = Zapc.Storage

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

type env = {
  engine : Engine.t;
  fabric : Fabric.t;
  ns0 : Netstack.t;
  ns1 : Netstack.t;
  ip0 : Addr.ip;
  ip1 : Addr.ip;
}

let setup () =
  let engine = Engine.create ~seed:21 () in
  let fabric = Fabric.create engine in
  let ns0 = Netstack.create ~node:0 fabric in
  let ns1 = Netstack.create ~node:1 fabric in
  let ip0 = Addr.make_ip 172 16 0 1 and ip1 = Addr.make_ip 172 16 1 1 in
  Netstack.add_ip ns0 ip0;
  Netstack.add_ip ns1 ip1;
  { engine; fabric; ns0; ns1; ip0; ip1 }

let run env = Engine.run ~max_events:200_000 env.engine

let establish ?(port = 7100) env =
  let listener = Netstack.new_socket env.ns1 Socket.Stream in
  (match Netstack.bind env.ns1 listener { Addr.ip = env.ip1; port } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e));
  ignore (Netstack.listen env.ns1 listener 8);
  let client = Netstack.new_socket env.ns0 Socket.Stream in
  (match Netstack.connect_start env.ns0 client { Addr.ip = env.ip1; port } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "connect: %s" (Errno.to_string e));
  run env;
  let server = Option.get (Netstack.accept_take listener) in
  (listener, client, server)

let plain_ns = Namespace.create ()

let recv_str s =
  match s.Socket.dispatch.d_recvmsg s Socket.plain_recv (1 lsl 20) with
  | Socket.Rv_data d -> d
  | _ -> "<none>"

(* --- overlap fix-up (Figure 4) --- *)

let test_trim_overlap () =
  check tstr "no overlap" "abcd" (Sock_state.trim_overlap ~acked:100 ~peer_recv:100 "abcd");
  check tstr "partial" "cd" (Sock_state.trim_overlap ~acked:100 ~peer_recv:102 "abcd");
  check tstr "all" "" (Sock_state.trim_overlap ~acked:100 ~peer_recv:104 "abcd");
  check tstr "beyond" "" (Sock_state.trim_overlap ~acked:100 ~peer_recv:200 "abcd");
  check tstr "negative clamps" "abcd" (Sock_state.trim_overlap ~acked:100 ~peer_recv:50 "abcd")

(* --- classification --- *)

let test_classify () =
  let env = setup () in
  let listener, client, server = establish env in
  check tbool "listener" true (Sock_state.classify listener = `Listener 8);
  check tbool "established full" true (Sock_state.classify client = `Conn Meta.Full);
  Tcp.shutdown_write client;
  check tbool "half out after shutdown" true
    (Sock_state.classify client = `Conn Meta.Half_out);
  run env;
  check tbool "peer half in" true (Sock_state.classify server = `Conn Meta.Half_in);
  let fresh = Netstack.new_socket env.ns0 Socket.Stream in
  check tbool "plain" true (Sock_state.classify fresh = `Plain);
  ignore (Netstack.connect_start env.ns0 fresh { Addr.ip = env.ip1; port = 7100 });
  check tbool "connecting" true (Sock_state.classify fresh = `Conn Meta.Connecting)

(* --- receive-queue extraction --- *)

let test_read_inject_preserves_data () =
  let env = setup () in
  let _, client, server = establish env in
  ignore (Tcp.send_data client "queued data");
  (match Tcp.send_oob client '?' with Ok () -> () | Error _ -> Alcotest.fail "oob");
  run env;
  let im = Sock_state.save ~ns:plain_ns server in
  check tstr "captured queue" "queued data" im.Sock_state.recv_data;
  check tbool "captured oob" true (im.Sock_state.oob = Some '?');
  (* read-inject: a continued run still reads the data, in order *)
  check tbool "interposed" true server.Socket.dispatch.interposed;
  check tstr "data intact for continued run" "queued data" (recv_str server);
  (* a second checkpoint right away captures the same bytes (from the alt
     queue this time) *)
  Socket.install_altqueue server "queued data";
  let im2 = Sock_state.save ~ns:plain_ns server in
  check tstr "second checkpoint sees same data" "queued data" im2.Sock_state.recv_data

let test_peek_mode_misses_oob () =
  let env = setup () in
  let _, client, server = establish env in
  ignore (Tcp.send_data client "visible");
  (match Tcp.send_oob client '!' with Ok () -> () | Error _ -> Alcotest.fail "oob");
  run env;
  let im = Sock_state.save ~mode:Sock_state.Peek ~ns:plain_ns server in
  (* the Cruz-style peek captures the stream but LOSES the urgent byte *)
  check tstr "stream captured" "visible" im.Sock_state.recv_data;
  check tbool "oob lost" true (im.Sock_state.oob = None);
  (* whereas the proper extraction gets both *)
  let im2 = Sock_state.save ~ns:plain_ns server in
  check tbool "read-inject captures oob" true (im2.Sock_state.oob = Some '!')

let test_send_queue_capture () =
  let env = setup () in
  let _, client, _server = establish env in
  (* block the peer so our sent data stays unacknowledged *)
  Zapc_simnet.Netfilter.block (Fabric.netfilter env.fabric) env.ip1;
  ignore (Tcp.send_data client "unacked payload");
  Engine.run ~until:(Simtime.add (Engine.now env.engine) (Simtime.ms 10)) env.engine;
  let im = Sock_state.save ~ns:plain_ns client in
  check tstr "send queue = acked..sent + unsent" "unacked payload" im.Sock_state.send_data;
  let tcb = Option.get client.Socket.tcb in
  check tbool "pcb numbers consistent" true
    (tcb.Socket.snd_nxt - tcb.Socket.snd_una = String.length "unacked payload")

let test_socket_image_roundtrip () =
  let env = setup () in
  let _, client, _ = establish env in
  ignore (Tcp.send_data client "x");
  run env;
  let im = Sock_state.save ~ns:plain_ns client in
  let v = Sock_state.to_value im in
  let im' = Sock_state.of_value v in
  check tbool "roundtrip" true (Value.equal v (Sock_state.to_value im'))

let test_restore_connection_applies_state () =
  let env = setup () in
  let _, client, server = establish env in
  Sockopt.set client.Socket.opts Sockopt.TCP_NODELAY 1;
  ignore (Tcp.send_data client "abc");
  run env;
  let im = Sock_state.save ~ns:plain_ns server in
  (* "re-establish" on a fresh pair and restore *)
  let _, c2, s2 = establish ~port:7200 env in
  Sock_state.restore_connection s2 im ~send_data:"resend me";
  run env;
  check tstr "altq data first" "abc" (recv_str s2);
  check tstr "resent send queue arrives at peer" "resend me" (recv_str c2);
  ignore client

(* --- meta / schedule --- *)

let mk_entry ~lip ~lport ~rip ~rport ~state ~role ~sent ~recv ~acked ~ref_ =
  { Meta.local = { Addr.ip = lip; port = lport };
    remote = { Addr.ip = rip; port = rport };
    state; role; sent; recv; acked; sock_ref = ref_ }

let test_schedule_pairing () =
  let via = 101 and vib = 102 in
  let ma =
    { Meta.pm_pod = 1; pm_vip = via;
      pm_entries =
        [ mk_entry ~lip:via ~lport:5000 ~rip:vib ~rport:33000 ~state:Meta.Full
            ~role:Meta.Accept ~sent:500 ~recv:200 ~acked:450 ~ref_:0 ] }
  in
  let mb =
    { Meta.pm_pod = 2; pm_vip = vib;
      pm_entries =
        [ mk_entry ~lip:vib ~lport:33000 ~rip:via ~rport:5000 ~state:Meta.Full
            ~role:Meta.Connect ~sent:200 ~recv:480 ~acked:180 ~ref_:0 ] }
  in
  let sched = Meta.build_schedule [ ma; mb ] in
  let ea = List.assoc 1 sched and eb = List.assoc 2 sched in
  (match (ea, eb) with
   | [ a ], [ b ] ->
     check tbool "a accepts" true (a.Meta.ri_role = Meta.Accept);
     check tbool "b connects" true (b.Meta.ri_role = Meta.Connect);
     check tbool "not orphans" true ((not a.Meta.ri_orphan) && not b.Meta.ri_orphan);
     (* each side gets the peer's recv for overlap trimming *)
     check tint "a sees b.recv" 480 a.Meta.ri_peer_recv;
     check tint "b sees a.recv" 200 b.Meta.ri_peer_recv
   | _ -> Alcotest.fail "wrong schedule shape")

let test_schedule_orphan_and_connecting () =
  let via = 101 and vib = 102 in
  let ma =
    { Meta.pm_pod = 1; pm_vip = via;
      pm_entries =
        [ mk_entry ~lip:via ~lport:5000 ~rip:vib ~rport:44000 ~state:Meta.Half_in
            ~role:Meta.Accept ~sent:10 ~recv:20 ~acked:10 ~ref_:0;
          mk_entry ~lip:via ~lport:39000 ~rip:vib ~rport:6000 ~state:Meta.Connecting
            ~role:Meta.Connect ~sent:0 ~recv:0 ~acked:0 ~ref_:1 ] }
  in
  (* pod 2 reports nothing: its endpoints are gone *)
  let mb = { Meta.pm_pod = 2; pm_vip = vib; pm_entries = [] } in
  let sched = Meta.build_schedule [ ma; mb ] in
  (match List.assoc 1 sched with
   | [ e ] ->
     check tbool "orphan" true e.Meta.ri_orphan;
     check tint "only non-connecting survive" 0 e.Meta.ri_sock_ref
   | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l))

let test_schedule_shared_source_port () =
  (* two connections born from the same listening socket on pod 1 port 5000:
     both must be re-accepted on pod 1's side (paper section 4) *)
  let via = 101 and vib = 102 and vic = 103 in
  let ma =
    { Meta.pm_pod = 1; pm_vip = via;
      pm_entries =
        [ mk_entry ~lip:via ~lport:5000 ~rip:vib ~rport:33001 ~state:Meta.Full
            ~role:Meta.Accept ~sent:1 ~recv:1 ~acked:1 ~ref_:0;
          mk_entry ~lip:via ~lport:5000 ~rip:vic ~rport:33002 ~state:Meta.Full
            ~role:Meta.Accept ~sent:2 ~recv:2 ~acked:2 ~ref_:1 ] }
  in
  let mb =
    { Meta.pm_pod = 2; pm_vip = vib;
      pm_entries =
        [ mk_entry ~lip:vib ~lport:33001 ~rip:via ~rport:5000 ~state:Meta.Full
            ~role:Meta.Connect ~sent:1 ~recv:1 ~acked:1 ~ref_:0 ] }
  in
  let mc =
    { Meta.pm_pod = 3; pm_vip = vic;
      pm_entries =
        [ mk_entry ~lip:vic ~lport:33002 ~rip:via ~rport:5000 ~state:Meta.Full
            ~role:Meta.Connect ~sent:1 ~recv:1 ~acked:1 ~ref_:0 ] }
  in
  let sched = Meta.build_schedule [ ma; mb; mc ] in
  List.iter
    (fun e -> check tbool "pod1 accepts all" true (e.Meta.ri_role = Meta.Accept))
    (List.assoc 1 sched);
  List.iter
    (fun e -> check tbool "peers connect" true (e.Meta.ri_role = Meta.Connect))
    (List.assoc 2 sched @ List.assoc 3 sched)

let test_meta_value_roundtrip () =
  let m =
    { Meta.pm_pod = 9; pm_vip = 170;
      pm_entries =
        [ mk_entry ~lip:170 ~lport:1 ~rip:171 ~rport:2 ~state:Meta.Closed_data
            ~role:Meta.Connect ~sent:11 ~recv:22 ~acked:33 ~ref_:4 ] }
  in
  let v = Meta.to_value m in
  let m' = Meta.of_value v in
  check tbool "roundtrip" true (Value.equal v (Meta.to_value m'))

(* --- pod-level image --- *)

module Memhog = struct
  type state = int

  let name = "ckpttest.memhog"
  let start _ = 0

  let step phase (_ : Syscall.outcome) =
    match phase with
    | 0 -> (1, Zapc_simos.Program.Sys (Syscall.Mem_alloc ("big", 1_000_000)))
    | 1 -> (2, Zapc_simos.Program.Sys (Syscall.Nanosleep (Simtime.sec 50.0)))
    | _ -> (2, Zapc_simos.Program.Exit 0)

  let to_value p = Value.Int p
  let of_value = Value.to_int
end

(* Exits almost immediately: left unreaped it sits in the pod as a zombie,
   which a checkpoint must record and a restore must re-create as one. *)
module Exiter = struct
  type state = int

  let name = "ckpttest.exiter"
  let start _ = 0

  let step phase (_ : Syscall.outcome) =
    match phase with
    | 0 -> (1, Zapc_simos.Program.Compute 1_000)
    | _ -> (1, Zapc_simos.Program.Exit 7)

  let to_value p = Value.Int p
  let of_value = Value.to_int
end

(* Creates a pipe, writes into it, then sleeps holding both ends. *)
module Piper = struct
  type state = { mutable ph : int; mutable rfd : int; mutable wfd : int }

  let name = "ckpttest.piper"
  let start _ = { ph = 0; rfd = -1; wfd = -1 }

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ ->
      s.ph <- 1;
      (s, Zapc_simos.Program.Sys Syscall.Pipe)
    | 1, Syscall.Ret (Syscall.Rpair (r, w)) ->
      s.rfd <- r;
      s.wfd <- w;
      s.ph <- 2;
      (s, Zapc_simos.Program.Sys (Syscall.Write (w, "pipe-payload")))
    | 2, _ ->
      s.ph <- 3;
      (s, Zapc_simos.Program.Sys (Syscall.Nanosleep (Simtime.sec 50.0)))
    | _, _ -> (s, Zapc_simos.Program.Exit 0)

  let to_value s =
    Value.assoc
      [ ("ph", Value.int s.ph); ("rfd", Value.int s.rfd); ("wfd", Value.int s.wfd) ]

  let of_value v =
    { ph = Value.to_int (Value.field "ph" v);
      rfd = Value.to_int (Value.field "rfd" v);
      wfd = Value.to_int (Value.field "wfd" v) }
end

let () = Program.register_if_absent (module Memhog)
let () = Program.register_if_absent (module Exiter)
let () = Program.register_if_absent (module Piper)

let test_pod_checkpoint_image () =
  let engine = Engine.create ~seed:9 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let pod =
    Pod.create ~pod_id:77 ~name:"imgtest" ~vip:(Addr.make_ip 10 1 0 9)
      ~rip:(Addr.make_ip 172 16 0 9) k
  in
  let p = Pod.spawn pod ~program:"ckpttest.memhog" ~args:Value.Unit in
  Engine.run ~until:(Simtime.ms 5) ~max_events:10000 engine;
  Pod.suspend pod;
  let res = Pod_ckpt.checkpoint pod in
  check tint "memory accounted" 1_000_000 res.Pod_ckpt.memory_bytes;
  check tint "one process" 1 res.Pod_ckpt.proc_count;
  check tbool "logical size > memory" true (Pod_ckpt.logical_size res > 1_000_000);
  (* serialize / reload *)
  let img = Image.of_pod_image res.Pod_ckpt.image in
  let v = Image.to_pod_image img in
  check tint "pod id" 77 (Pod_ckpt.pod_id_of_image v);
  check tstr "name" "imgtest" (Pod_ckpt.name_of_image v);
  (* restore into a fresh pod on a different kernel *)
  let k2 = Kernel.create ~node_id:1 fabric in
  let pod2 =
    Pod.create ~pod_id:78 ~name:"imgtest" ~vip:(Addr.make_ip 10 1 0 9)
      ~rip:(Addr.make_ip 172 16 1 9) k2
  in
  let procs = Pod_ckpt.restore_processes pod2 v ~socket_of_ref:(fun _ -> None) in
  (match procs with
   | [ p2 ] ->
     check tbool "restored stopped" true (p2.Proc.rstate = Proc.Stopped);
     check tbool "pending syscall restored" true
       (match p2.Proc.pending_sys with Some (Syscall.Nanosleep _) -> true | _ -> false);
     check tint "memory restored" 1_000_000 (Zapc_simos.Memory.total p2.Proc.mem);
     check tbool "vpid preserved" true
       (Namespace.vpid_of_rpid pod2.Pod.ns p2.Proc.pid = Some 1);
     (* resume: the restored process finishes its sleep then exits *)
     Pod.resume pod2;
     Engine.run ~max_events:500_000 engine;
     check tbool "runs to completion" true (p2.Proc.exit_code = Some 0)
   | _ -> Alcotest.fail "expected one restored process");
  ignore p

let test_block_deadline_relative () =
  (* a process checkpointed mid-sleep resumes with the *remaining* time *)
  let engine = Engine.create ~seed:9 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let pod =
    Pod.create ~pod_id:79 ~name:"sleepy" ~vip:(Addr.make_ip 10 1 0 8)
      ~rip:(Addr.make_ip 172 16 0 8) k
  in
  let _p = Pod.spawn pod ~program:"ckpttest.memhog" ~args:Value.Unit in
  (* memhog sleeps 50 s; checkpoint at 10 s *)
  Engine.run ~until:(Simtime.sec 10.0) ~max_events:100000 engine;
  Pod.suspend pod;
  let res = Pod_ckpt.checkpoint pod in
  let v = res.Pod_ckpt.image in
  let proc_v = List.hd (Value.to_list (fun x -> x) (Value.field "procs" v)) in
  (match Value.to_option Value.to_int (Value.field "block_remaining" proc_v) with
   | Some rem ->
     check tbool "remaining ~40s" true
       (rem > Simtime.sec 39.0 && rem <= Simtime.sec 41.0)
   | None -> Alcotest.fail "no block deadline saved")

(* --- restore-path regression: zombies --- *)

(* Pre-fix, the checkpoint silently dropped zombie processes (the image had
   one proc instead of two) and a restore could never re-create one; a
   parent blocked in waitpid would then hang forever after restart. *)
let test_zombie_survives_restart () =
  let engine = Engine.create ~seed:11 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let pod =
    Pod.create ~pod_id:81 ~name:"zpod" ~vip:(Addr.make_ip 10 1 0 11)
      ~rip:(Addr.make_ip 172 16 0 11) k
  in
  let _sleeper = Pod.spawn pod ~program:"ckpttest.memhog" ~args:Value.Unit in
  let child = Pod.spawn pod ~program:"ckpttest.exiter" ~args:Value.Unit in
  Engine.run ~until:(Simtime.ms 5) ~max_events:10_000 engine;
  check tbool "child is a zombie" true (child.Proc.rstate = Proc.Zombie);
  check tint "zombie excluded from live members" 1 (Pod.member_count pod);
  Pod.suspend pod;
  let res = Pod_ckpt.checkpoint pod in
  check tint "image records both processes" 2
    (List.length (Value.to_list (fun x -> x) (Value.field "procs" res.Pod_ckpt.image)));
  let v = Image.to_pod_image (Image.of_pod_image res.Pod_ckpt.image) in
  let k2 = Kernel.create ~node_id:1 fabric in
  let pod2 =
    Pod.create ~pod_id:82 ~name:"zpod" ~vip:(Addr.make_ip 10 1 0 11)
      ~rip:(Addr.make_ip 172 16 1 11) k2
  in
  let procs = Pod_ckpt.restore_processes pod2 v ~socket_of_ref:(fun _ -> None) in
  check tint "both processes restored" 2 (List.length procs);
  let z = List.find (fun (p : Proc.t) -> p.Proc.rstate = Proc.Zombie) procs in
  check tbool "zombie exit code preserved" true (z.Proc.exit_code = Some 7);
  check tint "restored zombie off the run queue" 1 (Pod.member_count pod2);
  Pod.resume pod2;
  Engine.run ~max_events:500_000 engine;
  let live = List.find (fun (p : Proc.t) -> p != z) procs in
  check tbool "survivor completes after resume" true (live.Proc.exit_code = Some 0);
  check tbool "zombie never re-ran" true (z.Proc.exit_code = Some 7)

(* --- restore-path regression: pipe identifiers --- *)

let pipe_ids_of procs =
  List.concat_map
    (fun (p : Proc.t) ->
      Zapc_simos.Fdtable.fold p.Proc.fds
        (fun _ e acc ->
          match e with
          | Zapc_simos.Fdtable.Fpipe_r pi | Zapc_simos.Fdtable.Fpipe_w pi ->
            pi.Zapc_simos.Pipe.id :: acc
          | Zapc_simos.Fdtable.Fsock _ | Zapc_simos.Fdtable.Fgm _ -> acc)
        [])
    procs

(* Pre-fix, restore numbered pipes 0,1,... from the image-local index, so
   two pods restored onto one node got colliding kernel pipe ids (and new
   pipes created after restore collided with restored ones). *)
let test_restored_pipe_ids_unique () =
  let engine = Engine.create ~seed:12 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let mk kernel id name sub =
    Pod.create ~pod_id:id ~name ~vip:(Addr.make_ip 10 1 0 sub)
      ~rip:(Addr.make_ip 172 16 sub id) kernel
  in
  let pa = mk k 83 "pipeA" 0 and pb = mk k 84 "pipeB" 0 in
  ignore (Pod.spawn pa ~program:"ckpttest.piper" ~args:Value.Unit);
  ignore (Pod.spawn pb ~program:"ckpttest.piper" ~args:Value.Unit);
  Engine.run ~until:(Simtime.ms 5) ~max_events:10_000 engine;
  Pod.suspend pa;
  Pod.suspend pb;
  let ia = Image.to_pod_image (Image.of_pod_image (Pod_ckpt.checkpoint pa).Pod_ckpt.image) in
  let ib = Image.to_pod_image (Image.of_pod_image (Pod_ckpt.checkpoint pb).Pod_ckpt.image) in
  (* restore both pods onto ONE destination node *)
  let k2 = Kernel.create ~node_id:1 fabric in
  let ra = mk k2 93 "pipeA" 1 and rb = mk k2 94 "pipeB" 1 in
  let procs_a = Pod_ckpt.restore_processes ra ia ~socket_of_ref:(fun _ -> None) in
  let procs_b = Pod_ckpt.restore_processes rb ib ~socket_of_ref:(fun _ -> None) in
  let ids = List.sort_uniq Int.compare (pipe_ids_of procs_a @ pipe_ids_of procs_b) in
  (* one pipe per pod (each referenced by two fds): two distinct kernel ids *)
  check tint "distinct kernel pipe ids" 2 (List.length ids);
  (* the allocator advanced past the restored ids: a new pipe cannot collide *)
  check tbool "fresh id collides with nothing" true
    (not (List.mem (Kernel.alloc_pipe_id k2) ids))

(* --- dirty-region tracking --- *)

let test_memory_dirty_tracking () =
  let m = Memory.create () in
  Memory.alloc m "a" 100;
  Memory.alloc m "b" 50;
  check tint "everything dirty after alloc" 150 (Memory.dirty_bytes m);
  Memory.clear_dirty m;
  check tint "clean after clear" 0 (Memory.dirty_bytes m);
  let v0 = Memory.version m in
  Memory.touch m "a";
  check tint "touch marks the region" 100 (Memory.dirty_bytes m);
  check tbool "touch bumps version" true (Memory.version m > v0);
  Memory.touch m "nonexistent";
  check tint "unknown touch ignored" 100 (Memory.dirty_bytes m);
  Memory.free m "b";
  check tint "freed region contributes nothing" 100 (Memory.dirty_bytes m);
  check tbool "the free itself is recorded" true
    (Memory.dirty_regions m = [ "a"; "b" ]);
  Memory.alloc m "a" 120;
  check tint "resize accounted" 120 (Memory.dirty_bytes m)

(* --- delta chains in storage --- *)

(* One pod checkpointed at three instants; full at t1, deltas at t2/t3. *)
let delta_env ?metrics () =
  let engine = Engine.create ~seed:13 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let pod =
    Pod.create ~pod_id:85 ~name:"deltapod" ~vip:(Addr.make_ip 10 1 0 14)
      ~rip:(Addr.make_ip 172 16 0 14) k
  in
  ignore (Pod.spawn pod ~program:"ckpttest.memhog" ~args:Value.Unit);
  let storage = Storage.create ?metrics ~trace:(Zapc.Trace.create ()) engine in
  let snap at =
    Engine.run ~until:at ~max_events:100_000 engine;
    Pod.suspend pod;
    let res = Pod_ckpt.checkpoint pod in
    Pod.resume pod;
    res
  in
  (engine, pod, storage, snap)

let test_delta_chain_byte_identity () =
  let _, pod, storage, snap = delta_env () in
  let r1 = snap (Simtime.ms 5) in
  (match Storage.put storage "base" (Image.of_pod_image r1.Pod_ckpt.image) with
   | Ok () -> Pod_ckpt.clear_memory_dirty pod
   | Error e -> Alcotest.failf "put base: %s" e);
  let r2 = snap (Simtime.ms 10) in
  let full2 = Image.of_pod_image r2.Pod_ckpt.image in
  let d12 =
    Delta.make ~base_key:"base" ~base:r1.Pod_ckpt.image ~full:r2.Pod_ckpt.image
      ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod)
  in
  let di12 = Image.of_pod_image d12 in
  check tbool "image recognized as delta" true (di12.Image.base_key = Some "base");
  (* the sleeping memhog never re-touches its region: the delta carries the
     changed process records but none of the 1 MB address space *)
  check tbool "delta is much smaller than the full" true
    (di12.Image.logical_size * 2 <= full2.Image.logical_size);
  (match Storage.put storage "d1" di12 with Ok () -> () | Error e -> Alcotest.failf "put d1: %s" e);
  (* materialization is byte-identical to the full image at the same instant *)
  (match Storage.get storage "d1" with
   | None -> Alcotest.fail "delta did not materialize"
   | Some v ->
     check tbool "value identical" true (Value.equal v r2.Pod_ckpt.image);
     check tstr "wire bytes identical" full2.Image.encoded (Wire.encode v);
     check tint "logical size identical" full2.Image.logical_size
       (Image.of_pod_image v).Image.logical_size);
  (* chain one more link and check the whole chain still materializes *)
  Pod_ckpt.clear_memory_dirty pod;
  let r3 = snap (Simtime.ms 15) in
  let d23 =
    Delta.make ~base_key:"d1" ~base:r2.Pod_ckpt.image ~full:r3.Pod_ckpt.image
      ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod)
  in
  (match Storage.put storage "d2" (Image.of_pod_image d23) with
   | Ok () -> () | Error e -> Alcotest.failf "put d2: %s" e);
  check tbool "chain structure visible" true (Storage.base_key storage "d2" = Some "d1");
  (match Storage.get storage "d2" with
   | None -> Alcotest.fail "two-link chain did not materialize"
   | Some v ->
     check tstr "two-link chain byte-identical"
       (Image.of_pod_image r3.Pod_ckpt.image).Image.encoded (Wire.encode v))

let test_delta_chain_corruption_and_gc () =
  let metrics = Zapc_obs.Metrics.create () in
  let _, pod, storage, snap = delta_env ~metrics () in
  let r1 = snap (Simtime.ms 5) in
  ignore (Storage.put storage "base" (Image.of_pod_image r1.Pod_ckpt.image));
  Pod_ckpt.clear_memory_dirty pod;
  let r2 = snap (Simtime.ms 10) in
  let d12 =
    Delta.make ~base_key:"base" ~base:r1.Pod_ckpt.image ~full:r2.Pod_ckpt.image
      ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod)
  in
  ignore (Storage.put storage "d1" (Image.of_pod_image d12));
  Pod_ckpt.clear_memory_dirty pod;
  let r3 = snap (Simtime.ms 15) in
  let d23 =
    Delta.make ~base_key:"d1" ~base:r2.Pod_ckpt.image ~full:r3.Pod_ckpt.image
      ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod)
  in
  ignore (Storage.put storage "d2" (Image.of_pod_image d23));
  let want = (Image.of_pod_image r3.Pod_ckpt.image).Image.encoded in
  (* corrupt the PRIMARY copy of the middle link: every read of the chain
     must fall back to the healthy replica and still materialize exactly *)
  check tbool "corrupt middle link primary" true (Storage.corrupt storage ~replica:0 "d1");
  (match Storage.get storage "d2" with
   | None -> Alcotest.fail "chain must survive a corrupt primary"
   | Some v -> check tstr "replica fallback byte-identical" want (Wire.encode v));
  check tbool "corruption was detected" true
    (Zapc_obs.Metrics.counter metrics "storage.corruption_detected" > 0);
  (* kill the last healthy copy of the middle link: the chain is broken *)
  check tbool "corrupt middle link replica" true (Storage.corrupt storage ~replica:1 "d1");
  check tbool "broken chain yields no image" true (Storage.get storage "d2" = None);
  (* GC safety: removing a pinned base hides it but keeps the chain readable *)
  let _, pod2, storage2, snap2 =
    let e = delta_env () in
    e
  in
  let s1 = snap2 (Simtime.ms 5) in
  ignore (Storage.put storage2 "base" (Image.of_pod_image s1.Pod_ckpt.image));
  Pod_ckpt.clear_memory_dirty pod2;
  let s2 = snap2 (Simtime.ms 10) in
  let sd =
    Delta.make ~base_key:"base" ~base:s1.Pod_ckpt.image ~full:s2.Pod_ckpt.image
      ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod2)
  in
  ignore (Storage.put storage2 "d1" (Image.of_pod_image sd));
  Storage.remove storage2 "base";
  check tbool "condemned base hidden from the namespace" true
    (not (List.mem "base" (Storage.keys storage2)));
  check tbool "condemned base no longer gettable" true (Storage.get storage2 "base" = None);
  (match Storage.get storage2 "d1" with
   | None -> Alcotest.fail "chain over a condemned base must stay readable"
   | Some v ->
     check tstr "still byte-identical" (Image.of_pod_image s2.Pod_ckpt.image).Image.encoded
       (Wire.encode v));
  (* deleting the last referencing delta reclaims the base's bytes *)
  Storage.remove storage2 "d1";
  check tbool "cascade reclaimed everything" true (Storage.keys storage2 = [])

(* --- live-migration pre-copy properties --------------------------------
   The destination of a live migration folds round deltas over the round-0
   full image and finally the stop-and-copy residue (the Agent's
   receive_round / land_image).  Whatever the touch pattern, that composition must
   be Value- and byte-identical to a plain stop-and-copy image taken at the
   final instant; and when the dirty rate decays, the per-round residue must
   shrink monotonically. *)

let mig_pod_seq = ref 9000

let precopy_env () =
  incr mig_pod_seq;
  let engine = Engine.create ~seed:!mig_pod_seq () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let pod =
    Pod.create ~pod_id:!mig_pod_seq ~name:"migpod" ~vip:(Addr.make_ip 10 1 0 21)
      ~rip:(Addr.make_ip 172 16 0 21) k
  in
  ignore (Pod.spawn pod ~program:"ckpttest.memhog" ~args:Value.Unit);
  Engine.run ~until:(Simtime.ms 2) ~max_events:100_000 engine;
  (engine, pod)

let proc_mem pod =
  match Pod.members pod with
  | (_, (p : Proc.t)) :: _ -> p.Proc.mem
  | [] -> Alcotest.fail "pod has no live process"

let region i = Printf.sprintf "r%d" i

(* Emulate one source-side pre-copy round: capture the running pod, clear
   the dirty set (capture-and-clear, as Agent.precopy_round does), diff against
   the previous capture. *)
let capture_round pod ~last =
  let r = Pod_ckpt.checkpoint ~mode:Sock_state.Peek pod in
  let dirty = Pod_ckpt.snapshot_memory_dirty pod in
  let d = Delta.make ~base_key:"mig" ~base:last ~full:r.Pod_ckpt.image ~dirty_bytes:dirty in
  (r.Pod_ckpt.image, d)

let precopy_case_gen =
  let open QCheck.Gen in
  let sizes = list_size (int_range 2 6) (int_range 1_000 80_000) in
  (* (region index, new size); size 0 = touch without resizing *)
  let touch = pair (int_bound 7) (oneof [ return 0; int_range 500 60_000 ]) in
  let round = list_size (int_range 0 5) touch in
  pair sizes (list_size (int_range 1 4) round)

let prop_precopy_composition_identity =
  QCheck.Test.make ~name:"pre-copy composition is byte-identical to stop-and-copy"
    ~count:60 (QCheck.make precopy_case_gen) (fun (sizes, rounds) ->
      let engine, pod = precopy_env () in
      let mem = proc_mem pod in
      let sizes = Array.of_list sizes in
      Array.iteri (fun i sz -> Memory.alloc mem (region i) sz) sizes;
      (* round 0 ships the full image of the running pod *)
      let r0 = Pod_ckpt.checkpoint ~mode:Sock_state.Peek pod in
      ignore (Pod_ckpt.snapshot_memory_dirty pod);
      let staged = ref r0.Pod_ckpt.image in
      let last = ref r0.Pod_ckpt.image in
      List.iteri
        (fun k touches ->
          Engine.run ~until:(Simtime.ms (4 + k)) ~max_events:100_000 engine;
          List.iter
            (fun (i, sz) ->
              let name = region (i mod Array.length sizes) in
              if sz = 0 then Memory.touch mem name else Memory.alloc mem name sz)
            touches;
          let image, d = capture_round pod ~last:!last in
          staged := Delta.apply ~base:!staged d;
          last := image)
        rounds;
      (* the final stop-and-copy: residue of the now-suspended pod *)
      Pod.suspend pod;
      let rf = Pod_ckpt.checkpoint pod in
      let residue =
        Delta.make ~base_key:"mig" ~base:!last ~full:rf.Pod_ckpt.image
          ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod)
      in
      let final = Delta.apply ~base:!staged residue in
      let want = Image.of_pod_image rf.Pod_ckpt.image in
      let got = Image.of_pod_image final in
      Value.equal final rf.Pod_ckpt.image
      && String.equal want.Image.encoded got.Image.encoded
      && Image.checksum want = Image.checksum got)

let prop_precopy_residue_monotone =
  QCheck.Test.make ~name:"residue shrinks monotonically under a decaying dirty rate"
    ~count:40
    (QCheck.make QCheck.Gen.(pair (int_range 8 16) (int_range 4_000 40_000)))
    (fun (nregions, size) ->
      let engine, pod = precopy_env () in
      let mem = proc_mem pod in
      for i = 0 to nregions - 1 do
        Memory.alloc mem (region i) size
      done;
      let r0 = Pod_ckpt.checkpoint ~mode:Sock_state.Peek pod in
      ignore (Pod_ckpt.snapshot_memory_dirty pod);
      let last = ref r0.Pod_ckpt.image in
      let residues = ref [] in
      (* round k re-touches nregions / 2^k regions: a decaying dirty rate *)
      let touched = ref nregions in
      for k = 1 to 4 do
        touched := Stdlib.max 1 (!touched / 2);
        Engine.run ~until:(Simtime.ms (2 + k)) ~max_events:100_000 engine;
        for i = 0 to !touched - 1 do
          Memory.touch mem (region i)
        done;
        let image, d = capture_round pod ~last:!last in
        residues := (Image.of_pod_image d).Image.logical_size :: !residues;
        last := image
      done;
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      non_increasing (List.rev !residues))

(* --- storage backends: COW shadows, heal re-replication, dedup, buddy --- *)

module Metrics = Zapc_obs.Metrics
module ZParams = Zapc.Params
module Chunk = Zapc_ckpt.Chunk
module Compress = Zapc_ckpt.Compress

(* delta_env with a readable metrics registry and a configurable backend. *)
let delta_env_m ?backend ?compress ?nodes () =
  let engine = Engine.create ~seed:13 () in
  let fabric = Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let pod =
    Pod.create ~pod_id:85 ~name:"deltapod" ~vip:(Addr.make_ip 10 1 0 14)
      ~rip:(Addr.make_ip 172 16 0 14) k
  in
  ignore (Pod.spawn pod ~program:"ckpttest.memhog" ~args:Value.Unit);
  let metrics = Metrics.create () in
  let storage =
    Storage.create ~trace:(Zapc.Trace.create ()) ~metrics ?backend ?compress
      ?nodes engine
  in
  let snap at =
    Engine.run ~until:at ~max_events:100_000 engine;
    Pod.suspend pod;
    let res = Pod_ckpt.checkpoint pod in
    Pod.resume pod;
    res
  in
  (engine, pod, storage, metrics, snap)

(* Regression (storage bugfix 1): overwriting a key that live deltas are
   pinned on must not swap the bytes their chains resolve against.  Pre-fix,
   [put] replaced the stored bytes in place and [get] of the delta
   materialized a WRONG image with a valid per-link checksum. *)
let test_overwrite_pinned_base_cow () =
  let _, pod, storage, metrics, snap = delta_env_m () in
  let r1 = snap (Simtime.ms 5) in
  ignore (Storage.put storage "base" (Image.of_pod_image r1.Pod_ckpt.image));
  Pod_ckpt.clear_memory_dirty pod;
  let r2 = snap (Simtime.ms 10) in
  let want = (Image.of_pod_image r2.Pod_ckpt.image).Image.encoded in
  let d12 =
    Delta.make ~base_key:"base" ~base:r1.Pod_ckpt.image ~full:r2.Pod_ckpt.image
      ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod)
  in
  ignore (Storage.put storage "d1" (Image.of_pod_image d12));
  (* overwrite the pinned base with a later full image *)
  Pod_ckpt.clear_memory_dirty pod;
  let r3 = snap (Simtime.ms 15) in
  let r3_bytes = (Image.of_pod_image r3.Pod_ckpt.image).Image.encoded in
  ignore (Storage.put storage "base" (Image.of_pod_image r3.Pod_ckpt.image));
  check tbool "old base kept under a COW shadow" true
    (Metrics.counter metrics "storage.cow_preserved" = 1);
  (match Storage.get storage "d1" with
   | None -> Alcotest.fail "chain must survive its base being overwritten"
   | Some v ->
     check tstr "delta still materializes the ORIGINAL bytes" want (Wire.encode v));
  (match Storage.get storage "base" with
   | None -> Alcotest.fail "overwritten base must be readable"
   | Some v -> check tstr "public key serves the new bytes" r3_bytes (Wire.encode v));
  (* dropping the last referencing delta reclaims the shadow *)
  Storage.remove storage "d1";
  check tbool "namespace: only base remains" true (Storage.keys storage = [ "base" ]);
  (match Storage.get storage "base" with
   | Some v -> check tstr "base unaffected by shadow GC" r3_bytes (Wire.encode v)
   | None -> Alcotest.fail "base lost by shadow GC")

(* Regression (storage bugfix 3): a copy skipped by a per-replica outage
   during [put] must be backfilled by [heal_replicas].  Pre-fix, heal only
   cleared the outage flag and the key ran below its replication factor
   forever — a later primary outage then lost the only copy. *)
let test_heal_rereplicates () =
  let _, pod, storage, metrics, snap = delta_env_m () in
  let r1 = snap (Simtime.ms 5) in
  ignore (Storage.put storage "k0" (Image.of_pod_image r1.Pod_ckpt.image));
  check tbool "k0 on both replicas" true
    (Storage.replica_has storage ~replica:0 "k0"
     && Storage.replica_has storage ~replica:1 "k0");
  Storage.set_replica_fail storage ~replica:1 (Some "outage");
  Pod_ckpt.clear_memory_dirty pod;
  let r2 = snap (Simtime.ms 10) in
  let want = (Image.of_pod_image r2.Pod_ckpt.image).Image.encoded in
  ignore (Storage.put storage "k1" (Image.of_pod_image r2.Pod_ckpt.image));
  check tbool "outaged replica missed the put" true
    (not (Storage.replica_has storage ~replica:1 "k1"));
  Storage.heal_replicas storage;
  check tbool "heal backfilled the missing copy" true
    (Storage.replica_has storage ~replica:1 "k1");
  check tbool "re-replication counted" true
    (Metrics.counter metrics "storage.rereplicated" >= 1);
  (* the backfilled copy is a real copy: it alone can serve the key *)
  Storage.set_replica_fail storage ~replica:0 (Some "down");
  (match Storage.get storage "k1" with
   | None -> Alcotest.fail "backfilled replica must serve the read"
   | Some got -> check tstr "byte-identical from the backfill" want (Wire.encode got))

(* Hand-rolled full image with explicit region tags, for dedup tests:
   sibling ranks declare the same regions, so their chunks share
   addresses. *)
let mk_img ?(regions = []) ~pod_id ~name ~mem () =
  Image.of_pod_image
    (Value.assoc
       [ ("pod_id", Value.int pod_id); ("name", Value.str name);
         ("memory_bytes", Value.int mem);
         ("procs",
          Value.list
            (fun x -> x)
            [ Value.assoc
                [ ("mem",
                   Value.Assoc
                     (List.map
                        (fun (n, s, g) ->
                          (n, Value.List [ Value.Int s; Value.Int g ]))
                        regions)) ] ]) ])

(* Dedup-aware entry GC: removing one sibling's epoch must not free
   chunks shared with another sibling. *)
let test_dedup_sibling_gc () =
  let engine = Engine.create ~seed:7 () in
  let metrics = Metrics.create () in
  let storage =
    Storage.create ~trace:(Zapc.Trace.create ()) ~metrics
      ~backend:ZParams.Sb_dedup engine
  in
  let mb = 1 lsl 20 in
  let regions = [ ("bt.rss", mb, 1) ] in
  let a = mk_img ~regions ~pod_id:1 ~name:"rank0" ~mem:mb () in
  let b = mk_img ~regions ~pod_id:2 ~name:"rank1" ~mem:mb () in
  ignore (Storage.put storage "e0.pod1" a);
  let unique_a = Metrics.counter metrics "storage.dedup_bytes_unique" in
  ignore (Storage.put storage "e0.pod2" b);
  let unique_ab = Metrics.counter metrics "storage.dedup_bytes_unique" in
  (* the sibling's modelled memory dedupes; only its (tiny) distinct
     encoded bytes are new *)
  check tbool "sibling's memory fully dedupes" true
    (unique_ab - unique_a < a.Image.logical_size / 4);
  check tbool "dedup factor reflects the sharing" true
    (Metrics.gauge metrics "storage.dedup_factor" > 1.5);
  let freed_before = Metrics.counter metrics "storage.dedup_chunks_freed" in
  Storage.remove storage "e0.pod1";
  (* pod1's own encoded chunks may go, the shared region chunks must not *)
  (match Storage.get storage "e0.pod2" with
   | None -> Alcotest.fail "sibling read broken by the other's GC"
   | Some got -> check tstr "sibling bytes intact" b.Image.encoded (Wire.encode got));
  Storage.remove storage "e0.pod2";
  check tbool "last reference frees the shared chunks" true
    (Metrics.counter metrics "storage.dedup_chunks_freed" > freed_before);
  check tbool "store empty" true (Storage.keys storage = [])

(* Restart byte-identity across every backend x compression combination:
   the same full+delta chain, stored and materialized, must come back
   checksum-equal everywhere (the deterministic seed makes the captured
   images identical across environments). *)
let test_backend_restart_byte_identity () =
  let run backend compress =
    let _, pod, storage, _metrics, snap = delta_env_m ~backend ~compress () in
    let r1 = snap (Simtime.ms 5) in
    (match Storage.put storage "base" (Image.of_pod_image r1.Pod_ckpt.image) with
     | Ok () -> ()
     | Error e -> Alcotest.failf "put base: %s" e);
    Pod_ckpt.clear_memory_dirty pod;
    let r2 = snap (Simtime.ms 10) in
    let d =
      Delta.make ~base_key:"base" ~base:r1.Pod_ckpt.image ~full:r2.Pod_ckpt.image
        ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod)
    in
    (match Storage.put storage "d1" (Image.of_pod_image d) with
     | Ok () -> ()
     | Error e -> Alcotest.failf "put d1: %s" e);
    match Storage.get storage "d1" with
    | None -> Alcotest.fail "chain must materialize"
    | Some v ->
      let img = Image.of_pod_image v in
      (img.Image.encoded, Image.checksum img)
  in
  let ref_bytes, ref_sum = run ZParams.Sb_plain false in
  List.iter
    (fun (b, c, label) ->
      let bytes, sum = run b c in
      check tstr (label ^ ": bytes identical") ref_bytes bytes;
      check tbool (label ^ ": checksum identical") true (sum = ref_sum))
    [ (ZParams.Sb_plain, true, "plain+compress");
      (ZParams.Sb_dedup, false, "dedup");
      (ZParams.Sb_dedup, true, "dedup+compress");
      (ZParams.Sb_buddy, false, "buddy");
      (ZParams.Sb_buddy, true, "buddy+compress") ]

(* Buddy backend: copies live in two nodes' RAM; a node death re-buddies
   the surviving copy and the data stays readable. *)
let test_buddy_reassign_on_death () =
  let engine = Engine.create ~seed:11 () in
  let metrics = Metrics.create () in
  let storage =
    Storage.create ~trace:(Zapc.Trace.create ()) ~metrics
      ~backend:ZParams.Sb_buddy ~nodes:4 engine
  in
  let img = mk_img ~pod_id:3 ~name:"svc" ~mem:65536 () in
  (match Storage.put ~node:1 storage "b.pod3" img with
   | Ok () -> ()
   | Error e -> Alcotest.failf "buddy put: %s" e);
  check tbool "owner holds a copy" true (Storage.replica_has storage ~replica:0 "b.pod3");
  check tbool "partner holds a copy" true (Storage.replica_has storage ~replica:1 "b.pod3");
  (* the owner dies: the partner's copy survives and is re-buddied *)
  Storage.node_died storage 1;
  check tbool "reassignment counted" true
    (Metrics.counter metrics "storage.buddy_reassigned" = 1);
  (match Storage.get storage "b.pod3" with
   | None -> Alcotest.fail "buddy data must survive the owner's death"
   | Some got -> check tstr "bytes intact after re-buddy" img.Image.encoded (Wire.encode got));
  check tbool "still two live copies" true
    (Storage.replica_has storage ~replica:0 "b.pod3"
     && Storage.replica_has storage ~replica:1 "b.pod3");
  (* both remaining holders die: the entry is lost (the peer-memory
     trade-off) *)
  Storage.node_died storage 2;
  Storage.node_died storage 3;
  Storage.node_died storage 0;
  check tbool "data lost with its last holder" true
    (Storage.get storage "b.pod3" = None);
  check tbool "loss counted" true (Metrics.counter metrics "storage.buddy_lost" >= 1)

(* Regression: a buddy slot that missed a put during its outage is
   backfilled by [heal_replicas], exactly like a SAN replica.  Pre-fix,
   heal only cleared the outage on the buddy backend and the key ran on
   one copy. *)
let test_buddy_heal_backfills () =
  let engine = Engine.create ~seed:11 () in
  let metrics = Metrics.create () in
  let storage =
    Storage.create ~trace:(Zapc.Trace.create ()) ~metrics
      ~backend:ZParams.Sb_buddy ~nodes:4 engine
  in
  let img = mk_img ~pod_id:3 ~name:"svc" ~mem:65536 () in
  Storage.set_replica_fail storage ~replica:1 (Some "outage");
  (match Storage.put ~node:1 storage "b.pod3" img with
   | Ok () -> ()
   | Error e -> Alcotest.failf "buddy put: %s" e);
  check tbool "partner missed the put" false (Storage.replica_has storage ~replica:1 "b.pod3");
  Storage.heal_replicas storage;
  check tbool "heal backfilled the partner" true
    (Storage.replica_has storage ~replica:1 "b.pod3");
  check tint "re-replication counted" 1 (Metrics.counter metrics "storage.rereplicated");
  Storage.set_replica_fail storage ~replica:0 (Some "down");
  match Storage.get storage "b.pod3" with
  | None -> Alcotest.fail "the backfilled partner must serve the read"
  | Some got -> check tstr "bytes from the backfill" img.Image.encoded (Wire.encode got)

(* Regression: [mem] honours slot outages on the buddy backend, as it does
   on the SAN.  Pre-fix it answered true with both copies outaged. *)
let test_buddy_mem_outage () =
  let engine = Engine.create ~seed:11 () in
  let storage =
    Storage.create ~trace:(Zapc.Trace.create ()) ~backend:ZParams.Sb_buddy
      ~nodes:4 engine
  in
  ignore (Storage.put ~node:2 storage "k" (mk_img ~pod_id:1 ~name:"p" ~mem:4096 ()));
  Storage.set_replica_fail storage ~replica:0 (Some "down");
  check tbool "partner still answers" true (Storage.mem storage "k");
  Storage.set_replica_fail storage ~replica:1 (Some "down");
  check tbool "both slots outaged" false (Storage.mem storage "k");
  check tbool "get agrees" true (Storage.get storage "k" = None)

let put_ok ?node storage key img =
  match Storage.put ?node storage key img with
  | Ok () -> ()
  | Error e -> Alcotest.failf "put %s: %s" key e

(* An overwrite counts storage.cow_preserved, and a remove
   storage.gc_deferred, only when a live delta still holds the key's entry;
   the last delta to go frees the entry it held. *)
let test_retire_counts_held_entries () =
  let metrics = Metrics.create () in
  let storage =
    Storage.create ~trace:(Zapc.Trace.create ()) ~metrics (Engine.create ~seed:1 ())
  in
  let img = mk_img ~pod_id:1 ~name:"p" ~mem:4096 () in
  let delta = { img with Image.base_key = Some "base" } in
  let counts () =
    (Metrics.counter metrics "storage.cow_preserved", Metrics.counter metrics "storage.gc_deferred")
  in
  let tcounts = Alcotest.(pair int int) in
  put_ok storage "base" img;
  put_ok storage "base" img;
  Storage.remove storage "base";
  check tcounts "nothing held, nothing counted" (0, 0) (counts ());
  put_ok storage "base" img;
  put_ok storage "d1" delta;
  put_ok storage "base" img;
  check tcounts "an overwrite of a held entry" (1, 0) (counts ());
  Storage.remove storage "base";
  check tcounts "the new entry is not held" (1, 0) (counts ());
  put_ok storage "base" img;
  put_ok storage "d2" delta;
  Storage.remove storage "base";
  check tcounts "a remove of a held entry" (1, 1) (counts ());
  Storage.remove storage "d1";
  Storage.remove storage "d2";
  check (Alcotest.list tstr) "counts recount" [] (Storage.check_refs storage);
  check (Alcotest.list tstr) "store empty" [] (Storage.keys storage)

(* A full image under "base" at 5 ms, then a delta d1..dN every 5 ms, each
   on the one before.  Returns the first and the last full image. *)
let put_chain ?node (_, pod, storage, _, snap) depth =
  let r0 = snap (Simtime.ms 5) in
  put_ok ?node storage "base" (Image.of_pod_image r0.Pod_ckpt.image);
  let last =
    List.fold_left
      (fun (base_key, base) i ->
        Pod_ckpt.clear_memory_dirty pod;
        let r = snap (Simtime.ms (5 * (i + 1))) in
        let key = Printf.sprintf "d%d" i in
        put_ok ?node storage key
          (Image.of_pod_image
             (Delta.make ~base_key ~base ~full:r.Pod_ckpt.image
                ~dirty_bytes:(Pod_ckpt.dirty_memory_bytes pod)));
        (key, r.Pod_ckpt.image))
      ("base", r0.Pod_ckpt.image)
      (List.init depth (fun i -> i + 1))
    |> snd
  in
  (r0.Pod_ckpt.image, last)

(* [get] resolves each chain link once: a depth-3 chain is one get and
   three delta applications, and its value encodes to the full checkpoint
   of the same instant.  A delta naming a vpid its base lacks breaks the
   chain: one chain_broken, one miss, no image. *)
let test_get_chain_counters () =
  let ((_, _, storage, metrics, _) as env) = delta_env_m () in
  let counter = Metrics.counter metrics in
  let put = put_ok storage in
  let r0, last = put_chain env 3 in
  let gets = counter "storage.gets" and resolved = counter "storage.delta_resolved" in
  (match Storage.get storage "d3" with
   | None -> Alcotest.fail "depth-3 chain did not resolve"
   | Some v ->
     check tstr "value encodes to the full checkpoint"
       (Image.of_pod_image last).Image.encoded (Wire.encode v));
  check tint "one get" (gets + 1) (counter "storage.gets");
  check tint "three links applied" (resolved + 3) (counter "storage.delta_resolved");
  (* a base without processes: the delta's procs_order names a vpid that
     neither the base nor the delta carries *)
  let hollow =
    match r0 with
    | Value.Assoc kvs ->
      Value.Assoc (List.map (fun (k, x) -> if k = "procs" then (k, Value.List []) else (k, x)) kvs)
    | v -> v
  in
  put "hollow" (Image.of_pod_image hollow);
  put "broken"
    (Image.of_pod_image
       (Delta.make ~base_key:"hollow" ~base:last ~full:last ~dirty_bytes:0));
  let broken = counter "storage.chain_broken" and misses = counter "storage.get_misses" in
  check tbool "broken chain yields no image" true (Storage.get storage "broken" = None);
  check tint "one chain_broken" (broken + 1) (counter "storage.chain_broken");
  check tint "one miss" (misses + 1) (counter "storage.get_misses")

(* Every storage.* counter, by name. *)
let storage_counters metrics =
  List.filter_map
    (fun n ->
      if String.starts_with ~prefix:"storage." n then Some (n, Metrics.counter metrics n)
      else None)
    (Metrics.names metrics)

(* [base_key] reads the chain structure without verifying: a delta whose
   every copy is corrupt still names its base, counting nothing, while a
   verifying [get] misses. *)
let test_base_key_unverified () =
  let ((_, _, storage, metrics, _) as env) = delta_env_m () in
  ignore (put_chain env 1);
  check tbool "corrupt slot 0" true (Storage.corrupt storage ~replica:0 "d1");
  check tbool "corrupt slot 1" true (Storage.corrupt storage ~replica:1 "d1");
  let before = storage_counters metrics in
  check (Alcotest.option tstr) "base answered" (Some "base") (Storage.base_key storage "d1");
  check (Alcotest.option tstr) "a full image has no base" None (Storage.base_key storage "base");
  check (Alcotest.option tstr) "an absent key has no base" None (Storage.base_key storage "nope");
  check tbool "base_key counts nothing" true (storage_counters metrics = before);
  check tbool "get misses" true (Storage.get storage "d1" = None);
  check tbool "get detected the corruption" true
    (Metrics.counter metrics "storage.corruption_detected"
     > Option.value ~default:0 (List.assoc_opt "storage.corruption_detected" before))

(* The counter increments between two snapshots, zeros left out. *)
let counter_growth before after =
  List.filter_map
    (fun (n, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt n before) in
      if d <> 0 then Some (n, d) else None)
    after

(* Two reads served the same answer: the same value, or both nothing. *)
let same_read a b =
  match a, b with
  | Some x, Some y -> x == y
  | None, None -> true
  | Some _, None | None, Some _ -> false

(* A repeated [get] in one store generation returns the physically equal
   value and grows the storage counters by exactly what the resolving read
   grew them by: a depth-4 chain, a fallback past an outaged slot 0, and an
   absent key. *)
let test_get_memo_replays () =
  let ((_, _, storage, metrics, _) as env) = delta_env_m () in
  let _, last = put_chain env 4 in
  let twice what key ~expect =
    let c0 = storage_counters metrics in
    let first = Storage.get storage key in
    let c1 = storage_counters metrics in
    let second = Storage.get storage key in
    let c2 = storage_counters metrics in
    check tbool (what ^ ": same value") true (same_read first second);
    check tbool (what ^ ": counters replayed") true
      (counter_growth c0 c1 = counter_growth c1 c2);
    check (Alcotest.list (Alcotest.pair tstr tint)) (what ^ ": resolving read") expect
      (List.sort compare (counter_growth c0 c1));
    first
  in
  (match
     twice "depth-4 chain" "d4"
       ~expect:[ ("storage.delta_resolved", 4); ("storage.gets", 1) ]
   with
   | Some v ->
     check tstr "chain value" (Image.of_pod_image last).Image.encoded (Wire.encode v)
   | None -> Alcotest.fail "depth-4 chain did not resolve");
  Storage.set_replica_fail storage ~replica:0 (Some "down");
  ignore
    (twice "slot 0 outaged" "d2"
       ~expect:
         [ ("storage.delta_resolved", 2); ("storage.gets", 1);
           ("storage.replica_fallbacks", 3) ]);
  ignore
    (twice "absent key" "nope" ~expect:[ ("storage.get_misses", 1); ("storage.gets", 1) ])

(* Each call that changes what a read can see forces a fresh resolve, and
   [take] drops its key's memo entry. *)
let test_get_memo_invalidation () =
  let fresh_after what ?(backend = ZParams.Sb_plain) mutate =
    let ((_, _, storage, metrics, _) as env) = delta_env_m ~backend ~nodes:4 () in
    ignore (put_chain ~node:1 env 2);
    let first = Storage.get storage "d2" in
    check tbool (what ^ ": memoized") true (same_read first (Storage.get storage "d2"));
    mutate storage;
    let gets = Metrics.counter metrics "storage.gets" in
    let again = Storage.get storage "d2" in
    check tbool (what ^ ": resolved again") false (same_read first again);
    check tint (what ^ ": one get counted") (gets + 1) (Metrics.counter metrics "storage.gets");
    (storage, metrics, again)
  in
  let img = mk_img ~pod_id:9 ~name:"other" ~mem:4096 () in
  ignore (fresh_after "put to another key" (fun st -> put_ok st "other" img));
  ignore (fresh_after "remove" (fun st -> Storage.remove st "d1"));
  ignore (fresh_after "set_replica_fail" (fun st -> Storage.set_replica_fail st ~replica:1 (Some "x")));
  ignore (fresh_after "heal_replicas" Storage.heal_replicas);
  ignore (fresh_after "node_died" ~backend:ZParams.Sb_buddy (fun st -> Storage.node_died st 1));
  let _, metrics, again =
    fresh_after "corrupt" (fun st -> check tbool "corrupted" true (Storage.corrupt st ~replica:0 "d2"))
  in
  check tbool "corrupt: still served" true (again <> None);
  check tbool "corrupt: detected" true (Metrics.counter metrics "storage.corruption_detected" >= 1);
  ignore
    (fresh_after "take" (fun st ->
         check tbool "take serves the memoized value" true
           (Storage.take st "d2" <> None)));
  (* a take of a key never read resolves it and keeps nothing *)
  let _, _, storage, _, _ = delta_env_m () in
  put_ok storage "k" img;
  let taken = Storage.take storage "k" in
  check tbool "take then get resolves again" false (same_read taken (Storage.get storage "k"))

(* --- qcheck: the storage model ------------------------------------------- *)

(* Four full images of one pod, each from a later instant. *)
let model_images =
  lazy
    (let _, pod, _, _, snap = delta_env_m () in
     Array.init 4 (fun i ->
         let r = snap (Simtime.ms (5 * (i + 1))) in
         Pod_ckpt.clear_memory_dirty pod;
         r.Pod_ckpt.image))

type store_op =
  | S_put of int * int * int  (* key, image, writer node *)
  | S_delta of int * int * int * int  (* key, base key, image, writer node *)
  | S_remove of int
  | S_outage of int * bool  (* slot, on/off *)
  | S_heal
  | S_corrupt of int * int  (* slot, key *)
  | S_node_died of int
  | S_get of int  (* two gets in a row *)
  | S_take of int

let show_store_op = function
  | S_put (k, i, n) -> Printf.sprintf "put k%d img%d @%d" k i n
  | S_delta (k, b, i, n) -> Printf.sprintf "delta k%d on k%d img%d @%d" k b i n
  | S_remove k -> Printf.sprintf "remove k%d" k
  | S_outage (s, on) -> Printf.sprintf "outage slot%d %b" s on
  | S_heal -> "heal"
  | S_corrupt (s, k) -> Printf.sprintf "corrupt slot%d k%d" s k
  | S_node_died n -> Printf.sprintf "node_died %d" n
  | S_get k -> Printf.sprintf "get k%d" k
  | S_take k -> Printf.sprintf "take k%d" k

let store_configs =
  [| (ZParams.Sb_plain, false); (ZParams.Sb_plain, true); (ZParams.Sb_dedup, false);
     (ZParams.Sb_dedup, true); (ZParams.Sb_buddy, false); (ZParams.Sb_buddy, true) |]

let gen_store_op =
  let open QCheck.Gen in
  let key = int_bound 2 and img = int_bound 3 and node = int_bound 3 in
  frequency
    [ (6, map3 (fun k i n -> S_put (k, i, n)) key img node);
      (4, map (fun (k, b, i, n) -> S_delta (k, b, i, n)) (quad key key img node));
      (2, map (fun k -> S_remove k) key);
      (3, map2 (fun s on -> S_outage (s, on)) (int_bound 2) bool);
      (2, return S_heal);
      (1, map2 (fun s k -> S_corrupt (s, k)) (int_bound 1) key);
      (1, map (fun n -> S_node_died n) node);
      (4, map (fun k -> S_get k) key);
      (2, map (fun k -> S_take k) key) ]

(* Run one op sequence against a model of what each key must read back.
   [get] may return the bytes last put under the key or [None] — never any
   other bytes, and a second get with nothing changed in between returns
   the same value.  After a heal with no corruption and no node death so
   far, every live key must sit in every slot and read back.  After every
   op the store's reference counts must match their recount. *)
let run_store_model (config, ops) =
  let backend, compress = store_configs.(config) in
  let imgs = Lazy.force model_images in
  let bytes = Array.map (fun v -> (Image.of_pod_image v).Image.encoded) imgs in
  let storage =
    Storage.create ~trace:(Zapc.Trace.create ()) ~backend ~compress ~nodes:4
      (Engine.create ~seed:1 ())
  in
  let keys = [| "a"; "b"; "c" |] in
  let model = Array.make 3 None in
  let damaged = ref false in
  let ok = ref true in
  let served k read =
    match read, model.(k) with
    | None, _ -> true
    | Some got, Some i -> String.equal (Wire.encode got) bytes.(i)
    | Some _, None -> false
  in
  let reads_back k = served k (Storage.get storage keys.(k)) in
  let put k i node img =
    match Storage.put ~node storage keys.(k) (Image.of_pod_image img) with
    | Ok () -> model.(k) <- Some i
    | Error _ -> ()
  in
  List.iter
    (fun op ->
      (match op with
       | S_put (k, i, node) -> put k i node imgs.(i)
       | S_delta (k, b, i, node) ->
         (match model.(b) with
          | None -> ()
          | Some j ->
            put k i node
              (Delta.make ~base_key:keys.(b) ~base:imgs.(j) ~full:imgs.(i)
                 ~dirty_bytes:4096))
       | S_remove k ->
         Storage.remove storage keys.(k);
         model.(k) <- None
       | S_outage (slot, on) ->
         Storage.set_replica_fail storage ~replica:slot (if on then Some "outage" else None)
       | S_heal ->
         Storage.heal_replicas storage;
         if not !damaged then
           Array.iteri
             (fun k m ->
               match m with
               | None -> ()
               | Some i ->
                 for slot = 0 to Storage.replica_count storage - 1 do
                   if not (Storage.replica_has storage ~replica:slot keys.(k)) then ok := false
                 done;
                 (match Storage.get storage keys.(k) with
                  | Some got when String.equal (Wire.encode got) bytes.(i) -> ()
                  | Some _ | None -> ok := false))
             model
       | S_corrupt (slot, k) ->
         if Storage.corrupt storage ~replica:slot keys.(k) then damaged := true
       | S_node_died n ->
         Storage.node_died storage n;
         damaged := true
       | S_get k ->
         let first = Storage.get storage keys.(k) in
         let second = Storage.get storage keys.(k) in
         if not (served k first && same_read first second) then ok := false
       | S_take k -> if not (served k (Storage.take storage keys.(k))) then ok := false);
      match Storage.check_refs storage with
      | [] -> ()
      | errs ->
        List.iter (Printf.eprintf "after %s: %s\n" (show_store_op op)) errs;
        ok := false)
    ops;
  !ok && Array.for_all Fun.id (Array.init 3 reads_back)

let prop_storage_model =
  QCheck.Test.make ~name:"storage model: get returns the last put or nothing"
    ~count:300
    (QCheck.make
       ~print:(fun (c, ops) ->
         let b, z = store_configs.(c) in
         Printf.sprintf "%s%s: %s" (ZParams.backend_name b)
           (if z then "+compress" else "")
           (String.concat "; " (List.map show_store_op ops)))
       QCheck.Gen.(pair (int_bound 5) (list_size (int_range 1 40) gen_store_op)))
    run_store_model

(* --- qcheck: region interning against a per-chunk model ------------------ *)

(* The dedup accounting as it reads when every listing of a region interns
   each of its chunks one by one: the pool counts references per chunk
   occurrence, and a stored version frees its occurrences when it goes.
   The keyspace is modelled apart from [Storage]'s reference-counted
   entries, with versions, delta pins and condemned shadows, so a pinned
   base frees its chunks only with its last delta. *)
type dd_model = {
  pool : (int, string option * int ref) Hashtbl.t;  (* bytes, refs *)
  stored : (string, int list * int) Hashtbl.t;  (* pname -> chunk refs, flushed bytes *)
  mversions : (string, int) Hashtbl.t;
  mvseq : (string, int) Hashtbl.t;
  mbases : (string, string) Hashtbl.t;
  mpins : (string, int) Hashtbl.t;
  mcondemned : (string, unit) Hashtbl.t;
  mutable hits : int;
  mutable fresh : int;
  mutable freed : int;
  mutable unique : int;
  mutable logical : int;
}

let dd_model () =
  { pool = Hashtbl.create 16; stored = Hashtbl.create 16; mversions = Hashtbl.create 4;
    mvseq = Hashtbl.create 4; mbases = Hashtbl.create 4; mpins = Hashtbl.create 4;
    mcondemned = Hashtbl.create 4; hits = 0; fresh = 0; freed = 0; unique = 0; logical = 0 }

let dd_pname key v = key ^ "\x00" ^ string_of_int v

let rec dd_unpin m p =
  match Hashtbl.find_opt m.mpins p with
  | None -> ()
  | Some 1 ->
    Hashtbl.remove m.mpins p;
    if Hashtbl.mem m.mcondemned p then dd_really_remove m p
  | Some n -> Hashtbl.replace m.mpins p (n - 1)

and dd_really_remove m p =
  Hashtbl.remove m.mcondemned p;
  (match Hashtbl.find_opt m.stored p with
   | Some (refs, _) ->
     List.iter
       (fun h ->
         match Hashtbl.find_opt m.pool h with
         | Some (_, r) ->
           decr r;
           if !r <= 0 then begin
             Hashtbl.remove m.pool h;
             m.freed <- m.freed + 1
           end
         | None -> ())
       refs;
     Hashtbl.remove m.stored p
   | None -> ());
  match Hashtbl.find_opt m.mbases p with
  | Some b ->
    Hashtbl.remove m.mbases p;
    dd_unpin m b
  | None -> ()

let dd_retire m p =
  if Option.value ~default:0 (Hashtbl.find_opt m.mpins p) > 0 then
    Hashtbl.replace m.mcondemned p ()
  else dd_really_remove m p

let dd_put m ~compress key (image : Image.t) =
  let uniq = ref 0 and refs = ref [] in
  let intern h size bytes =
    match Hashtbl.find_opt m.pool h with
    | Some (Some b', _) when (match bytes with Some b -> not (String.equal b b') | None -> false)
      ->
      uniq := !uniq + size
    | Some (_, r) ->
      incr r;
      m.hits <- m.hits + 1;
      refs := h :: !refs
    | None ->
      Hashtbl.add m.pool h (bytes, ref 1);
      m.fresh <- m.fresh + 1;
      uniq := !uniq + size;
      refs := h :: !refs
  in
  List.iter (fun (h, b) -> intern h (String.length b) (Some b)) (Chunk.split image.Image.encoded);
  List.iter
    (fun (name, size, gen) ->
      List.iter (fun (h, csize) -> intern h csize None) (Chunk.region_chunks ~name ~size ~gen))
    image.Image.regions;
  let logical = image.Image.logical_size in
  m.logical <- m.logical + logical;
  m.unique <- m.unique + !uniq;
  let asize = if compress then Image.comp_size image else logical in
  let ratio = float_of_int asize /. float_of_int (max 1 logical) in
  let v = 1 + Option.value ~default:0 (Hashtbl.find_opt m.mvseq key) in
  Hashtbl.replace m.mvseq key v;
  let p = dd_pname key v in
  Hashtbl.replace m.stored p (!refs, int_of_float (ratio *. float_of_int !uniq));
  (match image.Image.base_key with
   | Some bkey ->
     let bp = dd_pname bkey (Option.value ~default:0 (Hashtbl.find_opt m.mversions bkey)) in
     Hashtbl.replace m.mbases p bp;
     Hashtbl.replace m.mpins bp (1 + Option.value ~default:0 (Hashtbl.find_opt m.mpins bp))
   | None -> ());
  (match Hashtbl.find_opt m.mversions key with
   | Some old -> dd_retire m (dd_pname key old)
   | None -> ());
  Hashtbl.replace m.mversions key v

let dd_remove m key =
  match Hashtbl.find_opt m.mversions key with
  | None -> ()
  | Some v ->
    Hashtbl.remove m.mversions key;
    dd_retire m (dd_pname key v)

type dd_op =
  | D_put of int * int * int list  (* key, payload, region tags *)
  | D_delta of int * int * int * int list  (* key, base key, payload, region tags *)
  | D_remove of int

(* Region tags: the "heap" ones share (name, gen) at four sizes, so their
   leading chunk addresses coincide across tags. *)
let dd_tags =
  let cb = Chunk.region_chunk_bytes in
  [| ("heap", 3 * cb, 1); ("heap", (3 * cb) + 100, 1); ("heap", 2 * cb, 1);
     ("heap", cb - 7, 1); ("heap", 3 * cb, 2); ("text", cb + 1, 0); ("stack", 4096, 5) |]

(* Encoded payloads: the longer ones share their leading 4 KiB chunks. *)
let dd_payloads =
  [| String.make 9000 'a'; String.make 9000 'a' ^ "tail"; String.make 5000 'a';
     "small" |]

let dd_image ?base_key payload tags =
  let regions = List.map (fun i -> dd_tags.(i)) tags in
  let encoded = dd_payloads.(payload) ^ String.concat "," (List.map string_of_int tags) in
  { Image.pod_id = 1; name = "p"; encoded;
    logical_size =
      String.length encoded + List.fold_left (fun n (_, size, _) -> n + size) 0 regions;
    regions; base_key }

let show_dd_op = function
  | D_put (k, p, t) ->
    Printf.sprintf "put k%d p%d [%s]" k p (String.concat "," (List.map string_of_int t))
  | D_delta (k, b, p, t) ->
    Printf.sprintf "delta k%d on k%d p%d [%s]" k b p
      (String.concat "," (List.map string_of_int t))
  | D_remove k -> Printf.sprintf "remove k%d" k

let gen_dd_op =
  let open QCheck.Gen in
  let key = int_bound 3 and payload = int_bound (Array.length dd_payloads - 1) in
  (* up to four listings, repeats allowed: one tag can appear twice *)
  let tags = list_size (int_bound 4) (int_bound (Array.length dd_tags - 1)) in
  frequency
    [ (5, map3 (fun k p t -> D_put (k, p, t)) key payload tags);
      (4, map (fun (k, b, p, t) -> D_delta (k, b, p, t)) (quad key key payload tags));
      (3, map (fun k -> D_remove k) key) ]

let prop_region_interning_model =
  let latency = Simtime.us 500 and bps = 180e6 in
  QCheck.Test.make ~name:"region interning matches the per-chunk model" ~count:300
    (QCheck.make
       ~print:(fun (compress, ops) ->
         Printf.sprintf "compress=%b: %s" compress
           (String.concat "; " (List.map show_dd_op ops)))
       QCheck.Gen.(pair bool (list_size (int_range 1 30) gen_dd_op)))
    (fun (compress, ops) ->
      let metrics = Metrics.create () in
      let storage =
        Storage.create ~trace:(Zapc.Trace.create ()) ~metrics ~backend:ZParams.Sb_dedup
          ~compress ~bps (Engine.create ~seed:1 ())
      in
      let m = dd_model () in
      let keys = [| "a"; "b"; "c"; "d" |] in
      let flush_time key =
        match Hashtbl.find_opt m.mversions key with
        | None -> Simtime.zero
        | Some v ->
          let bytes = snd (Hashtbl.find m.stored (dd_pname key v)) in
          Simtime.add latency (Simtime.ns (int_of_float (float_of_int bytes /. bps *. 1e9)))
      in
      let agrees () =
        Metrics.counter metrics "storage.dedup_chunk_hits" = m.hits
        && Metrics.counter metrics "storage.dedup_chunks_new" = m.fresh
        && Metrics.counter metrics "storage.dedup_chunks_freed" = m.freed
        && Metrics.counter metrics "storage.dedup_bytes_unique" = m.unique
        && Float.equal
             (Metrics.gauge metrics "storage.dedup_factor")
             (if m.logical = 0 then 0.0
              else float_of_int m.logical /. float_of_int (max 1 m.unique))
        && Array.for_all (fun k -> Storage.flush_time storage k = flush_time k) keys
      in
      let put k image =
        put_ok storage keys.(k) image;
        dd_put m ~compress keys.(k) image
      in
      List.for_all
        (fun op ->
          (match op with
           | D_put (k, p, t) -> put k (dd_image p t)
           | D_delta (k, b, p, t) -> put k (dd_image ~base_key:keys.(b) p t)
           | D_remove k ->
             Storage.remove storage keys.(k);
             dd_remove m keys.(k));
          agrees () && Storage.check_refs storage = [])
        ops)

(* --- qcheck: chunking and compression ----------------------------------- *)

(* Region-chunk addresses: the printed-tag formula, kept here as the model
   [Chunk.region_chunks] must reproduce address for address. *)
let model_region_chunks ~name ~size ~gen =
  let rec go off idx acc =
    if off >= size then List.rev acc
    else
      let csize = min Chunk.region_chunk_bytes (size - off) in
      let addr =
        Compress.fnv (Printf.sprintf "R\x00%s\x00%d\x00%d\x00%d" name gen idx csize)
      in
      go (off + csize) (idx + 1) ((addr, csize) :: acc)
  in
  if size <= 0 then [] else go 0 0 []

let prop_region_chunks_model =
  let open QCheck.Gen in
  let byte = frequency [ (4, printable); (1, return '\x00'); (2, map Char.chr (int_range 128 255)) ] in
  let name = string_size ~gen:byte (int_bound 12) in
  let cb = Chunk.region_chunk_bytes in
  let size =
    frequency
      [ (1, return 0); (1, int_range (-3) (-1)); (3, int_range 1 (cb - 1));
        (3, map (fun k -> k * cb) (int_range 1 64));
        (2, map (fun k -> (k * cb) + 1) (int_range 1 64));
        (1, int_range 10_000_000 40_000_000) ]
  in
  let gen =
    frequency
      [ (1, return min_int); (1, return max_int); (1, return (-1)); (2, int_range 0 9);
        (2, int_range 10 10_000_000); (2, int_range (-10_000_000) (-2)); (2, int) ]
  in
  QCheck.Test.make ~name:"region chunk addresses match the printed-tag model" ~count:300
    (QCheck.make
       ~print:(fun (n, s, g) -> Printf.sprintf "name=%S size=%d gen=%d" n s g)
       (triple name size gen))
    (fun (name, size, gen) ->
      Chunk.region_chunks ~name ~size ~gen = model_region_chunks ~name ~size ~gen)

let prop_chunk_roundtrip =
  QCheck.Test.make ~name:"chunk split/reassemble is byte-identical" ~count:200
    (QCheck.string_of_size QCheck.Gen.(int_range 0 20_000))
    (fun s ->
      let chunks = Chunk.split s in
      String.equal (Chunk.reassemble chunks) s
      && List.for_all
           (fun (h, b) ->
             h = Chunk.hash b
             && String.length b <= Chunk.chunk_bytes
             && String.length b > 0)
           chunks
      && List.length chunks
         = (String.length s + Chunk.chunk_bytes - 1) / Chunk.chunk_bytes)

let prop_compress_roundtrip =
  QCheck.Test.make
    ~name:"compression model is deterministic, bounded and roundtrip-safe"
    ~count:60
    QCheck.(pair (string_of_size Gen.(int_range 1 5_000)) (int_range 0 1_000_000))
    (fun (blob, mem) ->
      let ratio = Compress.encoded_ratio blob in
      let v =
        Value.assoc
          [ ("pod_id", Value.int 1); ("name", Value.str "p");
            ("memory_bytes", Value.int mem); ("blob", Value.str blob) ]
      in
      let img = Image.of_pod_image v in
      let engine = Engine.create ~seed:1 () in
      let st = Storage.create ~trace:(Zapc.Trace.create ()) ~compress:true engine in
      ignore (Storage.put st "k" img);
      ratio >= 0.12 && ratio <= 0.98
      && Float.equal (Compress.encoded_ratio blob) ratio
      && Image.comp_size img >= 1
      && Image.comp_size img <= img.Image.logical_size
      && (match Storage.get st "k" with
          | Some v ->
            let got = Image.of_pod_image v in
            String.equal got.Image.encoded img.Image.encoded
            && Image.checksum got = Image.checksum img
          | None -> false))

let () =
  Alcotest.run "ckpt"
    [ ( "sock_state",
        [ Alcotest.test_case "overlap trim" `Quick test_trim_overlap;
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "read-inject" `Quick test_read_inject_preserves_data;
          Alcotest.test_case "peek misses oob" `Quick test_peek_mode_misses_oob;
          Alcotest.test_case "send queue" `Quick test_send_queue_capture;
          Alcotest.test_case "image roundtrip" `Quick test_socket_image_roundtrip;
          Alcotest.test_case "restore connection" `Quick test_restore_connection_applies_state ]
      );
      ( "meta",
        [ Alcotest.test_case "pairing" `Quick test_schedule_pairing;
          Alcotest.test_case "orphan + connecting" `Quick test_schedule_orphan_and_connecting;
          Alcotest.test_case "shared source port" `Quick test_schedule_shared_source_port;
          Alcotest.test_case "value roundtrip" `Quick test_meta_value_roundtrip ] );
      ( "pod image",
        [ Alcotest.test_case "checkpoint/restore" `Quick test_pod_checkpoint_image;
          Alcotest.test_case "relative deadlines" `Quick test_block_deadline_relative;
          Alcotest.test_case "zombie survives restart" `Quick test_zombie_survives_restart;
          Alcotest.test_case "restored pipe ids unique" `Quick
            test_restored_pipe_ids_unique ] );
      ( "delta",
        [ Alcotest.test_case "dirty tracking" `Quick test_memory_dirty_tracking;
          Alcotest.test_case "chain byte-identity" `Quick test_delta_chain_byte_identity;
          Alcotest.test_case "corruption + gc" `Quick
            test_delta_chain_corruption_and_gc ] );
      ( "storage backends",
        [ Alcotest.test_case "COW shadow on pinned overwrite" `Quick
            test_overwrite_pinned_base_cow;
          Alcotest.test_case "retire counts only held entries" `Quick
            test_retire_counts_held_entries;
          Alcotest.test_case "heal re-replicates" `Quick test_heal_rereplicates;
          Alcotest.test_case "dedup sibling GC" `Quick test_dedup_sibling_gc;
          Alcotest.test_case "restart byte-identity across backends" `Quick
            test_backend_restart_byte_identity;
          Alcotest.test_case "buddy reassignment on node death" `Quick
            test_buddy_reassign_on_death;
          Alcotest.test_case "buddy heal backfills a missed slot" `Quick
            test_buddy_heal_backfills;
          Alcotest.test_case "buddy mem honours slot outages" `Quick
            test_buddy_mem_outage;
          Alcotest.test_case "get counts a chain's links once" `Quick
            test_get_chain_counters;
          Alcotest.test_case "base_key reads an unverified copy" `Quick
            test_base_key_unverified;
          Alcotest.test_case "repeated get replays its counters" `Quick
            test_get_memo_replays;
          Alcotest.test_case "every mutator and take drop the memo" `Quick
            test_get_memo_invalidation;
          QCheck_alcotest.to_alcotest prop_storage_model;
          QCheck_alcotest.to_alcotest prop_region_interning_model ] );
      ( "migration properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_precopy_composition_identity; prop_precopy_residue_monotone;
            prop_chunk_roundtrip; prop_region_chunks_model; prop_compress_roundtrip ] ) ]

(* Tests for the four paper workloads: numerical correctness, and — the
   central transparency property — that a run interrupted by a coordinated
   checkpoint and restarted on different nodes produces exactly the same
   final answer as an uninterrupted run. *)

module Simtime = Zapc_sim.Simtime
module Value = Zapc_codec.Value
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Launch = Zapc_msg.Launch

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let logged : string list ref = ref []

let make_cluster ?(nodes = 4) ?(cpus = 1) () =
  Zapc_apps.Registry.register_all ();
  let cluster = Cluster.make ~seed:42 ~cpus ~params:Zapc.Params.default ~node_count:nodes () in
  logged := [];
  for i = 0 to nodes - 1 do
    Kernel.set_logger (Cluster.node cluster i).Cluster.n_kernel (fun _ _ m ->
        logged := m :: !logged)
  done;
  cluster

let find_log prefix =
  List.find_opt
    (fun s ->
      String.length s >= String.length prefix
      && String.equal (String.sub s 0 (String.length prefix)) prefix)
    !logged

(* Run an app to completion; if [interrupt] is set, snapshot at that virtual
   time, destroy the original pods, and restart on [targets].  Completion of
   the restarted run is detected by its result log ([result_prefix]): the
   restored pods may finish while the restart protocol is still reporting. *)
let run_app ?interrupt ~program ~result_prefix ~app_args ~placement () =
  let cluster = make_cluster () in
  let app = Launch.launch cluster ~name:program ~program ~placement ~app_args () in
  (match interrupt with
   | None -> ignore (Launch.wait_done cluster app)
   | Some (at, targets) ->
     Cluster.run cluster ~until:at ();
     if Launch.is_done app then ignore (Launch.wait_done cluster app)
     else begin
       let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"t" in
       check tbool "snapshot ok" true r.Manager.r_ok;
       List.iter Pod.destroy app.Launch.pods;
       let rr =
         Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app) ~target_nodes:targets
           ~key_prefix:"t"
       in
       check tbool "restart ok" true rr.Manager.r_ok;
       Cluster.run_until cluster ~timeout:(Simtime.sec 7200.0) (fun () ->
           find_log result_prefix <> None)
     end);
  !logged

(* --- CPI --- *)

let cpi_args =
  Zapc_apps.Cpi.params_to_value
    { Zapc_apps.Cpi.default_params with intervals = 400_000; chunks = 8 }

let test_cpi_correct () =
  ignore (run_app ~result_prefix:"cpi: pi ~=" ~program:"cpi" ~app_args:cpi_args ~placement:[ 0; 1; 2; 3 ] ());
  match find_log "cpi: pi ~=" with
  | Some line ->
    (* pi to ~10 digits: the integration really happened *)
    let v = Scanf.sscanf line "cpi: pi ~= %f" (fun f -> f) in
    check tbool "pi accurate" true (Float.abs (v -. Float.pi) < 1e-9)
  | None -> Alcotest.fail "no cpi result"

let test_cpi_transparent_restart () =
  ignore (run_app ~result_prefix:"cpi: pi ~=" ~program:"cpi" ~app_args:cpi_args ~placement:[ 0; 1 ] ());
  let reference = Option.get (find_log "cpi: pi ~=") in
  ignore
    (run_app
       ~interrupt:(Simtime.ms 1, [ 2; 3 ])
       ~result_prefix:"cpi: pi ~=" ~program:"cpi" ~app_args:cpi_args ~placement:[ 0; 1 ] ());
  match find_log "cpi: pi ~=" with
  | Some line -> check Alcotest.string "identical result" reference line
  | None -> Alcotest.fail "no cpi result after restart"

(* --- BT/NAS --- *)

let bt_args =
  Zapc_apps.Bt_nas.params_to_value
    { Zapc_apps.Bt_nas.default_params with g = 96; iters = 25 }

let test_bt_four_ranks () =
  ignore (run_app ~result_prefix:"bt_nas: checksum" ~program:"bt_nas" ~app_args:bt_args ~placement:[ 0; 1; 2; 3 ] ());
  match find_log "bt_nas: checksum" with
  | Some _ -> ()
  | None -> Alcotest.fail "no bt result"

let test_bt_transparent_restart_4 () =
  ignore (run_app ~result_prefix:"bt_nas: checksum" ~program:"bt_nas" ~app_args:bt_args ~placement:[ 0; 1; 2; 3 ] ());
  let reference = Option.get (find_log "bt_nas: checksum") in
  ignore
    (run_app
       ~interrupt:(Simtime.ms 8, [ 3; 2; 1; 0 ])
       ~result_prefix:"bt_nas: checksum" ~program:"bt_nas" ~app_args:bt_args ~placement:[ 0; 1; 2; 3 ] ());
  match find_log "bt_nas: checksum" with
  | Some line -> check Alcotest.string "identical checksum" reference line
  | None -> Alcotest.fail "no bt result after restart"

(* --- Bratu --- *)

let bratu_args =
  Zapc_apps.Bratu.params_to_value
    { Zapc_apps.Bratu.default_params with g = 48; max_iters = 40 }

let test_bratu_converges () =
  ignore (run_app ~result_prefix:"bratu: residual" ~program:"bratu" ~app_args:bratu_args ~placement:[ 0; 1 ] ());
  match find_log "bratu: residual" with
  | Some line ->
    let r = Scanf.sscanf line "bratu: residual %f" (fun f -> f) in
    (* the nonlinear relaxation really reduces the residual *)
    check tbool "residual finite and small" true (Float.is_finite r && r < 1.0)
  | None -> Alcotest.fail "no bratu result"

let test_bratu_transparent_restart () =
  ignore (run_app ~result_prefix:"bratu: residual" ~program:"bratu" ~app_args:bratu_args ~placement:[ 0; 1 ] ());
  let reference = Option.get (find_log "bratu: residual") in
  ignore
    (run_app
       ~interrupt:(Simtime.ms 3, [ 2; 3 ])
       ~result_prefix:"bratu: residual" ~program:"bratu" ~app_args:bratu_args ~placement:[ 0; 1 ] ());
  match find_log "bratu: residual" with
  | Some line -> check Alcotest.string "identical residual" reference line
  | None -> Alcotest.fail "no bratu result after restart"

(* --- POV-Ray --- *)

let pov_args =
  Zapc_apps.Povray.params_to_value
    { Zapc_apps.Povray.default_params with width = 160; height = 96; block_rows = 8 }

let test_povray_parallel_matches_serial () =
  ignore (run_app ~result_prefix:"povray: rendered" ~program:"povray" ~app_args:pov_args ~placement:[ 0 ] ());
  let serial = Option.get (find_log "povray: rendered") in
  ignore (run_app ~result_prefix:"povray: rendered" ~program:"povray" ~app_args:pov_args ~placement:[ 0; 1; 2 ] ());
  let parallel = Option.get (find_log "povray: rendered") in
  (* same framebuffer checksum regardless of work distribution *)
  check Alcotest.string "same image" serial parallel

let test_povray_transparent_restart () =
  ignore (run_app ~result_prefix:"povray: rendered" ~program:"povray" ~app_args:pov_args ~placement:[ 0; 1; 2 ] ());
  let reference = Option.get (find_log "povray: rendered") in
  ignore
    (run_app
       ~interrupt:(Simtime.ms 10, [ 3; 3; 3 ])
       ~result_prefix:"povray: rendered" ~program:"povray" ~app_args:pov_args ~placement:[ 0; 1; 2 ] ());
  match find_log "povray: rendered" with
  | Some line -> check Alcotest.string "identical image" reference line
  | None -> Alcotest.fail "no povray result after restart"

(* The master's output image lands on the shared file system under the
   pod's namespace; it is written even when the run was interrupted and
   restarted on different nodes, at the same pod-relative path (FS state is
   not part of the checkpoint: the shared store plus the pod's stable
   chroot prefix make it reachable from anywhere — paper section 3). *)
let test_povray_output_file_survives_restart () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"povray" ~program:"povray" ~placement:[ 0; 1; 2 ]
      ~app_args:pov_args ()
  in
  let master_pod = List.hd app.Launch.pods in
  Cluster.run cluster ~until:(Simtime.ms 10) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"povfs" in
  check tbool "snapshot" true r.Manager.r_ok;
  List.iter Pod.destroy app.Launch.pods;
  let rr =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app) ~target_nodes:[ 3; 3; 3 ]
      ~key_prefix:"povfs"
  in
  check tbool "restart" true rr.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 7200.0) (fun () ->
      find_log "povray: rendered" <> None);
  let fs = Kernel.fs (Cluster.node cluster 0).Cluster.n_kernel in
  match Zapc_simos.Simfs.get fs (Pod.fs_root master_pod ^ "/out.pgm") with
  | Some pgm ->
    check tbool "valid PGM header" true
      (String.length pgm > 15 && String.equal (String.sub pgm 0 2) "P5");
    check tint "full image present" (String.length "P5\n160 96\n255\n" + (160 * 96))
      (String.length pgm)
  | None -> Alcotest.fail "output file missing after restart"

(* the optional pre-reactivation file-system snapshot (paper section 4)
   copies the pod's subtree on the shared store *)
let test_fs_snapshot_option () =
  Zapc_apps.Registry.register_all ();
  let params = { Zapc.Params.default with Zapc.Params.fs_snapshot = true } in
  let cluster = Cluster.make ~seed:42 ~params ~node_count:2 () in
  let app =
    Launch.launch cluster ~name:"povray" ~program:"povray" ~placement:[ 0 ]
      ~app_args:pov_args ()
  in
  (* let the single-rank master render and write its file *)
  ignore (Launch.wait_done cluster app);
  let pod = List.hd app.Launch.pods in
  let r = Cluster.snapshot cluster ~pods:[ pod ] ~key_prefix:"fssnap" in
  check tbool "snapshot with fs copy" true r.Manager.r_ok;
  let fs = Kernel.fs (Cluster.node cluster 0).Cluster.n_kernel in
  let snap_path =
    Printf.sprintf "/snapshots/fssnap.pod%d%s/out.pgm" pod.Pod.pod_id ""
  in
  match Zapc_simos.Simfs.get fs snap_path with
  | Some copy ->
    check tbool "snapshot copy equals original" true
      (Zapc_simos.Simfs.get fs (Pod.fs_root pod ^ "/out.pgm") = Some copy)
  | None -> Alcotest.failf "no fs snapshot at %s" snap_path

(* --- transparency as a property ---

   The central claim quantified: for ANY interruption instant, checkpointing
   and restarting on other nodes yields the uninterrupted run's exact
   result.  qcheck draws the instant; the app is BT (communication-heavy, so
   arbitrary instants land inside sends, receives, collectives, and compute
   slices). *)

let prop_restart_any_time =
  let reference = lazy (
    ignore (run_app ~result_prefix:"bt_nas: checksum" ~program:"bt_nas"
              ~app_args:bt_args ~placement:[ 0; 1 ] ());
    Option.get (find_log "bt_nas: checksum"))
  in
  QCheck.Test.make ~name:"restart at any instant preserves the result" ~count:6
    QCheck.(int_range 200 12_000)
    (fun interrupt_us ->
      let reference = Lazy.force reference in
      ignore
        (run_app
           ~interrupt:(Zapc_sim.Simtime.us interrupt_us, [ 3; 2 ])
           ~result_prefix:"bt_nas: checksum" ~program:"bt_nas" ~app_args:bt_args
           ~placement:[ 0; 1 ] ());
      match find_log "bt_nas: checksum" with
      | Some line -> String.equal line reference
      | None -> false)

(* --- pipeline (multi-process pod with pipe IPC) --- *)

let pipeline_args =
  Zapc_apps.Pipeline.params_to_value
    { Zapc_apps.Pipeline.default_params with lines = 1_500; ns_per_line = 30_000 }

let launch_pipeline cluster =
  let pod = Cluster.create_pod cluster ~node_idx:0 ~name:"pipeline" in
  Cluster.link_pods [ pod ];
  let driver = Pod.spawn pod ~program:"pipeline" ~args:pipeline_args in
  (pod, driver)

let test_pipeline_correct () =
  let cluster = make_cluster () in
  let _, driver = launch_pipeline cluster in
  Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () ->
      driver.Proc.exit_code <> None);
  check tbool "driver clean exit" true (driver.Proc.exit_code = Some 0);
  match find_log "pipeline:" with
  | Some line ->
    (* 1500 records, keep every 3rd -> 500 *)
    check tbool "record count" true
      (Scanf.sscanf line "pipeline: %d records" (fun n -> n) = 500)
  | None -> Alcotest.fail "no pipeline result"

let test_pipeline_transparent_restart () =
  let cluster = make_cluster () in
  let _, driver = launch_pipeline cluster in
  Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () ->
      driver.Proc.exit_code <> None);
  let reference = Option.get (find_log "pipeline:") in
  (* same workload, checkpointed mid-stream and restarted on another node *)
  let cluster = make_cluster () in
  let pod, driver = launch_pipeline cluster in
  Cluster.run cluster ~until:(Simtime.ms 20) ();
  check tbool "mid-stream" true (driver.Proc.exit_code = None);
  let r = Cluster.snapshot cluster ~pods:[ pod ] ~key_prefix:"pipe" in
  check tbool "snapshot ok" true r.Manager.r_ok;
  (* the image carries four processes and two pipes *)
  (match List.assoc_opt pod.Pod.pod_id r.Manager.r_stats with
   | Some st -> check Alcotest.int "procs in image" 4 st.Zapc.Protocol.st_procs
   | None -> Alcotest.fail "no stats");
  Pod.destroy pod;
  let rr =
    Cluster.restart_app cluster ~pod_ids:[ pod.Pod.pod_id ] ~target_nodes:[ 3 ]
      ~key_prefix:"pipe"
  in
  check tbool "restart ok" true rr.Manager.r_ok;
  Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () ->
      find_log "pipeline:" <> None);
  check Alcotest.string "identical digest" reference
    (Option.get (find_log "pipeline:"))

(* --- daemons --- *)

let test_daemons_run_alongside () =
  let cluster = make_cluster () in
  let app =
    Launch.launch cluster ~name:"cpi" ~program:"cpi" ~app_args:cpi_args ~placement:[ 0; 1 ] ()
  in
  check tint "one daemon per pod" 2 (List.length app.Launch.daemons);
  ignore (Launch.wait_done cluster app);
  (* ranks exited, daemons still alive *)
  List.iter
    (fun (d : Proc.t) -> check tbool "daemon alive" true (d.Proc.exit_code = None))
    app.Launch.daemons

(* --- served traffic (smoke) --- *)

(* Fast version of the @serve battery pipeline: a small client population
   against the sharded kv service, one coordinated checkpoint while requests
   are in flight, exactly-once delivery asserted at the end.  The full
   1000-connection chaos matrix lives in serve_battery.ml behind the @serve
   alias. *)
let test_serve_smoke () =
  let cfg =
    { Zapc_apps.Serve.default_cfg with
      n_conns = 120; reqs_per_conn = 2; period = Simtime.ms 40 }
  in
  let t = Zapc_apps.Serve.setup ~nodes:4 ~seed:7 ~cfg () in
  let cluster = t.Zapc_apps.Serve.cluster in
  Cluster.run cluster ~until:(Simtime.ms 30) ();
  let r = Cluster.snapshot cluster ~pods:t.Zapc_apps.Serve.servers ~key_prefix:"smoke" in
  check tbool "checkpoint under load ok" true r.Manager.r_ok;
  Zapc_apps.Serve.wait_done t;
  let s = Zapc_apps.Serve.client_stats t in
  let expected = Zapc_apps.Serve.total_expected t in
  check tint "issued" expected s.st_issued;
  check tint "completed exactly once" expected s.st_completed;
  check tint "no duplicate responses" 0 s.st_dups;
  check tint "nothing in flight" 0 s.st_inflight;
  for shard = 0 to cfg.nshards - 1 do
    check tbool "shard digest non-zero" true (Zapc_apps.Serve.digest t ~shard <> 0)
  done;
  let nf = Zapc_simnet.Fabric.netfilter (Cluster.fabric cluster) in
  check tint "no leaked netfilter rules" 0 (Zapc_simnet.Netfilter.blocked_count nf)

(* Every blocking system call queues the caller's one waker, so however
   often a process re-blocks on a socket that has not fired, no wait queue
   holds more wakers than its node has live processes, and none holds one
   process's waker twice.  Sampled every 5 virtual ms over 300 ms of
   64-connection traffic with a checkpoint of the servers at 100 ms. *)
(* The kv programs' work queues are FIFO, and their image lists the queue
   in that order whatever part of it has been pushed since the last pop. *)
let test_kv_work_queue_fifo () =
  let module Serve = Zapc_apps.Serve in
  let module C = Zapc_apps.Kv_client in
  let module S = Zapc_apps.Kvstore in
  let cfg = Serve.default_cfg in
  let vips = Array.make cfg.Serve.nshards (Zapc_simnet.Addr.make_ip 10 0 0 1) in
  let c = C.start (Serve.client_args cfg vips ~n:1 ~base:0 ~seed:1) in
  let client_todo s = Value.to_list C.work_of_value (Value.field "todo" (C.to_value s)) in
  List.iter (C.push c) [ C.K_send 1; C.K_send 2; C.K_send 3 ];
  check tbool "client pops the oldest" true (C.pop c = Some (C.K_send 1));
  List.iter (C.push c) [ C.K_send 4; C.K_close 4 ];
  check tbool "client image in queue order" true
    (client_todo c = [ C.K_send 2; C.K_send 3; C.K_send 4; C.K_close 4 ]);
  let c = C.of_value (C.to_value c) in
  C.push c (C.K_recv 5);
  let rec drain pop s acc = match pop s with Some w -> drain pop s (w :: acc) | None -> List.rev acc in
  check tbool "restored client drains in order" true
    (drain C.pop c [] = [ C.K_send 2; C.K_send 3; C.K_send 4; C.K_close 4; C.K_recv 5 ]);
  let s = S.start (Serve.server_args cfg vips 0) in
  let server_todo s = Value.to_list S.work_of_value (Value.field "todo" (S.to_value s)) in
  List.iter (S.push s) [ S.W_accept; S.W_recv 1; S.W_send 1 ];
  check tbool "server pops the oldest" true (S.pop s = Some S.W_accept);
  List.iter (S.push s) [ S.W_close 1; S.W_rsend ];
  check tbool "server image in queue order" true
    (server_todo s = [ S.W_recv 1; S.W_send 1; S.W_close 1; S.W_rsend ]);
  let s = S.of_value (S.to_value s) in
  S.push s S.W_rsock;
  check tbool "restored server drains in order" true
    (drain S.pop s [] = [ S.W_recv 1; S.W_send 1; S.W_close 1; S.W_rsend; S.W_rsock ])

let test_serve_waiters_bounded () =
  let module Fdtable = Zapc_simos.Fdtable in
  let module Waitq = Zapc_simnet.Waitq in
  let cfg =
    { Zapc_apps.Serve.default_cfg with
      n_conns = 64; reqs_per_conn = 20; period = Simtime.ms 20 }
  in
  let t = Zapc_apps.Serve.setup ~nodes:4 ~seed:7 ~cfg () in
  let cluster = t.Zapc_apps.Serve.cluster in
  let worst = ref 0 and violations = ref [] in
  let sample () =
    for i = 0 to Cluster.node_count cluster - 1 do
      let k = (Cluster.node cluster i).Cluster.n_kernel in
      let live = Kernel.alive_count k in
      List.iter
        (fun (p : Proc.t) ->
          if Proc.is_alive p then
            Fdtable.iter p.Proc.fds (fun fd e ->
                let n =
                  match e with
                  | Fdtable.Fsock s ->
                    Stdlib.max (Waitq.length s.Zapc_simnet.Socket.rd_waiters)
                      (Waitq.length s.Zapc_simnet.Socket.wr_waiters)
                  | Fdtable.Fpipe_r pi -> Waitq.length pi.Zapc_simos.Pipe.rd_waiters
                  | Fdtable.Fpipe_w pi -> Waitq.length pi.Zapc_simos.Pipe.wr_waiters
                  | Fdtable.Fgm port -> Waitq.length port.Zapc_simnet.Gmdev.rd_waiters
                in
                let twice =
                  let twice q = Waitq.count q p.Proc.waker > 1 in
                  match e with
                  | Fdtable.Fsock s ->
                    twice s.Zapc_simnet.Socket.rd_waiters || twice s.Zapc_simnet.Socket.wr_waiters
                  | Fdtable.Fpipe_r pi -> twice pi.Zapc_simos.Pipe.rd_waiters
                  | Fdtable.Fpipe_w pi -> twice pi.Zapc_simos.Pipe.wr_waiters
                  | Fdtable.Fgm port -> twice port.Zapc_simnet.Gmdev.rd_waiters
                in
                if twice then
                  violations :=
                    Printf.sprintf "node %d pid %d fd %d: its waker queued twice" i p.Proc.pid fd
                    :: !violations;
                worst := Stdlib.max !worst n;
                if n > live then
                  violations :=
                    Printf.sprintf "node %d pid %d fd %d: %d wakers, %d live" i p.Proc.pid fd n
                      live
                    :: !violations))
        (Kernel.processes k)
    done
  in
  let next = ref 5 in
  let step_to ms =
    while !next <= ms do
      if Simtime.ms !next > Cluster.now cluster then
        Cluster.run cluster ~until:(Simtime.ms !next) ();
      sample ();
      next := !next + 5
    done
  in
  step_to 100;
  let r = Cluster.snapshot cluster ~pods:t.Zapc_apps.Serve.servers ~key_prefix:"waiters" in
  check tbool "checkpoint ok" true r.Manager.r_ok;
  sample ();
  step_to 300;
  (match List.rev !violations with
   | [] -> ()
   | v :: _ as vs ->
     Alcotest.failf
       "%d samples with a waker queued twice or more wakers than live processes, worst %d; \
        first: %s"
       (List.length vs) !worst v);
  check tbool "some process was blocked on a socket" true (!worst >= 1)

(* The kv programs keep their poll request list between polls, rebuilding
   it only when an input of it changes.  Wrapped under test names, both
   programs serve 300 virtual ms of 64-connection traffic with a
   checkpoint-and-restart of the servers at 100 ms.  Every poll's list
   must equal a fresh build from the same state, also after an image round
   trip (the restart, and one in place every 97 steps); after every step,
   every connection whose request moved since the list was kept must be on
   the program's touched list (the only ones a poll compares); and most
   polls must reuse the previous poll's very list. *)
module Kept_reqs (P : sig
  include Program.S

  val build_poll_reqs : state -> Zapc_simos.Syscall.poll_req list

  val untouched_unmoved : state -> bool
  (* every request input that moved since the kept list was built is on
     the program's touched list *)
end) =
struct
  type state = {
    mutable s : P.state;
    mutable steps : int;
    mutable last : Zapc_simos.Syscall.poll_req list;  (* the previous poll's *)
  }

  let polls = ref 0
  let kept = ref 0
  let stale = ref 0
  let name = "test.kept." ^ P.name
  let start v = { s = P.start v; steps = 0; last = [] }
  let to_value t = P.to_value t.s
  let of_value v = { s = P.of_value v; steps = 0; last = [] }

  let step t outcome =
    t.steps <- t.steps + 1;
    if t.steps mod 97 = 0 then t.s <- P.of_value (P.to_value t.s);
    let s, action = P.step t.s outcome in
    t.s <- s;
    (match action with
     | Program.Sys (Zapc_simos.Syscall.Poll (reqs, _)) ->
       incr polls;
       if reqs == t.last then incr kept;
       if reqs <> P.build_poll_reqs s then incr stale;
       t.last <- reqs
     | Program.Sys _ | Program.Compute _ | Program.Exit _ -> ());
    if not (P.untouched_unmoved s) then incr stale;
    (t, action)
end

module Kept_client = Kept_reqs (struct
  include Zapc_apps.Kv_client

  type state = Zapc_apps.Kv_client.state

  let untouched_unmoved (s : state) =
    s.poll_reqs = None
    || Array.for_all
         (fun (c : Zapc_apps.Kv_client.conn) -> c.touched || req_key c = c.polled)
         s.conns
end)

module Kept_server = Kept_reqs (struct
  include Zapc_apps.Kvstore

  type state = Zapc_apps.Kvstore.state

  let untouched_unmoved (s : state) =
    s.poll_reqs = None
    || Hashtbl.fold
         (fun _ (c : Zapc_apps.Kvstore.conn) ok ->
           ok && (c.touched || (c.outbuf <> "") = c.polled_ww))
         s.conns true
end)

let test_kv_kept_poll_reqs () =
  let module Serve = Zapc_apps.Serve in
  Program.register_if_absent (module Kept_client : Program.S);
  Program.register_if_absent (module Kept_server : Program.S);
  Zapc_apps.Registry.register_all ();
  let cfg = { Serve.default_cfg with n_conns = 64; reqs_per_conn = 20; period = Simtime.ms 20 } in
  let cluster = Cluster.make ~seed:7 ~params:Serve.serve_params ~node_count:4 () in
  let servers =
    List.init cfg.nshards (fun i ->
        Cluster.create_pod cluster ~node_idx:i ~name:(Printf.sprintf "kv%d" i))
  in
  let cpod = Cluster.create_pod cluster ~node_idx:cfg.nshards ~name:"kvc" in
  Cluster.link_pods (servers @ [ cpod ]);
  let vips = Array.of_list (List.map (fun (p : Pod.t) -> p.vip) servers) in
  List.iteri
    (fun i pod ->
      ignore (Pod.spawn pod ~program:Kept_server.name ~args:(Serve.server_args cfg vips i)))
    servers;
  Cluster.run cluster ~until:(Simtime.ms 1) ();
  ignore
    (Pod.spawn cpod ~program:Kept_client.name
       ~args:(Serve.client_args cfg vips ~n:cfg.n_conns ~base:0 ~seed:7));
  Cluster.run cluster ~until:(Simtime.ms 100) ();
  let pod_ids = List.map (fun (p : Pod.t) -> p.pod_id) servers in
  let r =
    Cluster.checkpoint_sync cluster ~resume:false
      ~items:
        (List.mapi
           (fun i (p : Pod.t) ->
             { Manager.ci_pod = p.pod_id;
               ci_node = i;
               ci_dest = Zapc.Protocol.U_storage (Printf.sprintf "kept.pod%d" p.pod_id) })
           servers)
  in
  check tbool "servers checkpointed" true r.Manager.r_ok;
  let r =
    Cluster.restart_app cluster ~pod_ids ~target_nodes:(List.init cfg.nshards Fun.id)
      ~key_prefix:"kept"
  in
  check tbool "servers restarted" true r.Manager.r_ok;
  Cluster.run cluster ~until:(Simtime.ms 300) ();
  List.iter
    (fun (name, polls, kept, stale) ->
      check tint (name ^ ": kept lists equal a fresh build") 0 stale;
      Printf.printf "%s: %d polls, %d reuse the previous list\n" name polls kept;
      check tbool (name ^ ": most polls reuse the list") true (polls > 100 && 2 * kept > polls))
    [ ("kv_client", !Kept_client.polls, !Kept_client.kept, !Kept_client.stale);
      ("kvstore", !Kept_server.polls, !Kept_server.kept, !Kept_server.stale) ]

(* --- the application kernels, bit for bit ---

   The kernels were rewritten to cut host work (no per-pixel allocation,
   precomputed Thomas coefficients, a double-buffered Bratu grid) with the
   promise that they compute the same bits.  The straightforward versions
   they replaced are kept here as reference models, and every pixel, grid
   value and residual must match them exactly. *)

(* The vector-record ray tracer, one [hit option] per candidate. *)
module Ref_scene = struct
  type vec = Zapc_apps.Scene.vec = { x : float; y : float; z : float }

  type sphere = Zapc_apps.Scene.sphere = {
    center : vec; radius : float; albedo : float; reflect : float }

  type t = Zapc_apps.Scene.t = {
    spheres : sphere list; light : vec; eye : vec; plane_y : float }

  let v3 x y z = { x; y; z }
  let ( +| ) a b = v3 (a.x +. b.x) (a.y +. b.y) (a.z +. b.z)
  let ( -| ) a b = v3 (a.x -. b.x) (a.y -. b.y) (a.z -. b.z)
  let ( *| ) s a = v3 (s *. a.x) (s *. a.y) (s *. a.z)
  let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)
  let norm a = sqrt (dot a a)

  let unit a =
    let n = norm a in
    if n = 0.0 then a else (1.0 /. n) *| a

  type hit = { t : float; point : vec; normal : vec; albedo : float; reflect : float }

  let hit_sphere ~orig ~dir (s : sphere) : hit option =
    let oc = orig -| s.center in
    let b = dot oc dir in
    let c = dot oc oc -. (s.radius *. s.radius) in
    let disc = (b *. b) -. c in
    if disc < 0.0 then None
    else
      let sq = sqrt disc in
      let t = if -.b -. sq > 1e-4 then -.b -. sq else -.b +. sq in
      if t < 1e-4 then None
      else
        let point = orig +| (t *| dir) in
        Some { t; point; normal = unit (point -| s.center); albedo = s.albedo;
               reflect = s.reflect }

  let hit_plane scene ~orig ~dir : hit option =
    if Float.abs dir.y < 1e-9 then None
    else
      let t = (scene.plane_y -. orig.y) /. dir.y in
      if t < 1e-4 then None
      else
        let point = orig +| (t *| dir) in
        let check =
          let u = int_of_float (Float.round (point.x *. 2.0)) in
          let w = int_of_float (Float.round (point.z *. 2.0)) in
          if (u + w) land 1 = 0 then 0.85 else 0.25
        in
        Some { t; point; normal = v3 0.0 1.0 0.0; albedo = check; reflect = 0.05 }

  let closest_hit scene ~orig ~dir : hit option =
    let candidates =
      hit_plane scene ~orig ~dir :: List.map (hit_sphere ~orig ~dir) scene.spheres
    in
    List.fold_left
      (fun best h ->
        match (best, h) with
        | None, h -> h
        | Some b, Some h' when h'.t < b.t -> Some h'
        | Some _, _ -> best)
      None candidates

  let in_shadow scene point light_dir dist =
    List.exists
      (fun s ->
        match hit_sphere ~orig:point ~dir:light_dir s with
        | Some h -> h.t < dist
        | None -> false)
      scene.spheres

  let rec shade scene ~orig ~dir depth : float =
    match closest_hit scene ~orig ~dir with
    | None -> 0.08 +. (0.12 *. Float.abs dir.y)
    | Some h ->
      let to_light = scene.light -| h.point in
      let dist = norm to_light in
      let ldir = unit to_light in
      let shadowed = in_shadow scene h.point ldir dist in
      let diffuse = if shadowed then 0.0 else Float.max 0.0 (dot h.normal ldir) in
      let spec =
        if shadowed then 0.0
        else
          let refl = (2.0 *. dot h.normal ldir *| h.normal) -| ldir in
          Float.max 0.0 (dot refl (unit (orig -| h.point))) ** 24.0
      in
      let base = (h.albedo *. ((0.15 +. (0.75 *. diffuse)) +. (0.4 *. spec))) in
      if depth > 0 && h.reflect > 0.01 then
        let rdir = unit (dir -| (2.0 *. dot dir h.normal *| h.normal)) in
        ((1.0 -. h.reflect) *. base)
        +. (h.reflect *. shade scene ~orig:h.point ~dir:rdir (depth - 1))
      else base

  let pixel_lum scene ~width ~height px py =
    let fw = float_of_int width and fh = float_of_int height in
    let u = ((float_of_int px +. 0.5) /. fw *. 2.0) -. 1.0 in
    let v = 1.0 -. (2.0 *. (float_of_int py +. 0.5) /. fh) in
    let aspect = fw /. fh in
    let dir = unit (v3 (u *. aspect) v 1.4) in
    shade scene ~orig:scene.eye ~dir 1

  let trace_pixel scene ~width ~height px py : int =
    let lum = pixel_lum scene ~width ~height px py in
    int_of_float (255.0 *. Float.min 1.0 (Float.max 0.0 lum))

  let render_block scene ~width ~height ~y0 ~rows : string =
    let b = Bytes.create (width * rows) in
    for dy = 0 to rows - 1 do
      for x = 0 to width - 1 do
        Bytes.set b ((dy * width) + x)
          (Char.chr (trace_pixel scene ~width ~height x (y0 + dy)))
      done
    done;
    Bytes.unsafe_to_string b
end

(* The default scene's first 0 to 4 of four spheres (its three and one
   more), each with a new radius, albedo and reflectance, and every sphere,
   the light, the eye and the plane moved by up to 0.8 on each axis. *)
let scene_gen =
  let open QCheck.Gen in
  let d x = map (fun e -> x +. e) (float_range (-0.8) 0.8) in
  let vec (v : Ref_scene.vec) = map3 (fun x y z -> Ref_scene.v3 x y z) (d v.x) (d v.y) (d v.z) in
  let sphere (s : Ref_scene.sphere) =
    map3
      (fun center radius (albedo, reflect) -> { Ref_scene.center; radius; albedo; reflect })
      (vec s.center)
      (float_range 0.2 1.3)
      (pair (float_range 0.1 1.0) (float_range 0.0 0.6))
  in
  let base = Zapc_apps.Scene.default in
  let extra = { (List.hd base.spheres) with Ref_scene.center = Ref_scene.v3 0.4 (-0.2) 1.2 } in
  map3
    (fun spheres (light, eye) plane_y -> { Ref_scene.spheres; light; eye; plane_y })
    (int_range 0 4 >>= fun n ->
     flatten_l (List.filteri (fun i _ -> i < n) (List.map sphere (base.spheres @ [ extra ]))))
    (pair (vec base.light) (vec base.eye))
    (d base.plane_y)

let prop_tracer_matches_reference =
  let gen =
    let open QCheck.Gen in
    int_range 1 48 >>= fun width ->
    int_range 1 48 >>= fun height ->
    int_range 0 (height - 1) >>= fun y0 ->
    int_range 1 (height - y0) >>= fun rows ->
    frequency [ (1, return Zapc_apps.Scene.default); (3, scene_gen) ] >>= fun scene ->
    return (scene, width, height, y0, rows)
  in
  QCheck.Test.make ~name:"ray tracer matches the vector tracer" ~count:150
    (QCheck.make gen)
    (fun (scene, width, height, y0, rows) ->
      let module S = Zapc_apps.Scene in
      (* a pixel is 8 bits of a luminance: compare the luminance too *)
      let ctx = S.make_ctx scene in
      let lum_equal = ref true in
      for py = y0 to y0 + rows - 1 do
        for px = 0 to width - 1 do
          S.aim ctx ~width ~height px py;
          S.shade ctx S.depth;
          let want = Ref_scene.pixel_lum scene ~width ~height px py in
          if Int64.bits_of_float ctx.S.hits.(S.depth).S.lum <> Int64.bits_of_float want then
            lum_equal := false
        done
      done;
      !lum_equal
      && String.equal
           (S.render_block scene ~width ~height ~y0 ~rows)
           (Ref_scene.render_block scene ~width ~height ~y0 ~rows))

(* The row-by-row Thomas solve, with [cp] and the pivots recomputed for
   every row, then the in-place vertical relaxation. *)
let ref_bt_sweep ~g:gg ~rows (u : float array) =
  let a = -1.0 and b = 4.0 and c = -1.0 in
  let cp = Array.make gg 0.0 and dp = Array.make gg 0.0 in
  for r = 1 to rows do
    let base = r * gg in
    cp.(0) <- c /. b;
    dp.(0) <- u.(base) /. b;
    for i = 1 to gg - 1 do
      let m = b -. (a *. cp.(i - 1)) in
      cp.(i) <- c /. m;
      dp.(i) <- (u.(base + i) -. (a *. dp.(i - 1))) /. m
    done;
    u.(base + gg - 1) <- dp.(gg - 1);
    for i = gg - 2 downto 0 do
      u.(base + i) <- dp.(i) -. (cp.(i) *. u.(base + i + 1))
    done
  done;
  for r = 1 to rows do
    let base = r * gg in
    let up = (r - 1) * gg and dn = (r + 1) * gg in
    for i = 0 to gg - 1 do
      u.(base + i) <- (0.5 *. u.(base + i)) +. (0.25 *. (u.(up + i) +. u.(dn + i)))
    done
  done

(* The Jacobi sweep into a fresh copy of the whole grid. *)
let ref_bratu_sweep ~g:gg ~rows ~lambda (u : float array) =
  let h = 1.0 /. float_of_int (gg + 1) in
  let h2l = h *. h *. lambda in
  let next = Array.copy u in
  let res = ref 0.0 in
  for r = 1 to rows do
    let base = r * gg in
    for i = 0 to gg - 1 do
      let left = if i > 0 then u.(base + i - 1) else 0.0 in
      let right = if i < gg - 1 then u.(base + i + 1) else 0.0 in
      let up = u.(base - gg + i) in
      let down = u.(base + gg + i) in
      let uij = u.(base + i) in
      let f = left +. right +. up +. down -. (4.0 *. uij) +. (h2l *. exp uij) in
      res := !res +. (f *. f);
      next.(base + i) <- uij +. (0.22 *. f)
    done
  done;
  (next, !res)

let bits (a : float array) = Array.map Int64.bits_of_float a

(* A halo as a neighbour would send it in sweep [k]: nonzero, varying. *)
let halo ~g k side = Array.init g (fun i -> sin (float_of_int ((k * 7) + (i * 3) + side)) *. 0.3)

let set_ghosts u ~g ~rows k =
  Array.blit (halo ~g k 0) 0 u 0 g;
  Array.blit (halo ~g k 1) 0 u ((rows + 1) * g) g

(* Nine-rank paper-fig6 ranks own 10 or 11 rows of 96; the odd counts
   leave a tail row for the one-row solve. *)
let test_bt_sweep_matches_reference () =
  List.iter
    (fun (g, rows) ->
      let init = Array.init ((rows + 2) * g) (fun i -> sin (3.0 *. float_of_int i /. 97.0)) in
      let u = Array.copy init and r = Array.copy init in
      for k = 1 to 30 do
        set_ghosts u ~g ~rows k;
        set_ghosts r ~g ~rows k;
        Zapc_apps.Bt_nas.sweep ~g ~rows u;
        ref_bt_sweep ~g ~rows r
      done;
      check tbool (Printf.sprintf "g=%d rows=%d: grids bit-identical" g rows) true
        (bits u = bits r))
    [ (96, 1); (96, 2); (96, 3); (96, 10); (96, 11); (96, 96); (1, 3); (7, 5) ]

(* 250 sweeps, as paper-fig6 runs, with the grid passed through its image
   encoding halfway: the restored program starts with a zeroed spare grid,
   which must not matter. *)
let test_bratu_sweep_matches_reference () =
  List.iter
    (fun (g, rows) ->
      let n = (rows + 2) * g in
      let u = ref (Array.make n 0.0) and spare = ref (Array.make n 0.0) in
      let r = ref (Array.make n 0.0) in
      for k = 1 to 250 do
        if k = 125 then begin
          let wire = Zapc_codec.Wire.encode (Value.f64s (Array.copy !u)) in
          u := Value.to_f64s (Zapc_codec.Wire.decode wire);
          spare := Array.make n 0.0
        end;
        set_ghosts !u ~g ~rows k;
        set_ghosts !r ~g ~rows k;
        let res = Zapc_apps.Bratu.sweep ~g ~rows ~lambda:6.0 ~src:!u ~dst:!spare in
        let next, res' = ref_bratu_sweep ~g ~rows ~lambda:6.0 !r in
        let grid = !spare in
        spare := !u;
        u := grid;
        r := next;
        if Int64.bits_of_float res <> Int64.bits_of_float res' || bits !u <> bits !r then
          Alcotest.failf "g=%d rows=%d: sweep %d differs from the copying sweep" g rows k
      done)
    [ (64, 64); (64, 21); (64, 22); (5, 3) ]

(* Framebuffer checksums of the fixed scene, computed with the vector
   tracer and a copying framebuffer: 480x360 in 6-row blocks rendered by
   two workers (every block arrives as a message), 320x200 in 8-row blocks
   rendered by a lone master (every block is blitted locally). *)
let test_povray_checksums_pinned () =
  List.iter
    (fun (width, height, block_rows, placement, want) ->
      let app_args =
        Zapc_apps.Povray.params_to_value
          { Zapc_apps.Povray.default_params with width; height; block_rows }
      in
      ignore (run_app ~result_prefix:"povray: rendered" ~program:"povray" ~app_args ~placement ());
      match find_log "povray: rendered" with
      | Some line ->
        let got = Scanf.sscanf line "povray: rendered %_dx%_d in %_d blocks, checksum %x" Fun.id in
        check tint (Printf.sprintf "%dx%d checksum" width height) want got
      | None -> Alcotest.fail "no povray result")
    [ (480, 360, 6, [ 0; 1; 2 ], 0x9b57ad); (320, 200, 8, [ 0 ], 0x38039e) ]

(* A program's snapshot must not share mutable buffers with its state:
   the Agent keeps the last image as the base of the next delta and of a
   pre-copy round while the pod runs on.  Capture each grid program's
   state mid-run, let it compute for a while, and re-encode the captured
   value. *)
let test_snapshot_not_aliased () =
  List.iter
    (fun (program, app_args, placement, at, later) ->
      let cluster = make_cluster () in
      let app = Launch.launch cluster ~name:program ~program ~placement ~app_args () in
      Cluster.run cluster ~until:(Simtime.ms at) ();
      let k = (Cluster.node cluster 0).Cluster.n_kernel in
      let proc =
        List.find
          (fun (p : Proc.t) -> String.equal (Program.name_of p.Proc.inst) program)
          (Kernel.processes k)
      in
      let _, captured = Program.snapshot proc.Proc.inst in
      let before = Zapc_codec.Wire.encode captured in
      Cluster.run cluster ~until:(Simtime.ms later) ();
      check tbool (program ^ ": still running") false (Launch.is_done app);
      check tbool (program ^ ": state moved on") false
        (String.equal before (Zapc_codec.Wire.encode (snd (Program.snapshot proc.Proc.inst))));
      check tbool (program ^ ": captured image unchanged") true
        (String.equal before (Zapc_codec.Wire.encode captured)))
    [ ("bt_nas", bt_args, [ 0 ], 4, 9); ("bratu", bratu_args, [ 0 ], 2, 4);
      ("povray", pov_args, [ 0; 1 ], 4, 9) ]

let () =
  Alcotest.run "apps"
    [ ( "cpi",
        [ Alcotest.test_case "computes pi" `Quick test_cpi_correct;
          Alcotest.test_case "transparent restart" `Quick test_cpi_transparent_restart ] );
      ( "bt_nas",
        [ Alcotest.test_case "four ranks" `Quick test_bt_four_ranks;
          Alcotest.test_case "transparent restart x4" `Quick test_bt_transparent_restart_4 ]
      );
      ( "bratu",
        [ Alcotest.test_case "converges" `Quick test_bratu_converges;
          Alcotest.test_case "transparent restart" `Quick test_bratu_transparent_restart ] );
      ( "povray",
        [ Alcotest.test_case "parallel = serial image" `Quick
            test_povray_parallel_matches_serial;
          Alcotest.test_case "transparent restart" `Quick test_povray_transparent_restart;
          Alcotest.test_case "output file survives restart" `Quick
            test_povray_output_file_survives_restart;
          Alcotest.test_case "fs snapshot option" `Quick test_fs_snapshot_option ] );
      ( "pipeline",
        [ Alcotest.test_case "correct" `Quick test_pipeline_correct;
          Alcotest.test_case "transparent restart" `Quick
            test_pipeline_transparent_restart ] );
      ("daemons", [ Alcotest.test_case "alongside" `Quick test_daemons_run_alongside ]);
      ( "serve",
        [ Alcotest.test_case "checkpoint under live clients" `Quick test_serve_smoke;
          Alcotest.test_case "wait queues bounded by live processes" `Quick
            test_serve_waiters_bounded;
          Alcotest.test_case "kv work queues are FIFO across an image" `Quick
            test_kv_work_queue_fifo;
          Alcotest.test_case "kv poll lists kept equal a fresh build" `Quick
            test_kv_kept_poll_reqs ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_restart_any_time ]);
      ( "kernels",
        [ QCheck_alcotest.to_alcotest prop_tracer_matches_reference;
          Alcotest.test_case "bt sweep matches the row-by-row solve" `Quick
            test_bt_sweep_matches_reference;
          Alcotest.test_case "bratu sweep matches the copying sweep" `Quick
            test_bratu_sweep_matches_reference;
          Alcotest.test_case "povray framebuffer checksums pinned" `Quick
            test_povray_checksums_pinned;
          Alcotest.test_case "snapshots share no mutable buffer" `Quick
            test_snapshot_not_aliased ] ) ]

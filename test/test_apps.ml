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
   holds more wakers than its node has live processes.  Sampled every 5
   virtual ms over 300 ms of 64-connection traffic with a checkpoint of the
   servers at 100 ms. *)
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
     Alcotest.failf "%d samples with more wakers than live processes, worst %d; first: %s"
       (List.length vs) !worst v);
  check tbool "some process was blocked on a socket" true (!worst >= 1)

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
            test_serve_waiters_bounded ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_restart_any_time ]) ]

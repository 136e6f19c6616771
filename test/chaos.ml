(* Chaos harness: seeded fault-injection scenarios against the coordinated
   checkpoint-restart protocol.

   Three layers:

   - Directed cases pin down the failure semantics one fault at a time: a
     control-channel break landing between the meta report and 'continue', a
     hung (stalled but connected) Agent that only the per-phase timeouts can
     unstick, a shared-storage outage, a whole-node crash mid-checkpoint,
     and a packet-loss burst the protocol must simply ride out.

   - A property-style sweep runs N random scenarios (topology x workload x
     fault schedule, all derived from the scenario seed), asserting after
     every one that the operation either completed fully or aborted cleanly:
     a structured failure reason is present on failure, the Manager is idle
     again, no netfilter rule or in-flight Agent operation leaks, every
     surviving pod is running (not frozen), and — when no application node
     crashed — the application still finishes and logs its result, which
     also proves the surviving TCP connections carry data.

   - A checkpoint-storm battery checkpoints the paper's applications at
     seeded, partly back-to-back instants and requires the result of a run
     with no checkpoints (see "checkpoint storms" below).

   N comes from CHAOS_SEEDS (default 25): CHAOS_SEEDS=200 dune build @chaos. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Rng = Zapc_sim.Rng
module Fabric = Zapc_simnet.Fabric
module Netfilter = Zapc_simnet.Netfilter
module Kernel = Zapc_simos.Kernel
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Agent = Zapc.Agent
module Protocol = Zapc.Protocol
module Params = Zapc.Params
module Storage = Zapc.Storage
module Periodic = Zapc.Periodic
module Supervisor = Zapc.Supervisor
module Launch = Zapc_msg.Launch
module Faultsim = Zapc_faultsim.Faultsim
module Flight = Zapc_obs.Flight
module Json = Zapc_obs.Json

let check = Alcotest.check
let tbool = Alcotest.bool

let logged : string list ref = ref []

let chaos_params = { Params.default with phase_timeout = Simtime.ms 200 }

let make_cluster ?(params = chaos_params) ?(nodes = 4) ?cpus ?(seed = 42) () =
  Zapc_apps.Registry.register_all ();
  let cluster = Cluster.make ~seed ?cpus ~params ~node_count:nodes () in
  logged := [];
  for i = 0 to nodes - 1 do
    Kernel.set_logger (Cluster.node cluster i).Cluster.n_kernel (fun _ _ m ->
        logged := m :: !logged)
  done;
  cluster

let has_log prefix =
  List.exists
    (fun s ->
      String.length s >= String.length prefix
      && String.equal (String.sub s 0 (String.length prefix)) prefix)
    !logged

let bt_args g iters =
  Zapc_apps.Bt_nas.params_to_value { Zapc_apps.Bt_nas.default_params with g; iters }

let cpi_args chunks =
  Zapc_apps.Cpi.params_to_value
    { Zapc_apps.Cpi.default_params with intervals = 200_000; chunks }

let node_of_pod cluster (p : Pod.t) =
  match Fabric.node_of_ip (Cluster.fabric cluster) p.rip with Some n -> n | None -> -1

let ckpt_items cluster (app : Launch.app) ~prefix =
  Launch.checkpoint_items app ~key_prefix:prefix ~node_of_pod:(node_of_pod cluster)

(* Kick off a checkpoint and hand back a cell the engine loop can poll. *)
let start_checkpoint cluster items =
  let result = ref None in
  Manager.checkpoint (Cluster.manager cluster) ~items ~resume:true ~on_done:(fun r ->
      result := Some r);
  result

let wait_result ?(timeout = Simtime.sec 10.0) cluster result =
  Cluster.run_until cluster ~timeout (fun () -> !result <> None);
  Option.get !result

(* --- the complete-or-clean-abort invariant ----------------------------- *)

let assert_clean ctx cluster fs =
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail (ctx ^ ": " ^ m)) fmt in
  if Manager.busy (Cluster.manager cluster) then fail "manager still busy";
  let nf = Fabric.netfilter (Cluster.fabric cluster) in
  if Netfilter.blocked_count nf <> 0 then
    fail "%d leaked netfilter rule(s)" (Netfilter.blocked_count nf);
  let crashed = Faultsim.crashed_nodes fs in
  for i = 0 to Cluster.node_count cluster - 1 do
    let node = Cluster.node cluster i in
    if not (List.mem i crashed) then begin
      if Agent.busy node.Cluster.n_agent then
        fail "agent on node %d leaked an in-flight operation" i;
      List.iter
        (fun (p : Pod.t) ->
          if p.frozen then fail "pod %d left suspended on node %d" p.pod_id i;
          match Pod.find p.pod_id with
          | Some q when q == p -> ()
          | Some _ | None -> fail "pod %d leaked from the registry on node %d" p.pod_id i)
        (Agent.live_pods node.Cluster.n_agent)
    end
  done

let assert_result_shape ctx (r : Manager.op_result) =
  match (r.r_ok, r.r_failure) with
  | true, None | false, Some _ -> ()
  | true, Some _ -> Alcotest.fail (ctx ^ ": ok result carries a failure reason")
  | false, None -> Alcotest.fail (ctx ^ ": failed result lacks a failure reason")

(* --- directed cases ---------------------------------------------------- *)

(* Satellite: a channel break after the meta report but before 'continue'
   aborts on both sides, and the pod processes resume and keep making
   progress. *)
let test_midckpt_channel_break () =
  let cluster = make_cluster () in
  (* flight recorder armed before the fault harness: the seeded abort below
     must trip a dump both in memory and on disk *)
  let dump_dir =
    let f = Filename.temp_file "zapc_flight" ".d" in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f
  in
  let fl = Cluster.enable_flight ~dump_dir cluster in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  (* the first meta_sent fires while the Manager still waits for the other
     pod's meta: exactly the window between report and 'continue' *)
  Faultsim.install fs
    { fault = Break_channel { node = 1 };
      trigger = On_phase { phase = "meta_sent"; pod = None; skip = 0 } };
  let result = start_checkpoint cluster (ckpt_items cluster app ~prefix:"doomed") in
  let r = wait_result cluster result in
  check tbool "operation aborted" false r.Manager.r_ok;
  assert_result_shape "midckpt-break" r;
  (match r.Manager.r_failure with
   | Some (Protocol.F_channel { node }) ->
     check tbool "failure names the broken node" true (node = 1)
   | _ -> Alcotest.fail "expected F_channel");
  check tbool "fault fired" true (List.length (Faultsim.fired fs) = 1);
  (* the abort tripped the flight recorder: an in-memory dump that parses
     and decodes back into entries, plus a FLIGHT_*.json file on disk *)
  check tbool "flight recorder tripped" true (Flight.trips fl >= 1);
  (match Flight.last_dump fl with
   | None -> Alcotest.fail "no flight dump after seeded abort"
   | Some dump ->
     (match Json.parse dump with
      | Error e -> Alcotest.fail ("flight dump is not valid JSON: " ^ e)
      | Ok j ->
        (match Flight.entries_of_json j with
         | None -> Alcotest.fail "flight dump does not decode into entries"
         | Some entries ->
           check tbool "flight dump is non-empty" true (entries <> []);
           check tbool "flight dump captured open spans" true
             (List.exists
                (fun (_, e) ->
                  match e with Flight.Span_open _ -> true | _ -> false)
                entries))));
  let dumped =
    Sys.readdir dump_dir |> Array.to_list
    |> List.filter (fun f -> String.length f > 7 && String.sub f 0 7 = "FLIGHT_")
  in
  check tbool "flight dump written to disk" true (dumped <> []);
  List.iter (fun f -> Sys.remove (Filename.concat dump_dir f))
    (Array.to_list (Sys.readdir dump_dir));
  Sys.rmdir dump_dir;
  (* both sides resumed; the application still completes correctly *)
  assert_clean "midckpt-break" cluster fs;
  ignore (Launch.wait_done cluster app);
  check tbool "app made progress after abort" true (has_log "bt_nas: checksum")

(* Acceptance: a hung (stalled but not disconnected) Agent no longer stalls
   the Manager indefinitely — the meta-phase timeout aborts the operation,
   and the Agent's own continue-wait timeout resumes its suspended pod. *)
let test_hung_agent_times_out () =
  let cluster = make_cluster () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  (* stall node 1's control endpoint the instant its own pod suspends: its
     meta report is buffered, never lost, and the connection never breaks —
     so only the timeouts can save the protocol *)
  let pod1 = (List.nth app.Launch.pods 1).Pod.pod_id in
  Faultsim.install fs
    { fault = Hang_agent { node = 1; duration = None };
      trigger = On_phase { phase = "suspended"; pod = Some pod1; skip = 0 } };
  let result = start_checkpoint cluster (ckpt_items cluster app ~prefix:"hung") in
  let r = wait_result cluster result in
  check tbool "operation aborted by timeout" false r.Manager.r_ok;
  (match r.Manager.r_failure with
   | Some (Protocol.F_timeout { phase = Protocol.Ph_meta; waiting }) ->
     check tbool "timeout names a waiting pod" true (waiting <> [])
   | _ -> Alcotest.fail "expected F_timeout in the meta-gather phase");
  (* without healing the hang, the Agent-side continue-wait timeout must
     resume the suspended pod on its own *)
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 500)) ();
  Faultsim.heal_all fs;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 500)) ();
  assert_clean "hung-agent" cluster fs;
  ignore (Launch.wait_done cluster app);
  check tbool "app completed after hang" true (has_log "bt_nas: checksum")

(* A storage write outage turns into a clean Agent-side abort (the pod
   resumes even though its image went nowhere), and the same checkpoint
   succeeds once the outage heals. *)
let test_storage_outage_aborts_cleanly () =
  let cluster = make_cluster () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  Faultsim.install fs { fault = Storage_outage { duration = None }; trigger = Now };
  let r = wait_result cluster (start_checkpoint cluster (ckpt_items cluster app ~prefix:"san")) in
  check tbool "outage fails the checkpoint" false r.Manager.r_ok;
  assert_result_shape "storage-outage" r;
  (match r.Manager.r_failure with
   | Some (Protocol.F_agent { detail; _ }) ->
     check tbool "failure mentions storage" true
       (String.length detail >= 7 && String.sub detail 0 7 = "storage")
   | _ -> Alcotest.fail "expected F_agent from the storage write");
  check tbool "a write was rejected" true (Storage.write_failures (Cluster.storage cluster) > 0);
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 300)) ();
  assert_clean "storage-outage" cluster fs;
  (* heal and retry: full recovery *)
  Faultsim.heal_all fs;
  let r2 = wait_result cluster (start_checkpoint cluster (ckpt_items cluster app ~prefix:"san")) in
  check tbool "retry succeeds after heal" true r2.Manager.r_ok;
  ignore (Launch.wait_done cluster app);
  check tbool "app completed" true (has_log "bt_nas: checksum")

(* A node crash mid-checkpoint: the Manager aborts via the broken channel,
   the dead node's pods are gone, and the survivor resumes cleanly. *)
let test_node_crash_mid_checkpoint () =
  let cluster = make_cluster () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  Faultsim.install fs
    { fault = Crash_node { node = 1 };
      trigger = On_phase { phase = "suspended"; pod = None; skip = 0 } };
  let r = wait_result cluster (start_checkpoint cluster (ckpt_items cluster app ~prefix:"crash")) in
  check tbool "operation aborted" false r.Manager.r_ok;
  assert_result_shape "node-crash" r;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 300)) ();
  assert_clean "node-crash" cluster fs;
  (* the crashed node's pod is gone from the registry; the survivor lives *)
  let gone, alive =
    List.partition (fun (p : Pod.t) -> node_of_pod cluster p = -1) app.Launch.pods
  in
  check tbool "crashed node lost its pod" true (List.length gone >= 1);
  List.iter
    (fun (p : Pod.t) -> check tbool "survivor registered" true (Pod.find p.pod_id <> None))
    alive

(* A packet-loss burst on the fabric is the protocol's bread and butter:
   the checkpoint still completes (control channels are reliable; app TCP
   retransmits) and the application finishes. *)
let test_loss_burst_rides_out () =
  let cluster = make_cluster () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 25) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  Faultsim.install fs
    { fault = Loss_burst { prob = 0.2; duration = Simtime.ms 40 }; trigger = Now };
  let r = wait_result cluster (start_checkpoint cluster (ckpt_items cluster app ~prefix:"lossy")) in
  check tbool "checkpoint survives the burst" true r.Manager.r_ok;
  assert_clean "loss-burst" cluster fs;
  ignore (Launch.wait_done cluster app);
  check tbool "app completed under loss" true (has_log "bt_nas: checksum")

(* --- live migration under faults --------------------------------------- *)

let n_seeds () =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | Some s -> (try Stdlib.max 1 (int_of_string (String.trim s)) with _ -> 25)
  | None -> 25

(* Fixed costs sized so a whole pre-copy migration (announce, rounds,
   stop-and-copy, destination activation) fits comfortably inside the
   chaos phase timeout, while the faults still land mid-flight. *)
let mig_params =
  { chaos_params with
    phase_timeout = Simtime.ms 400;
    ckpt_fixed = Simtime.ms 20;
    restore_fixed = Simtime.ms 60;
    mig_stop_fixed = Simtime.ms 4;
    mig_resume_fixed = Simtime.ms 6;
    cost_jitter = 0.2 }

let find_log prefix =
  List.find_opt
    (fun s ->
      String.length s >= String.length prefix
      && String.equal (String.sub s 0 (String.length prefix)) prefix)
    !logged

(* Where the pod with this id lives RIGHT NOW: migration re-creates the
   Pod.t on the destination, so stale launch-time references go dark. *)
let pod_node cluster pod_id =
  match Pod.find pod_id with Some p -> node_of_pod cluster p | None -> -1

let mig_pod cluster (app : Launch.app) ~on_node =
  match
    List.find_opt (fun (p : Pod.t) -> node_of_pod cluster p = on_node) app.Launch.pods
  with
  | Some p -> p
  | None -> Alcotest.fail "no app pod on the expected node"

let start_migrate ?max_rounds cluster ~pod_id ~dest =
  let result = ref None in
  Manager.migrate ?max_rounds (Cluster.manager cluster) ~pod:pod_id
    ~src_node:(pod_node cluster pod_id) ~dest_node:dest ~on_done:(fun r ->
      result := Some r);
  result

(* The checksum a clean, unmigrated run of the scenario workload logs —
   every migration scenario must end on the byte-identical line, which
   rules out data loss or duplication across the move. *)
let mig_reference =
  lazy
    (let cluster = make_cluster ~params:mig_params () in
     let app =
       Launch.launch cluster ~name:"ref" ~program:"bt_nas" ~placement:[ 0; 1 ]
         ~app_args:(bt_args 64 15) ()
     in
     ignore (Launch.wait_done cluster app);
     match find_log "bt_nas: checksum" with
     | Some l -> l
     | None -> Alcotest.fail "reference run produced no checksum")

(* Launch the standard 2-rank workload and return the rank-1 pod (the one
   every migration scenario moves). *)
let mig_setup seed =
  let reference = Lazy.force mig_reference in
  let cluster = make_cluster ~params:mig_params ~seed () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"mig" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 64 15) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  (cluster, fs, app, mig_pod cluster app ~on_node:1, reference)

let mig_app_intact ctx cluster reference =
  Cluster.run_until cluster ~timeout:(Simtime.sec 1200.0) (fun () ->
      has_log "bt_nas: checksum");
  if not (List.mem reference !logged) then
    Alcotest.fail (ctx ^ ": checksum differs from the unmigrated run")

let mig_digest fs r pod_id cluster =
  let fired =
    List.map (fun (t, w) -> Printf.sprintf "%d %s" t w) (Faultsim.fired fs)
  in
  Zapc_obs.Span.unsubscribe_all (Faultsim.trace fs);
  fired
  @ [ Printf.sprintf "ok=%b pod@%d t=%.3fms" r.Manager.r_ok
        (pod_node cluster pod_id) (Simtime.to_ms (Cluster.now cluster)) ]

(* Smoke: live-migrate one rank of a connected application while its peer
   keeps sending, no faults.  The pre-copy rounds, the netfilter-gated
   blackout and the destination activation all run under real traffic, and
   the final checksum proves the TCP stream lost nothing in the move. *)
let run_mig_under_traffic seed =
  let cluster, fs, _app, p, reference = mig_setup (3000 + seed) in
  let r = wait_result cluster (start_migrate cluster ~pod_id:p.Pod.pod_id ~dest:2) in
  check tbool "live migrate ok" true r.Manager.r_ok;
  assert_result_shape "mig-smoke" r;
  check tbool "pod now on the destination" true (pod_node cluster p.Pod.pod_id = 2);
  assert_clean "mig-smoke" cluster fs;
  mig_app_intact "mig-smoke" cluster reference;
  mig_digest fs r p.Pod.pod_id cluster

(* Scenario 1: the DESTINATION node crashes mid-round, with the supervisor
   watching the app.  The operation must fail with a structured reason, the
   source copy keeps running untouched, and the supervisor must not
   double-recover (the pod never left its watched home). *)
let run_mig_dest_crash seed =
  let cluster, fs, app, p, reference = mig_setup (3100 + seed) in
  let svc =
    Periodic.start cluster ~pods:app.Launch.pods ~prefix:"migsup"
      ~period:(Simtime.ms 50) ~keep:2 ()
  in
  let sup = Supervisor.start ~trace:(Faultsim.trace fs) cluster svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.last_good svc >= 1 && not (Manager.busy (Cluster.manager cluster)));
  Faultsim.install fs
    { fault = Crash_node { node = 2 };
      trigger = On_phase { phase = "mig_round"; pod = Some p.Pod.pod_id; skip = 0 } };
  let r = wait_result cluster (start_migrate cluster ~pod_id:p.Pod.pod_id ~dest:2) in
  check tbool "migration aborted" false r.Manager.r_ok;
  assert_result_shape "mig-dest-crash" r;
  (match r.Manager.r_failure with
   | Some (Protocol.F_channel { node }) ->
     check tbool "failure names the dead destination" true (node = 2)
   | _ -> Alcotest.fail "expected F_channel naming the destination");
  check tbool "fault fired" true (List.length (Faultsim.fired fs) = 1);
  check tbool "pod still on the source" true (pod_node cluster p.Pod.pod_id = 1);
  (* run on across another periodic epoch: plenty of time for a confused
     supervisor to act, and proof the epoch machinery still checkpoints the
     unmoved pod from its source node *)
  let good = Periodic.last_good svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.last_good svc > good && not (Manager.busy (Cluster.manager cluster)));
  check tbool "supervisor did not double-recover" true (Supervisor.recoveries sup = 0);
  check tbool "watch set never moved to the dead destination" true
    (not (List.mem 2 (Supervisor.watched sup)));
  Supervisor.stop sup;
  Periodic.stop svc;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 200)) ();
  assert_clean "mig-dest-crash" cluster fs;
  mig_app_intact "mig-dest-crash" cluster reference;
  mig_digest fs r p.Pod.pod_id cluster

(* Scenario 2: the SOURCE node crashes the instant it hands the pod off —
   its own done-report never gets out, but the destination committed first.
   The Manager's grace window must let the in-flight commit win: exactly
   one live copy afterwards, on the destination, and no split brain. *)
let run_mig_src_crash seed =
  let cluster, fs, _app, p, reference = mig_setup (3200 + seed) in
  Faultsim.install fs
    { fault = Crash_node { node = 1 };
      trigger = On_phase { phase = "mig_handoff"; pod = Some p.Pod.pod_id; skip = 0 } };
  let r = wait_result cluster (start_migrate cluster ~pod_id:p.Pod.pod_id ~dest:2) in
  check tbool "destination copy wins" true r.Manager.r_ok;
  assert_result_shape "mig-src-crash" r;
  check tbool "fault fired" true (List.length (Faultsim.fired fs) = 1);
  check tbool "source loss after commit counted once" true
    (Zapc_obs.Metrics.counter (Cluster.metrics cluster) "mgr.mig.src_lost_after_commit"
     = 1);
  check tbool "exactly one live copy, on the destination" true
    (pod_node cluster p.Pod.pod_id = 2);
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 300)) ();
  assert_clean "mig-src-crash" cluster fs;
  mig_app_intact "mig-src-crash" cluster reference;
  mig_digest fs r p.Pod.pod_id cluster

(* Scenario 3: the destination's channel breaks during the residue
   transfer — after the source suspended the pod, before the commit.  The
   operation aborts cleanly, the pod resumes on the source, the destination
   drops everything it staged, and the pod is immediately migratable again
   to a healthy node. *)
let run_mig_residue_break seed =
  let cluster, fs, _app, p, reference = mig_setup (3300 + seed) in
  let stage_drops = ref 0 in
  Zapc_obs.Span.subscribe (Faultsim.trace fs) (function
    | Zapc_obs.Span.Instant i
      when String.equal i.in_what "mig_stage_dropped" && i.in_pod = p.Pod.pod_id ->
      incr stage_drops
    | _ -> ());
  Faultsim.install fs
    { fault = Break_channel { node = 2 };
      trigger = On_phase { phase = "mig_residue"; pod = Some p.Pod.pod_id; skip = 0 } };
  let r = wait_result cluster (start_migrate cluster ~pod_id:p.Pod.pod_id ~dest:2) in
  check tbool "migration aborted" false r.Manager.r_ok;
  assert_result_shape "mig-residue-break" r;
  (match r.Manager.r_failure with
   | Some (Protocol.F_channel { node }) ->
     check tbool "break names the destination" true (node = 2)
   | _ -> Alcotest.fail "expected F_channel naming the destination");
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 300)) ();
  check tbool "pod resumed on the source" true (pod_node cluster p.Pod.pod_id = 1);
  check tbool "destination dropped its staged rounds" true (!stage_drops >= 1);
  assert_clean "mig-residue-break" cluster fs;
  (* the abort left no residue in the way: a retry to a healthy node wins *)
  let r2 = wait_result cluster (start_migrate cluster ~pod_id:p.Pod.pod_id ~dest:3) in
  check tbool "retry to a healthy destination succeeds" true r2.Manager.r_ok;
  check tbool "pod now on the retry destination" true
    (pod_node cluster p.Pod.pod_id = 3);
  assert_clean "mig-residue-retry" cluster fs;
  mig_app_intact "mig-residue-break" cluster reference;
  mig_digest fs r p.Pod.pod_id cluster

(* Scenario 4: the commit rule holds for every U_node item, not only a
   live migration's.  A whole-application stream (nodes 0,1 -> 2,3) loses
   a SOURCE node the instant it hands its pod off: the image has landed on
   the destination, the done-report never gets out.  The checkpoint
   succeeds, the restart brings the application up on the destinations,
   and the run ends on the unmigrated checksum. *)
let run_stream_src_crash seed =
  let cluster, fs, app, p, reference = mig_setup (3400 + seed) in
  Faultsim.install fs
    { fault = Crash_node { node = 1 };
      trigger = On_phase { phase = "destroyed"; pod = Some p.Pod.pod_id; skip = 0 } };
  let moves =
    List.map (fun (q : Pod.t) -> (q.pod_id, node_of_pod cluster q)) app.Launch.pods
  in
  let result = ref None in
  Manager.checkpoint (Cluster.manager cluster) ~resume:false
    ~items:
      (List.map
         (fun (id, src) ->
           { Manager.ci_node = src; ci_pod = id; ci_dest = Protocol.U_node (src + 2) })
         moves)
    ~on_done:(fun r -> result := Some r);
  let r = wait_result cluster result in
  check tbool "landed images win" true r.Manager.r_ok;
  assert_result_shape "stream-src-crash" r;
  check tbool "fault fired" true (List.length (Faultsim.fired fs) = 1);
  check tbool "source loss after commit counted once" true
    (Zapc_obs.Metrics.counter (Cluster.metrics cluster) "mgr.mig.src_lost_after_commit"
     = 1);
  let rr =
    Cluster.restart_sync cluster
      ~items:
        (List.map
           (fun (id, src) ->
             { Manager.ri_node = src + 2; ri_pod = id; ri_uri = Protocol.U_node (src + 2) })
           moves)
  in
  check tbool "restart from the landed images" true rr.Manager.r_ok;
  List.iter
    (fun (id, src) -> check tbool "pod on its destination" true (pod_node cluster id = src + 2))
    moves;
  assert_clean "stream-src-crash" cluster fs;
  mig_app_intact "stream-src-crash" cluster reference;
  mig_digest fs r p.Pod.pod_id cluster

let test_stream_src_crash () = ignore (run_stream_src_crash 42)

let test_mig_under_traffic () = ignore (run_mig_under_traffic 42)
let test_mig_dest_crash () = ignore (run_mig_dest_crash 42)
let test_mig_src_crash () = ignore (run_mig_src_crash 42)
let test_mig_residue_break () = ignore (run_mig_residue_break 42)

(* Every scenario must hold across the seed sweep (jitter moves every cost,
   so the faults land at different instants each time). *)
let test_mig_seed_sweep () =
  let n = Stdlib.max 3 (n_seeds () / 3) in
  for seed = 1 to n do
    ignore (run_mig_dest_crash seed);
    ignore (run_mig_src_crash seed);
    ignore (run_mig_residue_break seed)
  done;
  Printf.printf "chaos: migration scenarios swept over %d seeds\n%!" n

(* ... and bit-identically: the same seed replays the same fault instants
   and the same outcome. *)
let test_mig_deterministic () =
  List.iter
    (fun (name, f) ->
      let a = f 11 and b = f 11 in
      check (Alcotest.list Alcotest.string) (name ^ ": same seed, same run") a b)
    [ ("under-traffic", run_mig_under_traffic);
      ("dest-crash", run_mig_dest_crash);
      ("src-crash", run_mig_src_crash);
      ("residue-break", run_mig_residue_break) ]

(* --- seeded random scenarios ------------------------------------------- *)

type scenario_outcome = { so_kinds : string list }

let kind_of = function
  | Faultsim.Break_channel _ -> "break"
  | Faultsim.Crash_node _ -> "crash"
  | Faultsim.Hang_agent _ -> "hang"
  | Faultsim.Loss_burst _ -> "loss"
  | Faultsim.Latency_spike _ -> "latency"
  | Faultsim.Storage_outage _ -> "storage"
  | Faultsim.Replica_outage _ -> "replica"
  | Faultsim.Corrupt_image _ -> "corrupt"

let run_scenario seed =
  let prng = Rng.create ~seed:(9000 + seed) in
  let nodes = 3 + Rng.int prng 2 in
  let cluster = make_cluster ~nodes ~seed:(1000 + seed) () in
  let fs = Faultsim.create cluster in
  (* workload: two ranks on a random pair of distinct nodes *)
  let n0 = Rng.int prng nodes in
  let n1 = (n0 + 1 + Rng.int prng (nodes - 1)) mod nodes in
  let program, args, done_log =
    if Rng.bool prng 0.5 then
      ("bt_nas", bt_args (64 + (32 * Rng.int prng 2)) (15 + Rng.int prng 15),
       "bt_nas: checksum")
    else ("cpi", cpi_args (3 + Rng.int prng 4), "cpi: pi")
  in
  let app =
    Launch.launch cluster ~name:"chaos" ~program ~placement:[ n0; n1 ] ~app_args:args ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let plan =
    Faultsim.random_plan prng ~node_count:nodes ~horizon:(Simtime.ms 30)
      ~count:(1 + Rng.int prng 3)
  in
  let ctx =
    Printf.sprintf "seed %d [%s]" seed
      (String.concat "; " (List.map Faultsim.injection_to_string plan))
  in
  Faultsim.install_all fs plan;
  let result = start_checkpoint cluster (ckpt_items cluster app ~prefix:"chaos") in
  (* the operation must terminate: a stalled Manager is itself a failure *)
  let r =
    try wait_result cluster result
    with Cluster.Timeout _ -> Alcotest.fail (ctx ^ ": manager stalled")
  in
  assert_result_shape ctx r;
  (* let transient faults expire, then heal the permanent ones and drain the
     Agent-side timeout paths *)
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 600)) ();
  Faultsim.heal_all fs;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 600)) ();
  let crashed = Faultsim.crashed_nodes fs in
  let app_nodes = [ n0; n1 ] in
  if List.for_all (fun n -> not (List.mem n crashed)) app_nodes then begin
    (* no application node died: the pods must still make progress all the
       way to completion, whatever happened to the checkpoint *)
    (try ignore (Launch.wait_done cluster ~timeout:(Simtime.sec 1200.0) app)
     with Cluster.Timeout m -> Alcotest.fail (ctx ^ ": app stalled: " ^ m));
    if not (has_log done_log) then Alcotest.fail (ctx ^ ": app produced no result")
  end;
  assert_clean ctx cluster fs;
  (* detach the fault-injection subscribers before the next seed: [Span.clear]
     deliberately keeps subscriptions, so a stale hook would otherwise fire
     into this scenario's dead cluster from the next one's events *)
  Zapc_obs.Span.unsubscribe_all (Faultsim.trace fs);
  { so_kinds = List.map (fun (i : Faultsim.injection) -> kind_of i.fault) plan }

let test_random_scenarios () =
  let n = n_seeds () in
  let kinds = Hashtbl.create 8 in
  for seed = 1 to n do
    let o = run_scenario seed in
    List.iter (fun k -> Hashtbl.replace kinds k ()) o.so_kinds
  done;
  Printf.printf "chaos: %d scenarios, fault kinds exercised: %s\n%!" n
    (String.concat ", " (Hashtbl.fold (fun k () acc -> k :: acc) kinds []));
  (* the sweep must exercise a meaningful slice of the fault space *)
  check tbool "covers >= 4 fault kinds" true (Hashtbl.length kinds >= 4)

(* --- availability: self-healing supervisor scenarios ------------------- *)

(* Knobs sized so a whole detect-recover cycle fits in tens of virtual
   milliseconds: fast heartbeats, cheap checkpoints/restores, and a phase
   timeout short enough that a recovery attempt into a hung node fails
   quickly but long enough for a healthy restore to finish. *)
let avail_params =
  { Params.default with
    phase_timeout = Simtime.ms 400;
    heartbeat_period = Simtime.ms 20;
    heartbeat_misses = 3;
    recover_backoff = Simtime.ms 40;
    recover_backoff_max = Simtime.ms 400;
    recover_retries = 5;
    ckpt_fixed = Simtime.ms 20;
    restore_fixed = Simtime.ms 60;
    cost_jitter = 0.2 }

(* Start an app plus periodic checkpoints plus the supervisor, and run
   until [n] epochs have completed. *)
let start_supervised ?(seed = 42) ?(epochs = 2) ?(incremental = false) () =
  let cluster = make_cluster ~params:avail_params ~seed () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 400) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Periodic.start ~incremental cluster ~pods:app.Launch.pods ~prefix:"avail"
      ~period:(Simtime.ms 50) ~keep:2 ()
  in
  let sup = Supervisor.start ~trace:(Faultsim.trace fs) cluster svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.last_good svc >= epochs && not (Manager.busy (Cluster.manager cluster)));
  (cluster, fs, app, svc, sup)

(* Acceptance: one node crashes mid-run and the app completes end-to-end
   with zero manual recovery calls — the supervisor detects the death via
   missed heartbeats and restarts from the last good epoch on survivors.
   Returns the observable timeline so the determinism test can replay it. *)
let run_crash_autorecovery seed =
  let cluster, fs, app, svc, sup = start_supervised ~seed () in
  check tbool "app still running at crash time" true (not (Launch.is_done app));
  let crash_time = Cluster.now cluster in
  Faultsim.install fs { fault = Crash_node { node = 1 }; trigger = Now };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  check tbool "supervisor recovered (did not give up)" true
    (Supervisor.recoveries sup = 1);
  let detect = Option.get (Supervisor.last_detect sup) in
  let mttr_end = Option.get (Supervisor.last_recovered sup) in
  let detect_latency = Simtime.sub detect crash_time in
  let mttr = Simtime.sub mttr_end crash_time in
  (* detection needs heartbeat_misses consecutive silent beats, no more *)
  check tbool "detection latency positive" true (detect_latency > Simtime.zero);
  check tbool "detection within 10 heartbeats" true
    (detect_latency <= Simtime.ms 200);
  check tbool "recovery after detection" true (Simtime.compare mttr detect_latency > 0);
  check tbool "MTTR under a virtual second" true (mttr <= Simtime.sec 1.0);
  (* the recovered app must run to its correct result *)
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      has_log "bt_nas: checksum");
  Supervisor.stop sup;
  Periodic.stop svc;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 200)) ();
  assert_clean "auto-recovery" cluster fs;
  check tbool "watch set moved off the dead node" true
    (not (List.mem 1 (Supervisor.watched sup)));
  List.map
    (fun (t, w) -> Printf.sprintf "%d %s" t w)
    (Supervisor.events sup)

let test_crash_autorecovery () = ignore (run_crash_autorecovery 42)

(* determinism: the same seed replays the identical supervisor timeline
   (detect instant, attempts, backoffs, recovery instant) *)
let test_autorecovery_deterministic () =
  let a = run_crash_autorecovery 7 and b = run_crash_autorecovery 7 in
  check (Alcotest.list Alcotest.string) "same seed, same timeline" a b

(* Acceptance: the first recovery attempt runs into a *second* injected
   fault (the target Agent hangs the moment the death is declared), times
   out, and the supervisor retries with backoff until the hang heals. *)
let test_backoff_retry_after_second_fault () =
  let cluster, fs, app, svc, sup = start_supervised () in
  ignore app;
  (* the detection event itself triggers the second fault: node 2 — the
     recovery target for the dead node's pod — stalls for 600 ms *)
  Faultsim.install fs
    { fault = Hang_agent { node = 2; duration = Some (Simtime.ms 600) };
      trigger = On_phase { phase = "sup_detect:node1"; pod = None; skip = 0 } };
  Faultsim.install fs { fault = Crash_node { node = 1 }; trigger = Now };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  check tbool "recovered despite the second fault" true
    (Supervisor.recoveries sup = 1);
  check tbool "first attempt failed, retried with backoff" true
    (Supervisor.total_attempts sup >= 2);
  check tbool "backoff event traced" true
    (List.exists
       (fun (_, w) ->
         String.length w >= 11 && String.equal (String.sub w 0 11) "sup_backoff")
       (Supervisor.events sup));
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      has_log "bt_nas: checksum");
  Supervisor.stop sup;
  Periodic.stop svc;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 200)) ();
  assert_clean "backoff-retry" cluster fs

(* Acceptance (sibling): every image on the primary replica rots just
   before the node crash; the automatic recovery reads from the intact
   second replica and the corruption counter proves the fallback ran. *)
let test_corrupt_primary_recovers_from_replica () =
  let cluster, fs, app, svc, sup = start_supervised () in
  ignore app;
  let storage = Cluster.storage cluster in
  check tbool "store is replicated" true (Storage.replica_count storage >= 2);
  Faultsim.install fs
    { fault = Corrupt_image { replica = 0; key = None }; trigger = Now };
  Faultsim.install fs { fault = Crash_node { node = 1 }; trigger = Now };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  check tbool "recovered from the replica" true (Supervisor.recoveries sup = 1);
  check tbool "corruption was detected on the primary" true
    (Storage.corruption_detected storage > 0);
  (* the same facts through the metrics registry: fallbacks and detections
     are first-class instruments, not derived from trace strings *)
  let reg = Cluster.metrics cluster in
  check tbool "registry counted corruption detections" true
    (Zapc_obs.Metrics.counter reg "storage.corruption_detected" > 0);
  check tbool "registry counted replica fallbacks" true
    (Zapc_obs.Metrics.counter reg "storage.replica_fallbacks" > 0);
  check tbool "registry agrees with the storage counter" true
    (Zapc_obs.Metrics.counter reg "storage.corruption_detected"
     = Storage.corruption_detected storage);
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      has_log "bt_nas: checksum");
  (* Extension (storage bugfix 3): take the second replica out while the
     periodic service keeps writing epochs, so those epochs land on the
     primary only; healing must restore the replication factor by
     backfilling the missed copies, not just clear the outage flag. *)
  Storage.set_replica_fail storage ~replica:1 (Some "maintenance");
  check tbool "no re-replication before the outage" true
    (Zapc_obs.Metrics.counter reg "storage.rereplicated" = 0);
  let puts0 = Zapc_obs.Metrics.counter reg "storage.puts" in
  Cluster.run_until cluster ~timeout:(Simtime.sec 120.0) (fun () ->
      Zapc_obs.Metrics.counter reg "storage.puts" > puts0);
  check tbool "epochs were written during the outage" true
    (Zapc_obs.Metrics.counter reg "storage.puts" > puts0);
  Storage.heal_replicas storage;
  check tbool "heal re-replicated the outage-era copies" true
    (Zapc_obs.Metrics.counter reg "storage.rereplicated" > 0);
  check tbool "every key back at full replication" true
    (List.for_all
       (fun k -> Storage.replica_has storage ~replica:1 k)
       (Storage.keys storage));
  Supervisor.stop sup;
  Periodic.stop svc;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 200)) ();
  assert_clean "corrupt-primary" cluster fs

(* The storage instruments alone, with a controlled single read: corrupting
   the primary must cost exactly one corruption detection and exactly one
   replica fallback in the registry. *)
let test_replica_fallback_counters () =
  let module Metrics = Zapc_obs.Metrics in
  let module Value = Zapc_codec.Value in
  let engine = Engine.create ~seed:1 () in
  let metrics = Metrics.create () in
  let storage =
    Storage.create ~trace:(Zapc.Trace.create ()) ~metrics ~replicas:2 engine
  in
  let img =
    Zapc_ckpt.Image.of_pod_image
      (Value.assoc
         [ ("pod_id", Value.int 1); ("name", Value.str "m");
           ("memory_bytes", Value.int 4096) ])
  in
  (match Storage.put storage "m.pod1" img with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("put failed: " ^ e));
  check tbool "put counted once" true (Metrics.counter metrics "storage.puts" = 1);
  check tbool "healthy read served" true (Storage.get storage "m.pod1" <> None);
  check tbool "healthy read is no fallback" true
    (Metrics.counter metrics "storage.replica_fallbacks" = 0);
  check tbool "primary corrupted" true (Storage.corrupt storage ~replica:0 "m.pod1");
  check tbool "read survives via the replica" true
    (Storage.get storage "m.pod1" <> None);
  check tbool "exactly one corruption detected" true
    (Metrics.counter metrics "storage.corruption_detected" = 1);
  check tbool "exactly one replica fallback" true
    (Metrics.counter metrics "storage.replica_fallbacks" = 1);
  check tbool "absent key misses" true (Storage.get storage "nope" = None);
  check tbool "miss counted, not a fallback" true
    (Metrics.counter metrics "storage.get_misses" = 1
     && Metrics.counter metrics "storage.replica_fallbacks" = 1)

(* Satellite: replica outage mid-delta-chain.  Incremental epochs chain
   images across epochs (and prune condemns chained bases, exercising the
   deferred-GC path); the whole primary replica then goes dark and a node
   crashes.  The automatic recovery must fetch EVERY link of the last-good
   chain from the surviving replica to materialize the restart image. *)
let test_replica_outage_mid_delta_chain () =
  let cluster, fs, app, svc, sup = start_supervised ~epochs:3 ~incremental:true () in
  ignore app;
  let storage = Cluster.storage cluster in
  check tbool "store is replicated" true (Storage.replica_count storage >= 2);
  (* Run on until the LAST GOOD epoch is itself a delta: every
     (max_delta_chain + 1)-th epoch is a forced full, so the harness can
     stop on a chain head that has no base.  A delta epoch is never more
     than one period away. *)
  let good_is_delta () =
    let good = Periodic.last_good svc in
    good >= 2
    && List.exists
         (fun pod_id ->
           Storage.base_key storage (Printf.sprintf "avail.e%d.pod%d" good pod_id)
           <> None)
         (Periodic.pod_ids svc)
  in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      good_is_delta () && not (Manager.busy (Cluster.manager cluster)));
  check tbool "last good epoch is part of a delta chain" true (good_is_delta ());
  Storage.set_replica_fail storage ~replica:0 (Some "controller dark");
  Faultsim.install fs { fault = Crash_node { node = 1 }; trigger = Now };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  check tbool "recovered across the outage" true (Supervisor.recoveries sup = 1);
  let reg = Cluster.metrics cluster in
  check tbool "chain links were resolved" true
    (Zapc_obs.Metrics.counter reg "storage.delta_resolved" > 0);
  check tbool "reads fell back past the dark replica" true
    (Zapc_obs.Metrics.counter reg "storage.replica_fallbacks" > 0);
  Storage.heal_replicas storage;
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      has_log "bt_nas: checksum");
  Supervisor.stop sup;
  Periodic.stop svc;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 200)) ();
  assert_clean "replica-outage-chain" cluster fs

(* Satellite: a failed epoch's partially written pod images are
   garbage-collected — storage holds exactly the completed epochs' keys. *)
let test_failed_epoch_gc () =
  let cluster = make_cluster ~params:avail_params () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 96 400) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Periodic.start cluster ~pods:app.Launch.pods ~prefix:"gcsvc"
      ~period:(Simtime.ms 50) ~keep:3 ()
  in
  let failures = ref 0 in
  Periodic.set_on_epoch svc (fun _ r -> if not r.Manager.r_ok then incr failures);
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.completed svc >= 1 && not (Manager.busy (Cluster.manager cluster)));
  let good = Periodic.last_good svc in
  (* break a channel in the next epoch's meta window: that epoch aborts
     after some pods may already have written their images *)
  Faultsim.install fs
    { fault = Break_channel { node = 1 };
      trigger = On_phase { phase = "meta_sent"; pod = None; skip = 0 } };
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () -> !failures >= 1);
  Periodic.stop svc;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 300)) ();
  let svc_keys =
    List.filter
      (fun k -> String.length k >= 5 && String.equal (String.sub k 0 5) "gcsvc")
      (Storage.keys (Cluster.storage cluster))
  in
  (* exactly the completed epochs' images remain: two pods per good epoch,
     nothing from the failed epoch *)
  check (Alcotest.list Alcotest.string) "only completed epochs resident"
    (List.sort String.compare
       (List.concat_map
          (fun e ->
            List.map
              (fun (p : Pod.t) -> Printf.sprintf "gcsvc.e%d.pod%d" e p.pod_id)
              app.Launch.pods)
          (List.init good (fun i -> i + 1))))
    svc_keys;
  assert_clean "failed-epoch-gc" cluster fs

(* Tentpole scenario: hierarchical coordination under fire.  Fanout 3 over
   13 nodes hangs subtree {6,7,8} under node 1, which also hosts a pod; the
   node crashes in the checkpoint's ack-aggregation window.  The root must
   abort cleanly (no pod left paused anywhere — including deep under the
   severed hop), the supervisor detects the death, re-forms the tree over
   the 12 survivors BEFORE recovering, and subsequent periodic epochs
   checkpoint successfully over the re-formed topology. *)
let test_tree_subcoordinator_crash () =
  let params = { avail_params with Params.tree_fanout = 3 } in
  let cluster = make_cluster ~params ~nodes:13 () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1; 4; 5 ]
      ~app_args:(bt_args 96 400) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Periodic.start cluster ~pods:app.Launch.pods ~prefix:"tree"
      ~period:(Simtime.ms 50) ~keep:2 ()
  in
  let sup = Supervisor.start ~trace:(Faultsim.trace fs) cluster svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.last_good svc >= 1 && not (Manager.busy (Cluster.manager cluster)));
  let reg = Cluster.metrics cluster in
  check tbool "commands flowed through the tree" true
    (Zapc_obs.Metrics.counter reg "mgr.tree.down_batches" > 0);
  check tbool "reports were aggregated by the relays" true
    (Zapc_obs.Metrics.counter reg "relay.up_batches" > 0);
  check tbool "formed over all 13 nodes" true
    (Zapc_obs.Metrics.gauge reg "mgr.tree.nodes" = 13.0);
  Faultsim.install fs
    { fault = Crash_node { node = 1 };
      trigger = On_phase { phase = "meta_sent"; pod = None; skip = 0 } };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  check tbool "supervisor recovered (did not give up)" true
    (Supervisor.recoveries sup = 1);
  check tbool "tree re-formed over the 12 survivors" true
    (Zapc_obs.Metrics.gauge reg "mgr.tree.nodes" = 12.0);
  (* epochs keep completing through the re-formed hierarchy *)
  let good = Periodic.last_good svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.last_good svc > good && not (Manager.busy (Cluster.manager cluster)));
  Cluster.run_until cluster ~timeout:(Simtime.sec 2400.0) (fun () ->
      has_log "bt_nas: checksum");
  Supervisor.stop sup;
  Periodic.stop svc;
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 200)) ();
  (* "no orphaned paused pods": assert_clean audits every surviving node,
     including the re-attached pod-free subtree, for frozen pods and leaked
     in-flight operations *)
  assert_clean "tree-subcoordinator-crash" cluster fs;
  check tbool "watch set moved off the dead node" true
    (not (List.mem 1 (Supervisor.watched sup)))

(* determinism: the same seed yields the same injected-fault log *)
let test_scenario_determinism () =
  let fired_of seed =
    let prng = Rng.create ~seed:(9000 + seed) in
    let cluster = make_cluster ~seed:(1000 + seed) () in
    let fs = Faultsim.create cluster in
    let app =
      Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
        ~app_args:(bt_args 96 20) ()
    in
    Cluster.run cluster ~until:(Simtime.ms 5) ();
    Faultsim.install_all fs
      (Faultsim.random_plan prng ~node_count:4 ~horizon:(Simtime.ms 30) ~count:3);
    let r = wait_result cluster (start_checkpoint cluster (ckpt_items cluster app ~prefix:"det")) in
    ignore r;
    List.map
      (fun (t, what) -> Printf.sprintf "%d %s" t what)
      (Faultsim.fired fs)
  in
  let a = fired_of 7 and b = fired_of 7 in
  check (Alcotest.list Alcotest.string) "same seed, same faults" a b

(* --- checkpoint storms ---------------------------------------------------

   The paper's four applications at 10, 12 and 16 ranks (BT at 9 and 16) on
   the paper's topology — above 9 ranks, 8 dual-CPU nodes with two pods
   each — take checkpoints at seeded instants, some back to back, so a
   requested instant has often passed by the time the previous checkpoint
   returns; some runs then restart from one of the images.  Whatever the
   instants, every run must log exactly the result of a run with no
   checkpoints.  Seed s runs configuration s mod 11; [dune runtest] runs
   the default set below, @chaos / @slowchaos seeds 0 .. CHAOS_SEEDS-1. *)

type storm_app = Cpi | Bt | Bratu | Povray

let storm_program = function
  | Cpi -> "cpi" | Bt -> "bt_nas" | Bratu -> "bratu" | Povray -> "povray"

(* The paper-scale parameter sets (single-node runs of about a virtual
   minute, paper-sized images) with a third of the per-cell cost, so a
   16-rank run's checkpoints fall close together. *)
let storm_args = function
  | Cpi ->
    Zapc_apps.Cpi.params_to_value
      { Zapc_apps.Cpi.intervals = 2_000_000; chunks = 10; ns_per_interval = 10_000;
        mem_base = 6_000_000; mem_scaled = 10_000_000 }
  | Bt ->
    Zapc_apps.Bt_nas.params_to_value
      { Zapc_apps.Bt_nas.g = 96; iters = 150; ns_per_cell = 14_400;
        mem_base = 20_000_000; mem_scaled = 320_000_000 }
  | Bratu ->
    Zapc_apps.Bratu.params_to_value
      { Zapc_apps.Bratu.g = 64; lambda = 6.0; max_iters = 250; tol = 1e-12;
        check_every = 10; ns_per_cell = 19_200; mem_base = 15_000_000;
        mem_scaled = 130_000_000 }
  | Povray ->
    Zapc_apps.Povray.params_to_value
      { Zapc_apps.Povray.width = 480; height = 360; block_rows = 6;
        ns_per_pixel = 116_000; mem_each = 10_000_000 }

let storm_configs =
  [| (Cpi, 10); (Cpi, 12); (Cpi, 16); (Bt, 9); (Bt, 16); (Bratu, 10); (Bratu, 12);
     (Bratu, 16); (Povray, 10); (Povray, 12); (Povray, 16) |]

(* (node count, CPUs per node, node of each rank) *)
let storm_topology n =
  if n <= 9 then (n, 1, List.init n Fun.id) else (8, 2, List.init n (fun i -> i mod 8))

let storm_launch ~seed (app, n) =
  let nodes, cpus, placement = storm_topology n in
  let cluster = make_cluster ~params:Params.default ~nodes ~cpus ~seed () in
  let la =
    Launch.launch cluster ~name:(storm_program app) ~program:(storm_program app)
      ~placement ~app_args:(storm_args app) ()
  in
  (cluster, la, placement)

(* Every result line logged so far (rank 0 logs one per run), oldest
   first. *)
let storm_results app =
  let prefix = storm_program app ^ ":" in
  List.rev
    (List.filter
       (fun m ->
         String.starts_with ~prefix m
         && not (String.starts_with ~prefix:(prefix ^ " MPI") m))
       !logged)

let storm_destroy (la : Launch.app) =
  List.iter (fun id -> Option.iter Pod.destroy (Pod.find id)) (Launch.pod_ids la)

(* Base: the completion time and result line of a run with no checkpoints,
   once per configuration. *)
let storm_bases = Hashtbl.create 11

let storm_base config =
  match Hashtbl.find_opt storm_bases config with
  | Some b -> b
  | None ->
    let app, _ = storm_configs.(config) in
    let cluster, la, _ = storm_launch ~seed:1 storm_configs.(config) in
    let t = Launch.wait_done cluster la in
    let b =
      match storm_results app with
      | [ line ] -> (t, line)
      | lines ->
        Alcotest.failf "storm base %s: %d result lines" (storm_program app)
          (List.length lines)
    in
    storm_destroy la;
    Hashtbl.replace storm_bases config b;
    b

exception Storm_failure of string

let run_storm seed =
  let config = seed mod Array.length storm_configs in
  let app, n = storm_configs.(config) in
  let t_base, want = storm_base config in
  let prng = Rng.create ~seed:(7000 + seed) in
  (* checkpoint instants: random within the run, and with probability 0.4
     within 2 ms after the previous one — already past when that
     checkpoint returns *)
  let count = 3 + Rng.int prng 8 in
  let instants =
    List.fold_left
      (fun acc _ ->
        let at =
          match acc with
          | prev :: _ when Rng.bool prng 0.4 -> Simtime.add prev (Rng.int prng (Simtime.ms 2))
          | _ -> int_of_float (float_of_int t_base *. (0.05 +. (0.85 *. Rng.float prng 1.0)))
        in
        at :: acc)
      [] (List.init count Fun.id)
    |> List.sort compare
  in
  let restart = Rng.bool prng 0.3 in
  let ctx =
    Printf.sprintf "storm seed %d (%s, %d ranks, checkpoints at %s ms%s)" seed
      (storm_program app) n
      (String.concat ", "
         (List.map (fun t -> Printf.sprintf "%.3f" (Simtime.to_ms t)) instants))
      (if restart then ", restart" else "")
  in
  let fail fmt = Printf.ksprintf (fun m -> raise (Storm_failure (ctx ^ ": " ^ m))) fmt in
  let cluster, la, placement = storm_launch ~seed (app, n) in
  Fun.protect ~finally:(fun () -> storm_destroy la) @@ fun () ->
  let taken = ref [] in
  List.iteri
    (fun i at ->
      Cluster.run cluster ~until:at ();
      if not (Launch.is_done la) then begin
        let prefix = Printf.sprintf "storm%d" i in
        let r =
          Cluster.checkpoint_sync cluster ~items:(ckpt_items cluster la ~prefix) ~resume:true
        in
        if not r.Manager.r_ok then fail "checkpoint %d failed" i;
        taken := prefix :: !taken
      end)
    instants;
  (try ignore (Launch.wait_done cluster ~timeout:(Simtime.sec 600.0) la)
   with Cluster.Timeout m -> fail "run stalled: %s" m);
  let expect what =
    match storm_results app with
    | [ got ] when String.equal got want -> ()
    | lines -> fail "%s logged [%s], Base logged %S" what (String.concat "; " lines) want
  in
  expect "checkpointed run";
  (match !taken with
   | _ :: _ when restart ->
     let prefix = List.nth !taken (Rng.int prng (List.length !taken)) in
     let ids = Launch.pod_ids la in
     storm_destroy la;
     logged := [];
     let r =
       Cluster.restart_sync cluster
         ~items:
           (List.map2
              (fun id node ->
                { Manager.ri_node = node; ri_pod = id;
                  ri_uri = Protocol.U_storage (Printf.sprintf "%s.pod%d" prefix id) })
              ids placement)
     in
     if not r.Manager.r_ok then fail "restart from %s failed" prefix;
     let ranks =
       List.concat_map
         (fun id ->
           match Pod.find id with
           | None -> []
           | Some pod ->
             List.filter_map
               (fun (_, (p : Zapc_simos.Proc.t)) ->
                 if String.equal (Zapc_simos.Program.name_of p.inst) (storm_program app)
                 then Some p
                 else None)
               (Pod.members_all pod))
         ids
     in
     if List.length ranks <> List.length ids then fail "restart from %s: ranks missing" prefix;
     (try
        Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () ->
            Cluster.procs_exited ranks)
      with Cluster.Timeout m -> fail "restarted run stalled: %s" m);
     expect ("run restarted from " ^ prefix)
   | _ -> ())

(* The default set: one seed per configuration, in configuration order.
   Where one exists it is a seed that failed while a checkpoint overrunning
   the next requested instant could rewind the virtual clock (8 of these
   11 did: wrong results, a lost receive context or a stalled run). *)
let storm_seeds () =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | Some _ -> List.init (n_seeds ()) Fun.id
  | None -> [ 0; 1; 13; 69; 26; 93; 28; 7; 140; 108; 10 ]

let test_checkpoint_storm () =
  let seeds = storm_seeds () in
  let failed =
    List.filter_map
      (fun seed ->
        match run_storm seed with
        | () -> None
        | exception Storm_failure m -> Some m
        | exception e -> Some (Printf.sprintf "storm seed %d: %s" seed (Printexc.to_string e)))
      seeds
  in
  if failed <> [] then
    Alcotest.failf "%d of %d storm seeds failed:\n%s" (List.length failed) (List.length seeds)
      (String.concat "\n" failed);
  Printf.printf "storm: %d seeds, every run logged its Base result\n%!" (List.length seeds)

let () =
  Alcotest.run "chaos"
    [ ( "directed",
        [ Alcotest.test_case "mid-ckpt channel break" `Quick test_midckpt_channel_break;
          Alcotest.test_case "hung agent times out" `Quick test_hung_agent_times_out;
          Alcotest.test_case "storage outage aborts cleanly" `Quick
            test_storage_outage_aborts_cleanly;
          Alcotest.test_case "node crash mid-checkpoint" `Quick
            test_node_crash_mid_checkpoint;
          Alcotest.test_case "loss burst rides out" `Quick test_loss_burst_rides_out ] );
      ( "migration",
        [ Alcotest.test_case "live migrate under traffic" `Quick test_mig_under_traffic;
          Alcotest.test_case "destination crash mid-round" `Quick test_mig_dest_crash;
          Alcotest.test_case "source crash after handoff" `Quick test_mig_src_crash;
          Alcotest.test_case "channel break during residue" `Quick
            test_mig_residue_break;
          Alcotest.test_case "stream source crash after landing" `Quick
            test_stream_src_crash;
          Alcotest.test_case "scenarios across seeds" `Quick test_mig_seed_sweep;
          Alcotest.test_case "scenario determinism" `Quick test_mig_deterministic ] );
      ( "availability",
        [ Alcotest.test_case "crash auto-recovery, zero manual calls" `Quick
            test_crash_autorecovery;
          Alcotest.test_case "auto-recovery determinism" `Quick
            test_autorecovery_deterministic;
          Alcotest.test_case "backoff retry under a second fault" `Quick
            test_backoff_retry_after_second_fault;
          Alcotest.test_case "corrupt primary recovers from replica" `Quick
            test_corrupt_primary_recovers_from_replica;
          Alcotest.test_case "replica fallback counters" `Quick
            test_replica_fallback_counters;
          Alcotest.test_case "replica outage mid delta chain" `Quick
            test_replica_outage_mid_delta_chain;
          Alcotest.test_case "failed epoch GC'd from storage" `Quick
            test_failed_epoch_gc;
          Alcotest.test_case "mid-tree sub-coordinator crash" `Quick
            test_tree_subcoordinator_crash ] );
      ( "random",
        [ Alcotest.test_case "seeded scenarios" `Quick test_random_scenarios;
          Alcotest.test_case "scenario determinism" `Quick test_scenario_determinism ] );
      ( "storm",
        [ Alcotest.test_case "checkpoint storms log the Base result" `Quick
            test_checkpoint_storm ] ) ]

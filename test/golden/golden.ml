(* Golden determinism digests: one line per observable artifact of a fixed
   set of seeded runs.  The test stanza diffs this output against
   digests.expected, so any change to virtual timing, fault firing,
   supervisor decisions, flight dumps, metrics or traces fails
   `dune runtest`; `dune promote` accepts an intended change.

     golden.exe ZAPC_CLI

   Each line starts with its item name; hashes are MD5 hex of the
   artifact's bytes. *)

module Simtime = Zapc_sim.Simtime
module Rng = Zapc_sim.Rng
module Fabric = Zapc_simnet.Fabric
module Pod = Zapc_pod.Pod
module Params = Zapc.Params
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Periodic = Zapc.Periodic
module Supervisor = Zapc.Supervisor
module Launch = Zapc_msg.Launch
module Faultsim = Zapc_faultsim.Faultsim
module Flight = Zapc_obs.Flight
module Metrics = Zapc_obs.Metrics
module Serve = Zapc_apps.Serve

let md5 s = Digest.to_hex (Digest.string s)

(* --- zapc-cli timeline stdout ------------------------------------------ *)

let timeline cli app seed =
  let args =
    [| cli; "timeline"; "--app"; app; "--ranks"; "2"; "--at"; "5"; "--seed";
       string_of_int seed |]
  in
  let ic = Unix.open_process_args_in cli args in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> failwith ("zapc-cli timeline failed for " ^ app));
  Printf.printf "timeline %s seed=%d %s\n" app seed (md5 out)

(* --- seeded chaos scenarios -------------------------------------------- *)

let make_cluster ~params ~nodes ~seed =
  Zapc_apps.Registry.register_all ();
  let cluster = Cluster.make ~seed ~params ~node_count:nodes () in
  ignore (Cluster.enable_flight cluster);
  cluster

let bt_args g iters =
  Zapc_apps.Bt_nas.params_to_value { Zapc_apps.Bt_nas.default_params with g; iters }

let cpi_args chunks =
  Zapc_apps.Cpi.params_to_value
    { Zapc_apps.Cpi.default_params with intervals = 200_000; chunks }

let node_of_pod cluster (p : Pod.t) =
  match Fabric.node_of_ip (Cluster.fabric cluster) p.rip with Some n -> n | None -> -1

let run_for cluster ms =
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms ms)) ()

let timeline_line events =
  String.concat "; " (List.map (fun (t, w) -> Printf.sprintf "%d %s" t w) events)

let report name cluster fs ?sup extra =
  Printf.printf "%s fired %s\n" name (timeline_line (Faultsim.fired fs));
  (match sup with
   | Some sup -> Printf.printf "%s sup %s\n" name (timeline_line (Supervisor.events sup))
   | None -> ());
  Printf.printf "%s result %s\n" name extra;
  let flight =
    match Option.bind (Cluster.flight cluster) Flight.last_dump with
    | Some d -> md5 d
    | None -> "none"
  in
  Printf.printf "%s md5 flight=%s metrics=%s chrome=%s\n" name flight
    (md5 (Metrics.to_json (Cluster.metrics cluster)))
    (md5 (Zapc_obs.Chrome.to_string (Cluster.recorder cluster)));
  (* the next scenario must not see this one's fault-injection hooks *)
  Zapc_obs.Span.unsubscribe_all (Cluster.recorder cluster)

let checkpoint cluster items =
  let result = ref None in
  Manager.checkpoint (Cluster.manager cluster) ~items ~resume:true ~on_done:(fun r ->
      result := Some r);
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () -> !result <> None);
  Option.get !result

let result_str (r : Manager.op_result) =
  Printf.sprintf "ok=%b %s %dns" r.Manager.r_ok r.Manager.r_detail r.Manager.r_duration

(* The chaos harness's random scenario: a two-rank app on 3-4 flat nodes, a
   seeded fault plan, one checkpoint, then the faults expire and heal. *)
let flat_random seed =
  let prng = Rng.create ~seed:(9000 + seed) in
  let nodes = 3 + Rng.int prng 2 in
  let cluster =
    make_cluster ~nodes ~seed:(1000 + seed)
      ~params:{ Params.default with phase_timeout = Simtime.ms 200 }
  in
  let fs = Faultsim.create cluster in
  let n0 = Rng.int prng nodes in
  let n1 = (n0 + 1 + Rng.int prng (nodes - 1)) mod nodes in
  let program, args =
    if Rng.bool prng 0.5 then
      ("bt_nas", bt_args (64 + (32 * Rng.int prng 2)) (15 + Rng.int prng 15))
    else ("cpi", cpi_args (3 + Rng.int prng 4))
  in
  let app =
    Launch.launch cluster ~name:"chaos" ~program ~placement:[ n0; n1 ] ~app_args:args ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let plan =
    Faultsim.random_plan prng ~node_count:nodes ~horizon:(Simtime.ms 30)
      ~count:(1 + Rng.int prng 3)
  in
  Faultsim.install_all fs plan;
  let r =
    checkpoint cluster
      (Launch.checkpoint_items app ~key_prefix:"chaos" ~node_of_pod:(node_of_pod cluster))
  in
  run_for cluster 600;
  Faultsim.heal_all fs;
  run_for cluster 600;
  report (Printf.sprintf "flat-random-%d" seed) cluster fs (result_str r)

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

(* A bt app under periodic checkpoints and the supervisor; [inject] installs
   the scenario's faults once the first epoch is good.  Runs until the
   recovery settles and one more epoch completes. *)
let supervised name ?(params = avail_params) ?(nodes = 4) ?(placement = [ 0; 1 ])
    inject =
  let cluster = make_cluster ~params ~nodes ~seed:42 in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement
      ~app_args:(bt_args 96 400) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Periodic.start cluster ~pods:app.Launch.pods ~prefix:"gold"
      ~period:(Simtime.ms 50) ~keep:2 ()
  in
  let sup = Supervisor.start cluster svc in
  let idle () = not (Manager.busy (Cluster.manager cluster)) in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.last_good svc >= 1 && idle ());
  inject fs;
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  let good = Periodic.last_good svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.last_good svc > good && idle ());
  Supervisor.stop sup;
  Periodic.stop svc;
  run_for cluster 200;
  report name cluster fs ~sup
    (Printf.sprintf "recoveries=%d attempts=%d good=%d t=%d"
       (Supervisor.recoveries sup)
       (Metrics.counter (Cluster.metrics cluster) "sup.attempts")
       (Periodic.last_good svc) (Cluster.now cluster))

let crash node = { Faultsim.fault = Crash_node { node }; trigger = Now }

let flat_crash_recovery () =
  supervised "flat-crash-recovery" (fun fs -> Faultsim.install fs (crash 1))

(* the recovery target hangs the moment the death is declared: the first
   attempt times out and the supervisor backs off until the hang heals *)
let flat_hang_backoff () =
  supervised "flat-hang-backoff" (fun fs ->
      Faultsim.install fs
        { fault = Hang_agent { node = 2; duration = Some (Simtime.ms 600) };
          trigger = On_phase { phase = "sup_detect:node1"; pod = None; skip = 0 } };
      Faultsim.install fs (crash 1))

(* the test_tree_subcoordinator_crash shape: fanout 3 over 13 nodes, the
   relay of subtree {6,7,8} crashes in the ack-aggregation window *)
let tree_subcoordinator_crash () =
  supervised "tree-subcoordinator-crash"
    ~params:{ avail_params with Params.tree_fanout = 3 }
    ~nodes:13 ~placement:[ 0; 1; 4; 5 ]
    (fun fs ->
      Faultsim.install fs
        { fault = Crash_node { node = 1 };
          trigger = On_phase { phase = "meta_sent"; pod = None; skip = 0 } })

(* the tree path with the serial per-message cost on: a snapshot through a
   depth-3 fanout-2 tree, then a restart on other nodes *)
let tree_ckpt_restart () =
  let params =
    { Params.default with
      Params.tree_fanout = 2; ctrl_proc = Simtime.us 5; cost_jitter = 0.0 }
  in
  let cluster = make_cluster ~params ~nodes:9 ~seed:42 in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 2; 5; 7; 8 ]
      ~app_args:(bt_args 64 15) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods:app.Launch.pods ~key_prefix:"tr" in
  ignore (Launch.wait_done cluster app);
  let rr =
    Cluster.restart_app cluster ~pod_ids:(Launch.pod_ids app)
      ~target_nodes:[ 0; 1; 3; 4 ] ~key_prefix:"tr"
  in
  run_for cluster 100;
  report "tree-ckpt-restart" cluster fs (result_str r ^ " / " ^ result_str rr)

(* a pre-copy live migration whose source dies at the handoff: the
   destination's committed copy wins *)
let flat_mig_src_crash () =
  let params =
    { Params.default with
      phase_timeout = Simtime.ms 400;
      ckpt_fixed = Simtime.ms 20;
      restore_fixed = Simtime.ms 60;
      mig_stop_fixed = Simtime.ms 4;
      mig_resume_fixed = Simtime.ms 6;
      cost_jitter = 0.2 }
  in
  let cluster = make_cluster ~params ~nodes:4 ~seed:3242 in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"mig" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:(bt_args 64 15) ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let p =
    List.find (fun (p : Pod.t) -> node_of_pod cluster p = 1) app.Launch.pods
  in
  Faultsim.install fs
    { fault = Crash_node { node = 1 };
      trigger = On_phase { phase = "mig_handoff"; pod = Some p.Pod.pod_id; skip = 0 } };
  let result = ref None in
  Manager.migrate (Cluster.manager cluster) ~pod:p.Pod.pod_id ~src_node:1 ~dest_node:2
    ~on_done:(fun r -> result := Some r);
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () -> !result <> None);
  run_for cluster 300;
  report "flat-mig-src-crash" cluster fs (result_str (Option.get !result))

(* --- serve-battery shard digests --------------------------------------- *)

(* The serve battery's seed-sweep scenario: 1000 connections through a
   checkpoint under load and a live migration. *)
let serve seed =
  let cfg =
    { Serve.default_cfg with
      n_conns = 1000; reqs_per_conn = 2; period = Simtime.ms 60;
      req_timeout = Simtime.ms 150 }
  in
  let t = Serve.setup ~nodes:4 ~seed ~cfg () in
  let cluster = t.Serve.cluster in
  Cluster.run cluster ~until:(Simtime.ms 80) ();
  let r =
    Cluster.snapshot cluster ~pods:t.Serve.servers ~key_prefix:(Printf.sprintf "sw%d" seed)
  in
  let m = Cluster.migrate_sync cluster ~pod:(List.hd t.Serve.servers) ~dest_node:3 in
  Serve.wait_done ~timeout:(Simtime.sec 300.0) t;
  let s = Serve.client_stats t in
  Printf.printf
    "serve seed=%d snap=%b mig=%b c=%d r=%d tmo=%d redir=%d d0=%x d1=%x now=%d\n" seed
    r.Manager.r_ok m.Manager.r_ok s.Serve.st_completed s.st_retries s.st_timeouts
    s.st_redirects (Serve.digest t ~shard:0) (Serve.digest t ~shard:1)
    (Cluster.now cluster)

let () =
  match Array.to_list Sys.argv with
  | [ _; cli ] ->
    List.iter
      (fun app -> List.iter (timeline cli app) [ 1; 7; 42 ])
      [ "bt"; "bratu" ];
    List.iter flat_random [ 1; 2; 3; 4; 5; 6 ];
    flat_crash_recovery ();
    flat_hang_backoff ();
    tree_subcoordinator_crash ();
    tree_ckpt_restart ();
    flat_mig_src_crash ();
    List.iter serve [ 100; 117 ]
  | _ ->
    prerr_endline "usage: golden.exe ZAPC_CLI";
    exit 2

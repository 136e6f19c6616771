(* Served-traffic chaos battery: the full robustness matrix driven against
   a live sharded key-value service under >= 1000 concurrent client
   connections (the acceptance floor — every scenario here keeps at least
   that many).

   Every scenario asserts the exactly-once contract from the client's side:
   each of the n_conns * reqs_per_conn requests completes exactly once
   (completed == issued == expected), zero duplicate responses are observed
   despite timeouts and same-id retries, nothing is left in flight, the
   per-shard service digests are non-zero, and no netfilter rule leaks.

   The battery is deliberately heavyweight (each scenario simulates a few
   thousand requests across ~1000 sockets) so it runs under its own opt-in
   alias:

       dune build @serve                 # default 2-seed sweep
       SERVE_SEEDS=5 dune build @serve   # wider sweep

   A fast smoke version of the same pipeline lives in test_apps.ml and runs
   under plain `dune runtest`. *)

module Simtime = Zapc_sim.Simtime
module Fabric = Zapc_simnet.Fabric
module Netfilter = Zapc_simnet.Netfilter
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Periodic = Zapc.Periodic
module Supervisor = Zapc.Supervisor
module Manager = Zapc.Manager
module Metrics = Zapc_obs.Metrics
module Faultsim = Zapc_faultsim.Faultsim
module Serve = Zapc_apps.Serve

let fail fmt = Fmt.kstr (fun m -> Alcotest.fail m) fmt

let n_seeds () =
  match Sys.getenv_opt "SERVE_SEEDS" with
  | Some s -> (try Stdlib.max 1 (int_of_string s) with _ -> 2)
  | None -> 2

(* Every chaos scenario runs the acceptance-floor population: 1000
   concurrent connections.  The per-connection quota is kept small so a
   scenario stays in the tens of virtual seconds. *)
let battery_cfg =
  { Serve.default_cfg with
    n_conns = 1000;
    reqs_per_conn = 3;
    period = Simtime.ms 60;
    req_timeout = Simtime.ms 150 }

(* The exactly-once postcondition, checked at the end of every scenario. *)
let assert_served t ~ctx =
  let s = Serve.client_stats t in
  let expected = Serve.total_expected t in
  if s.Serve.st_issued <> expected then
    fail "%s: issued %d <> expected %d" ctx s.st_issued expected;
  if s.st_completed <> expected then
    fail "%s: completed %d <> expected %d (lost responses)" ctx s.st_completed expected;
  if s.st_dups <> 0 then fail "%s: %d duplicate responses" ctx s.st_dups;
  if s.st_inflight <> 0 then fail "%s: %d requests still in flight" ctx s.st_inflight;
  for shard = 0 to t.Serve.cfg.nshards - 1 do
    if Serve.digest t ~shard = 0 then fail "%s: shard %d digest is zero" ctx shard
  done;
  let nf = Fabric.netfilter (Cluster.fabric t.Serve.cluster) in
  if Netfilter.blocked_count nf <> 0 then
    fail "%s: %d leaked netfilter rule(s)" ctx (Netfilter.blocked_count nf);
  s

let wait_done t =
  try Serve.wait_done ~timeout:(Simtime.sec 300.0) t
  with Cluster.Timeout _ ->
    let s = Serve.client_stats t in
    fail "service never drained: completed %d/%d (tmo=%d reconn=%d infl=%d)"
      s.Serve.st_completed (Serve.total_expected t) s.st_timeouts s.st_reconnects
      s.st_inflight

(* --- scenarios --------------------------------------------------------- *)

(* Crash the node hosting shard 1 in the middle of the request burst while
   periodic checkpoints run; the supervisor must detect it and restore the
   pod from the last epoch without any manual call, and every client
   request must still complete exactly once. *)
let test_crash_during_burst () =
  let t = Serve.setup ~nodes:5 ~seed:11 ~cfg:battery_cfg () in
  let cluster = t.Serve.cluster in
  let per =
    Periodic.start cluster ~pods:t.Serve.servers ~prefix:"serve" ~period:(Simtime.ms 80)
      ~keep:2 ()
  in
  (* the crash needs an epoch to recover from *)
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () -> Periodic.last_good per >= 1);
  let fs = Faultsim.create cluster in
  let sup = Supervisor.start ~trace:(Faultsim.trace fs) cluster per in
  Faultsim.install fs
    { Faultsim.fault = Faultsim.Crash_node { node = 1 };
      trigger = Faultsim.After (Simtime.ms 30) };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  if Faultsim.armed fs <> 0 then fail "crash-during-burst: the injected crash never fired";
  if Supervisor.gave_up sup then fail "supervisor gave up";
  if Supervisor.recoveries sup < 1 then fail "no recovery happened";
  wait_done t;
  Supervisor.stop sup;
  Periodic.stop per;
  let s = assert_served t ~ctx:"crash-during-burst" in
  (* the crash severs live connections: clients MUST have noticed *)
  if s.Serve.st_timeouts = 0 && s.st_eofs = 0 then
    fail "crash was invisible to clients (no timeouts, no EOFs)"

(* Live-migrate the loaded shard-0 pod at peak in-flight load.  Established
   client connections ride through the pre-copy rounds; the blackout shows
   up as latency, never as a lost or duplicated response. *)
let test_migrate_under_peak_load () =
  let t = Serve.setup ~nodes:4 ~seed:12 ~cfg:battery_cfg () in
  let cluster = t.Serve.cluster in
  Cluster.run cluster ~until:(Simtime.ms 100) ();
  let p0 = List.hd t.Serve.servers in
  let r = Cluster.migrate_sync cluster ~pod:p0 ~dest_node:3 in
  if not r.Manager.r_ok then fail "migration failed: %s" r.r_detail;
  wait_done t;
  (match Pod.find p0.Pod.pod_id with
   | None -> fail "migrated pod vanished"
   | Some p ->
     (match Fabric.node_of_ip (Cluster.fabric cluster) p.Pod.rip with
      | Some 3 -> ()
      | n -> fail "pod landed on node %d, wanted 3" (Option.value n ~default:(-1))));
  ignore (assert_served t ~ctx:"migrate-under-peak-load")

(* Storage dies mid-epoch: the checkpoint aborts cleanly, service traffic
   never notices, and the next epoch after the outage heals succeeds. *)
let test_storage_outage_during_epoch () =
  let t = Serve.setup ~nodes:4 ~seed:13 ~cfg:battery_cfg () in
  let cluster = t.Serve.cluster in
  let per =
    Periodic.start cluster ~pods:t.Serve.servers ~prefix:"serve" ~period:(Simtime.ms 60)
      ~keep:2 ()
  in
  let fs = Faultsim.create cluster in
  Faultsim.install fs
    { Faultsim.fault = Faultsim.Storage_outage { duration = Some (Simtime.ms 120) };
      trigger = Faultsim.After (Simtime.ms 70) };
  wait_done t;
  if Faultsim.fired fs = [] then fail "storage outage never fired";
  let g = Periodic.last_good per in
  (* epochs must make progress after the outage heals *)
  (try
     Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () ->
         Periodic.last_good per > g)
   with Cluster.Timeout _ -> fail "no successful epoch after the storage outage");
  Periodic.stop per;
  (* stop only flags the service: an epoch already in flight (pods
     suspended, netfilter rules up) finishes on its own — drain it before
     asserting quiescence *)
  let now_ms = Cluster.now cluster / 1_000_000 in
  Cluster.run cluster ~until:(Simtime.ms (now_ms + 300)) ();
  ignore (assert_served t ~ctx:"storage-outage-during-epoch")

(* Netfilter silently eats everything to and from shard 0 for ~200 ms in
   the middle of the response stream — longer than the request timeout, so
   clients time out, back off, retry the same ids, and must still end with
   exactly-once delivery once the rules are removed. *)
let test_netfilter_break_mid_response () =
  let t = Serve.setup ~nodes:4 ~seed:14 ~cfg:battery_cfg () in
  let cluster = t.Serve.cluster in
  Cluster.run cluster ~until:(Simtime.ms 90) ();
  let p0 = List.hd t.Serve.servers in
  let nf = Fabric.netfilter (Cluster.fabric cluster) in
  Netfilter.block nf p0.Pod.rip;
  Netfilter.block nf p0.Pod.vip;
  Cluster.run cluster ~until:(Simtime.ms 290) ();
  Netfilter.unblock nf p0.Pod.rip;
  Netfilter.unblock nf p0.Pod.vip;
  wait_done t;
  let s = assert_served t ~ctx:"netfilter-break-mid-response" in
  if s.Serve.st_timeouts = 0 then fail "block outlasted the request timeout yet nothing timed out";
  if s.st_retries = 0 then fail "timeouts without retries"

(* Byte-identical restore: quiesce the service (all quotas served), suspend
   it with a full checkpoint, digest the frozen state, restart on different
   nodes, and require the restored digest to match bit for bit. *)
let test_state_fidelity_across_restore () =
  let cfg = { battery_cfg with reqs_per_conn = 2 } in
  let t = Serve.setup ~nodes:4 ~seed:15 ~cfg () in
  let cluster = t.Serve.cluster in
  wait_done t;
  (* the service is quiesced (every quota served), so digesting here equals
     digesting at suspend time; a [resume:false] checkpoint destroys the
     pods, so the digest must be taken before it *)
  let digests t = List.init t.Serve.cfg.nshards (fun s -> Serve.digest t ~shard:s) in
  let before = digests t in
  List.iter (fun d -> if d = 0 then fail "quiesced digest is zero") before;
  let items = Serve.ckpt_items t ~prefix:"fidelity" in
  let r = Cluster.checkpoint_sync cluster ~items ~resume:false in
  if not r.Manager.r_ok then fail "suspend checkpoint failed: %s" r.r_detail;
  List.iter
    (fun (p : Pod.t) ->
      if Pod.find p.pod_id <> None then fail "suspended pod survived the checkpoint")
    t.Serve.servers;
  let r2 =
    Cluster.restart_app cluster
      ~pod_ids:(List.map (fun (p : Pod.t) -> p.pod_id) t.Serve.servers)
      ~target_nodes:[ 2; 3 ] ~key_prefix:"fidelity"
  in
  if not r2.Manager.r_ok then fail "restart failed: %s" r2.r_detail;
  let after = digests t in
  if before <> after then
    fail "service state changed across restore: %s -> %s"
      (String.concat "," (List.map (Printf.sprintf "%x") before))
      (String.concat "," (List.map (Printf.sprintf "%x") after))

(* Satellite regression: connections that were SYN-queued (half-open,
   sitting in a listener's accept pipeline) when the checkpoint froze the
   pod must survive the restore.  A fat one-way latency stretches the
   handshake so the 1000-connection connect storm straddles the suspend;
   the restored listeners re-emit SYN+ACK from the reconstructed SYN queue
   and the storm completes against the restored pods. *)
let test_syn_queue_across_restore () =
  let cfg = { battery_cfg with reqs_per_conn = 2 } in
  let t = Serve.setup ~nodes:4 ~seed:16 ~cfg () in
  let cluster = t.Serve.cluster in
  Fabric.set_latency (Cluster.fabric cluster) (Simtime.ms 10);
  (* the connect storm's SYNs land on the listeners from ~13 ms (client
     spawn at 1 ms + one-way latency) and the third handshake legs drain
     them from ~31 ms: suspend in the middle, with hundreds of half-open
     children sitting on the SYN queues *)
  Cluster.run cluster ~until:(Simtime.ms 20) ();
  let items = Serve.ckpt_items t ~prefix:"synq" in
  let r = Cluster.checkpoint_sync cluster ~items ~resume:false in
  if not r.Manager.r_ok then fail "suspend checkpoint failed: %s" r.r_detail;
  let r2 =
    Cluster.restart_app cluster
      ~pod_ids:(List.map (fun (p : Pod.t) -> p.pod_id) t.Serve.servers)
      ~target_nodes:[ 2; 3 ] ~key_prefix:"synq"
  in
  if not r2.Manager.r_ok then fail "restart failed: %s" r2.r_detail;
  let restored = Metrics.counter (Cluster.metrics cluster) "net.synq_restored" in
  if restored < 1 then fail "checkpoint caught no SYN-queued connection (counter=0)";
  Fabric.set_latency (Cluster.fabric cluster) (Simtime.us 40);
  wait_done t;
  ignore (assert_served t ~ctx:"syn-queue-across-restore")

(* --- seed sweep + determinism ------------------------------------------ *)

(* One compact end-to-end scenario (checkpoint under load, then migrate)
   reduced to a digest string: final counters plus per-shard state hashes.
   The same seed must reproduce it bit for bit. *)
let scenario_digest seed =
  let cfg = { battery_cfg with reqs_per_conn = 2 } in
  let t = Serve.setup ~nodes:4 ~seed ~cfg () in
  let cluster = t.Serve.cluster in
  Cluster.run cluster ~until:(Simtime.ms 80) ();
  let r =
    Cluster.snapshot cluster ~pods:t.Serve.servers ~key_prefix:(Printf.sprintf "sw%d" seed)
  in
  if not r.Manager.r_ok then fail "seed %d: snapshot failed: %s" seed r.r_detail;
  let p0 = List.hd t.Serve.servers in
  let m = Cluster.migrate_sync cluster ~pod:p0 ~dest_node:3 in
  if not m.Manager.r_ok then fail "seed %d: migration failed: %s" seed m.r_detail;
  wait_done t;
  let s = assert_served t ~ctx:(Printf.sprintf "seed %d" seed) in
  Printf.sprintf "c=%d r=%d tmo=%d redir=%d d0=%x d1=%x now=%d" s.Serve.st_completed
    s.st_retries s.st_timeouts s.st_redirects (Serve.digest t ~shard:0)
    (Serve.digest t ~shard:1)
    (Cluster.now cluster)

let test_seed_sweep () =
  for i = 0 to n_seeds () - 1 do
    ignore (scenario_digest (100 + (17 * i)))
  done

let test_determinism () =
  let a = scenario_digest 100 in
  let b = scenario_digest 100 in
  if a <> b then fail "same seed, different run:\n  %s\n  %s" a b

let () =
  Alcotest.run "serve"
    [ ( "battery",
        [ Alcotest.test_case "crash during burst" `Slow test_crash_during_burst;
          Alcotest.test_case "migrate under peak load" `Slow test_migrate_under_peak_load;
          Alcotest.test_case "storage outage during epoch" `Slow
            test_storage_outage_during_epoch;
          Alcotest.test_case "netfilter break mid-response" `Slow
            test_netfilter_break_mid_response;
          Alcotest.test_case "state fidelity across restore" `Slow
            test_state_fidelity_across_restore;
          Alcotest.test_case "SYN queue across restore" `Slow
            test_syn_queue_across_restore ] );
      ( "seeds",
        [ Alcotest.test_case "seed sweep" `Slow test_seed_sweep;
          Alcotest.test_case "determinism" `Slow test_determinism ] ) ]

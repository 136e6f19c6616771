(* The benchmark's four workloads.  Each builds its clusters through
   Harness, so every operation, host second and registry reading is
   captured; drives them through the public API only; and checks its
   outputs, recording any failed check with [Harness.fail].  The seed is
   the only input that varies: it seeds every cluster (agent cost jitter,
   client arrival jitter, backoff jitter). *)

module Simtime = Zapc_sim.Simtime
module Value = Zapc_codec.Value
module Kconfig = Zapc_simos.Kconfig
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Params = Zapc.Params
module Periodic = Zapc.Periodic
module Supervisor = Zapc.Supervisor
module Storage = Zapc.Storage
module Protocol = Zapc.Protocol
module Launch = Zapc_msg.Launch
module Serve = Zapc_apps.Serve
module Faultsim = Zapc_faultsim.Faultsim
module H = Harness

type t = {
  name : string;
  pooled : int;  (** rounds whose virtual results are pooled *)
  iterate : H.t -> unit;  (** one round: a full, checked run of the workload *)
  setup_only : H.t -> unit;  (** only its set-up steps, each torn down *)
}

(* --- the paper's applications at paper scale -------------------------- *)

type app = Cpi | Bt | Bratu | Povray

let program = function Cpi -> "cpi" | Bt -> "bt_nas" | Bratu -> "bratu" | Povray -> "povray"

(* The paper-scale parameter sets of the section-6 experiments: single-node
   completion is about a virtual minute and the per-rank memory models
   reproduce the paper's image sizes.  BT/NAS and Bratu solve on a grid of a
   quarter of the paper's side with a 16x per-cell virtual cost, so every
   sweep charges the paper's virtual time while the host spends its time on
   the simulation rather than on the numerics.  Runs a third as long put
   the ten checkpoints of a 16-rank run back to back, and there a Bratu
   rank fails its MPI receive after a checkpoint that reported success. *)
let app_args = function
  | Cpi ->
    Zapc_apps.Cpi.params_to_value
      { Zapc_apps.Cpi.intervals = 2_000_000; chunks = 10; ns_per_interval = 30_000;
        mem_base = 6_000_000; mem_scaled = 10_000_000 }
  | Bt ->
    Zapc_apps.Bt_nas.params_to_value
      { Zapc_apps.Bt_nas.g = 96; iters = 150; ns_per_cell = 43_200;
        mem_base = 20_000_000; mem_scaled = 320_000_000 }
  | Bratu ->
    Zapc_apps.Bratu.params_to_value
      { Zapc_apps.Bratu.g = 64; lambda = 6.0; max_iters = 250; tol = 1e-12;
        check_every = 10; ns_per_cell = 57_600; mem_base = 15_000_000;
        mem_scaled = 130_000_000 }
  | Povray ->
    Zapc_apps.Povray.params_to_value
      { Zapc_apps.Povray.width = 480; height = 360; block_rows = 6;
        ns_per_pixel = 350_000; mem_each = 10_000_000 }

(* the paper's node counts; BT needs square ones *)
let node_counts = function Bt -> [ 1; 4; 9; 16 ] | Cpi | Bratu | Povray -> [ 1; 2; 4; 8; 16 ]

(* 16 "nodes" are 8 dual-CPU blades with one pod per CPU (paper section 6) *)
let topology n =
  if n <= 9 then (n, 1, List.init n Fun.id) else (8, 2, List.init n (fun i -> i mod 8))

(* the paper's Base: no pod interposition cost *)
let vanilla =
  { Params.default with
    Params.kconfig = { Kconfig.default with Kconfig.virt_overhead = Simtime.zero } }

let launch a ?(params = Params.default) ?(args = app_args) ?nodes app n =
  let node_count, cpus, placement = topology n in
  let node_count = Option.value ~default:node_count nodes in
  let s = H.cluster a ~cpus ~params ~node_count () in
  let la =
    H.setup a "launch" (fun () ->
        Launch.launch s.H.cluster ~name:(program app) ~program:(program app) ~placement
          ~app_args:(args app) ())
  in
  (s, la)

(* Each application logs exactly one result line (rank 0): a checksum, pi,
   a residual or an image checksum. *)
let result_line (s : H.session) app =
  let prefix = program app ^ ":" in
  List.find_opt
    (fun m -> String.starts_with ~prefix m && not (String.starts_with ~prefix:(prefix ^ " MPI") m))
    !(s.H.logs)

let expect (s : H.session) app reference what =
  match result_line s app, reference with
  | Some got, Some want ->
    H.check s.H.acc (String.equal got want)
      (Printf.sprintf "%s: %s logged %S, Base logged %S" what (program app) got want)
  | None, _ -> H.fail s.H.acc (Printf.sprintf "%s: %s logged no result" what (program app))
  | Some _, None -> ()

(* Vanilla run to completion: the reference result and completion time. *)
let base_run a ?args app n =
  let s, la = launch a ~params:vanilla ?args app n in
  let t = H.time a "run" (fun () -> Launch.wait_done s.H.cluster la) in
  let reference = result_line s app in
  if reference = None then H.fail a (program app ^ ": Base run logged no result");
  H.close s;
  (Simtime.to_sec t, reference)

(* The rank processes a restart re-created inside the given pods, those
   that already exited included. *)
let ranks pod_ids app =
  List.concat_map
    (fun id ->
      match Pod.find id with
      | None -> []
      | Some pod ->
        List.filter_map
          (fun (_, (p : Proc.t)) ->
            if String.equal (Program.name_of p.Proc.inst) (program app) then Some p
            else None)
          (Pod.members_all pod))
    pod_ids

(* Replace whatever incarnation of the application's pods is live with the
   images stored under [prefix], restarted on [targets].  The benchmark
   first resolves the keys itself, as the restarting Agents will. *)
let restore (s : H.session) (la : Launch.app) ~prefix ~targets =
  let ids = Launch.pod_ids la in
  List.iter (fun id -> Option.iter Pod.destroy (Pod.find id)) ids;
  H.storage_get s (List.map (H.key prefix) ids);
  H.restart s ~pod_ids:ids ~target_nodes:targets ~prefix

(* [restore], then run the restored ranks to completion: they must log the
   Base result. *)
let restart_to_completion (s : H.session) (la : Launch.app) app ~prefix ~targets ~reference =
  let ids = Launch.pod_ids la in
  s.H.logs := [];
  let r = restore s la ~prefix ~targets in
  if r.Manager.r_ok then begin
    let procs = ranks ids app in
    H.check s.H.acc (List.length procs = List.length ids) "restart: ranks missing";
    H.run_until s "restored run" (fun () -> Cluster.procs_exited procs);
    expect s app reference "restarted run"
  end

(* --- paper-fig6 --------------------------------------------------------- *)

(* The paper's section-6 method for one application at one node count: a
   Base run, a ZapC run with ten evenly spaced checkpoints, and a restart
   from the middle image run to completion.  The third and seventh images
   are restarted too (and dropped): a restart time is one jittered draw,
   and a single draw per configuration would let the seed swing the
   restart percentiles by tens of percent. *)
let fig6_config a (app, n) =
  let t_base, reference = base_run a app n in
  let s, la = launch a app n in
  let taken = ref [] in
  for i = 1 to 10 do
    H.run s (Simtime.sec (t_base *. float_of_int i /. 11.0));
    if not (Launch.is_done la) then begin
      let prefix = Printf.sprintf "ck%d" i in
      ignore (H.checkpoint s ~items:(H.items s la.Launch.pods ~dest:(H.to_storage prefix)) ~resume:true);
      taken := prefix :: !taken
    end
  done;
  let t = H.time a "run" (fun () -> Launch.wait_done s.H.cluster la) in
  H.sample a "slowdown_pct" ((Simtime.to_sec t -. t_base) /. t_base *. 100.0);
  expect s app reference "checkpointed run";
  let _, _, targets = topology n in
  List.iter
    (fun prefix -> if List.mem prefix !taken then ignore (restore s la ~prefix ~targets))
    [ "ck3"; "ck7" ];
  restart_to_completion s la app ~prefix:"ck5" ~targets ~reference;
  H.close s

let fig6_configs =
  List.concat_map (fun app -> List.map (fun n -> (app, n)) (node_counts app)) [ Cpi; Bt; Bratu; Povray ]

let paper_fig6 =
  { name = "paper-fig6";
    pooled = 3;
    iterate = (fun a -> List.iter (fig6_config a) fig6_configs; H.check_ops a);
    setup_only =
      (fun a ->
        List.iter
          (fun (app, n) ->
            H.close (fst (launch a ~params:vanilla app n));
            H.close (fst (launch a app n)))
          fig6_configs) }

(* --- kv-serve ----------------------------------------------------------- *)

(* 2 shards, 400 open-loop connections (one request per 100 ms each, 4k
   req/s offered, 12 requests per connection, 150 ms timeout). *)
let serve_cfg =
  { Serve.default_cfg with
    n_conns = 400; reqs_per_conn = 12; period = Simtime.ms 100;
    req_timeout = Simtime.ms 150 }

let kv_setup a =
  let t =
    H.setup a "launch" (fun () ->
        Serve.setup ~nodes:5 ~seed:a.H.seed
          ~params:(H.with_profiling a Serve.serve_params) ~cfg:serve_cfg ())
  in
  (H.attach a t.Serve.cluster, t)

(* Steady state (100..300 ms), periodic checkpoints (300..550 ms), a live
   migration of the loaded shard 0 (550..750 ms), then a crash of shard 1's
   node healed by the supervisor from the last good epoch. *)
let kv_serve_run a =
  let s, t = kv_setup a in
  let c = s.H.cluster in
  H.run s (Simtime.ms 300);
  let per =
    Periodic.start c ~pods:t.Serve.servers ~prefix:"slo" ~period:(Simtime.ms 80) ~keep:2 ()
  in
  Periodic.set_on_epoch per (fun _ r -> H.ckpt_stats a r);
  (* untraced, the fault injector and the supervisor log into a trace that
     is not the cluster's, so the cluster records no spans *)
  let tr = match Cluster.trace c with Some tr -> tr | None -> Zapc.Trace.create () in
  let fs = Faultsim.create ~trace:tr c in
  let sup = Supervisor.start ~trace:tr c per in
  H.run s (Simtime.ms 550);
  H.run_until s ~timeout:(Simtime.sec 10.0) "epoch drain" (fun () ->
      not (Manager.busy (Cluster.manager c)));
  ignore (H.migrate s ~pod:(List.hd t.Serve.servers) ~dest_node:3);
  H.run s (Simtime.ms 750);
  H.check a (Periodic.last_good per >= 1) "no good epoch before the crash";
  let shard1 = (List.nth t.Serve.servers 1).Pod.pod_id in
  (match Pod.find shard1 with
   | None -> H.fail a "shard 1 vanished before the crash"
   | Some p ->
     Faultsim.install fs
       { Faultsim.fault = Faultsim.Crash_node { node = H.node_of s p };
         trigger = Faultsim.Now });
  let crash_time = Cluster.now c in
  H.run_until s ~timeout:(Simtime.sec 60.0) "recovery" (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  H.check a (Supervisor.recoveries sup >= 1) "the supervisor did not recover the service";
  (* no epochs after the recovery: the stored bytes must not depend on how
     long the clients take to drain *)
  Supervisor.stop sup;
  Periodic.stop per;
  (* drain: ask the clients once per 10 virtual ms, not every few events *)
  let deadline = Simtime.add (Cluster.now c) (Simtime.sec 300.0) in
  while (not (Serve.all_done t)) && Cluster.now c < deadline do
    H.run_for s (Simtime.ms 10)
  done;
  H.run_for s (Simtime.ms 300);
  let st = Serve.client_stats t in
  let expected = Serve.total_expected t in
  H.check a
    (st.Serve.st_issued = expected && st.st_completed = expected)
    (Printf.sprintf "issued %d completed %d, expected %d" st.st_issued st.st_completed expected);
  H.check a (st.st_dups = 0) (Printf.sprintf "%d duplicate responses" st.st_dups);
  H.check a (st.st_inflight = 0) (Printf.sprintf "%d requests in flight" st.st_inflight);
  for shard = 0 to serve_cfg.Serve.nshards - 1 do
    H.check a (Serve.digest t ~shard <> 0) (Printf.sprintf "shard %d digest is zero" shard)
  done;
  let leaked =
    Zapc_simnet.Netfilter.blocked_count (Zapc_simnet.Fabric.netfilter (Cluster.fabric c))
  in
  H.check a (leaked = 0) (Printf.sprintf "%d leaked netfilter rules" leaked);
  let m = Cluster.metrics c in
  let mttr = Zapc_obs.Metrics.gauge m "sup.last_recovered_ms" -. Simtime.to_ms crash_time in
  let window name w_from w_until =
    Serve.window_report st { Serve.w_name = name; w_from; w_until }
  in
  let crash_end = Simtime.add crash_time (Simtime.sec ((mttr +. 200.0) /. 1000.0)) in
  H.sample a "client.lat_p50_ms" (window "steady" (Simtime.ms 100) (Simtime.ms 300)).Serve.wr_p50_ms;
  H.sample a "client_p99_ckpt_ms" (window "ckpt" (Simtime.ms 300) (Simtime.ms 550)).Serve.wr_p99_ms;
  H.sample a "client_p99_mig_ms" (window "mig" (Simtime.ms 550) (Simtime.ms 750)).Serve.wr_p99_ms;
  H.sample a "client_p99_crash_ms" (window "crash" crash_time crash_end).Serve.wr_p99_ms;
  H.sample a "mttr_ms" mttr;
  H.sample a "req_timeout_ratio" (float_of_int st.st_timeouts /. float_of_int (max 1 st.st_issued));
  H.sample a "client.issued" (float_of_int st.st_issued);
  H.sample a "client.retries" (float_of_int st.st_retries);
  H.sample a "client.redirects" (float_of_int st.st_redirects);
  H.sample a "client.reconnects" (float_of_int st.st_reconnects);
  H.close s;
  H.check_ops a

let kv_serve =
  { name = "kv-serve"; pooled = 6; iterate = kv_serve_run; setup_only = (fun a -> H.close (fst (kv_setup a))) }

(* --- fleet-256 ---------------------------------------------------------- *)

(* The smallest resident: one page, then asleep.  One per node keeps every
   Agent's checkpoint real while adding nothing to its cost. *)
module Idler = struct
  type state = { mutable booted : bool }

  let name = "perfbench.idler"
  let start _ = { booted = false }

  let step s (_ : Syscall.outcome) =
    if not s.booted then begin
      s.booted <- true;
      (s, Program.Sys (Syscall.Mem_alloc ("idle", 4096)))
    end
    else (s, Program.Sys (Syscall.Nanosleep (Simtime.sec 50.0)))

  let to_value s = Value.Bool s.booted
  let of_value v = { booted = Value.to_bool v }
end

let fleet_nodes = 256

(* The control-plane cost model of the coordination scaling sweep (25 us
   serial per message at every coordinator, 300 us per hop, fanout-4 tree,
   negligible image costs), with the agent cost jitter left on so the seed
   draws each pod's costs. *)
let fleet_params =
  { Params.default with
    Params.ctrl_latency = Simtime.us 300; ctrl_proc = Simtime.us 25; tree_fanout = 4;
    storage_bps = 1e12; ckpt_fixed = Simtime.us 200; restore_fixed = Simtime.us 200 }

let fleet_setup a =
  Program.register_if_absent (module Idler);
  let s = H.cluster a ~params:fleet_params ~node_count:fleet_nodes () in
  let pods =
    H.setup a "launch" (fun () ->
        let pods =
          List.init fleet_nodes (fun i ->
              Cluster.create_pod s.H.cluster ~node_idx:i ~name:(Printf.sprintf "idler%d" i))
        in
        Cluster.link_pods pods;
        List.iter (fun p -> ignore (Pod.spawn p ~program:Idler.name ~args:Value.unit)) pods;
        Cluster.run s.H.cluster ~until:(Simtime.ms 5) ();
        pods)
  in
  (s, pods)

(* Ten coordinated checkpoints, then every pod restarted one node over. *)
let fleet_run a =
  let s, pods = fleet_setup a in
  for i = 1 to 10 do
    H.run_for s (Simtime.ms 10);
    ignore
      (H.checkpoint s ~items:(H.items s pods ~dest:(H.to_storage (Printf.sprintf "f%d" i)))
         ~resume:true)
  done;
  List.iter Pod.destroy pods;
  let ids = List.map (fun (p : Pod.t) -> p.Pod.pod_id) pods in
  let target i = (i + 1) mod fleet_nodes in
  H.storage_get s (List.map (H.key "f10") ids);
  ignore (H.restart s ~pod_ids:ids ~target_nodes:(List.init fleet_nodes target) ~prefix:"f10");
  let hosted = Array.make fleet_nodes 0 in
  List.iteri
    (fun i id ->
      match Pod.find id with
      | None -> H.fail a (Printf.sprintf "pod %d not restored" id)
      | Some p ->
        let n = H.node_of s p in
        if n >= 0 then hosted.(n) <- hosted.(n) + 1;
        H.check a (n = target i) (Printf.sprintf "pod %d on node %d, not %d" id n (target i)))
    ids;
  H.check a (Array.for_all (fun k -> k = 1) hosted) "a node does not host exactly one pod";
  H.close s;
  H.check_ops a

let fleet_256 =
  { name = "fleet-256"; pooled = 3; iterate = fleet_run; setup_only = (fun a -> H.close (fst (fleet_setup a))) }

(* --- delta-mig ---------------------------------------------------------- *)

(* A pod with a steady, controllable dirty rate: [regions] x [size] bytes,
   then [stride] regions rewritten every [period_us] (0 = asleep). *)
module Hog = struct
  type state = {
    regions : int;
    size : int;
    stride : int;
    period_us : int;
    mutable ph : int;
    mutable cursor : int;
    mutable burst : int;  (* touches left this period; 0 = sleep next *)
  }

  let name = "perfbench.hog"
  let ready = "perfbench hog ready"
  let int k v = Value.to_int (Value.field k v)

  let start v =
    { regions = int "regions" v; size = int "size" v; stride = int "stride" v;
      period_us = int "period_us" v; ph = 0; cursor = 0; burst = 0 }

  let region i = Printf.sprintf "hog.%d" i

  let step s (_ : Syscall.outcome) =
    if s.ph < s.regions then begin
      s.ph <- s.ph + 1;
      (s, Program.Sys (Syscall.Mem_alloc (region (s.ph - 1), s.size)))
    end
    else if s.ph = s.regions then begin
      s.ph <- s.ph + 1;
      (s, Program.Sys (Syscall.Log ready))
    end
    else if s.stride = 0 || s.burst = 0 then begin
      s.burst <- s.stride;
      ( s,
        Program.Sys
          (Syscall.Nanosleep
             (if s.stride = 0 then Simtime.sec 50.0 else Simtime.us s.period_us)) )
    end
    else begin
      s.burst <- s.burst - 1;
      let i = s.cursor in
      s.cursor <- (s.cursor + 1) mod s.regions;
      (* re-allocating at the same size marks the region dirty *)
      (s, Program.Sys (Syscall.Mem_alloc (region i, s.size)))
    end

  let to_value s =
    Value.assoc
      [ ("regions", Value.int s.regions); ("size", Value.int s.size);
        ("stride", Value.int s.stride); ("period_us", Value.int s.period_us);
        ("ph", Value.int s.ph); ("cursor", Value.int s.cursor);
        ("burst", Value.int s.burst) ]

  let of_value v = { (start v) with ph = int "ph" v; cursor = int "cursor" v; burst = int "burst" v }
end

(* (stride, period_us) of 128 x 512 KB regions: quiescent, 10, 50, 200 and
   800 MB/s; the last cannot converge and forces the stop-and-copy. *)
let mig_rates = [ (0, 0); (1, 50_000); (1, 10_000); (4, 10_000); (16, 10_000) ]

let hog_setup a (stride, period_us) =
  Program.register_if_absent (module Hog);
  let s = H.cluster a ~params:Params.default ~node_count:2 () in
  let pod =
    H.setup a "launch" (fun () ->
        let pod = Cluster.create_pod s.H.cluster ~node_idx:0 ~name:"hog" in
        Cluster.link_pods [ pod ];
        ignore
          (Pod.spawn pod ~program:Hog.name
             ~args:
               (Value.assoc
                  [ ("regions", Value.int 128); ("size", Value.int 524_288);
                    ("stride", Value.int stride); ("period_us", Value.int period_us) ]));
        Cluster.run_until s.H.cluster ~timeout:(Simtime.sec 5.0) (fun () ->
            List.mem Hog.ready !(s.H.logs));
        (* let the dirtying loop reach steady state before the first copy *)
        Cluster.run s.H.cluster ~until:(Simtime.add (Cluster.now s.H.cluster) (Simtime.ms 20)) ();
        pod)
  in
  (s, pod)

let hog_migration a rate =
  let s, pod = hog_setup a rate in
  let r = H.migrate s ~pod ~dest_node:1 in
  if r.Manager.r_ok then
    H.check a
      (match Pod.find pod.Pod.pod_id with Some p -> H.node_of s p = 1 | None -> false)
      "migrated hog is not live on node 1";
  H.close s

(* Dedup + compression under incremental periodic epochs, the stored chains
   resolved on restart. *)
let chain_params = { Params.default with storage_backend = Params.Sb_dedup; compress = true }

(* A fixed number of epochs rather than epochs until the end: each epoch
   costs the application a jittered pause plus its TCP recovery, so the
   number of 250 ms epochs that fit before completion swings by a quarter
   between seeds, and the stored bytes with it. *)
let delta_epochs = 40

let chained_restart a =
  let t_base, reference = base_run a Bt 16 in
  let s, la = launch a ~params:chain_params Bt 16 in
  let c = s.H.cluster in
  let per =
    Periodic.start ~incremental:true c ~pods:la.Launch.pods ~prefix:"inc"
      ~period:(Simtime.ms 250) ~keep:8 ()
  in
  Periodic.set_on_epoch per (fun _ r -> H.ckpt_stats a r);
  H.run_until s "incremental epochs" (fun () ->
      Periodic.completed per >= delta_epochs || Launch.is_done la);
  Periodic.stop per;
  H.run_until s "epoch drain" (fun () -> not (Manager.busy (Cluster.manager c)));
  (* so every kept epoch holds running ranks, whose restart must recompute
     and log the result *)
  H.check a (not (Launch.is_done la)) "BT/NAS finished before its incremental epochs";
  let t = H.time a "run" (fun () -> Launch.wait_done c la) in
  H.sample a "slowdown_pct" ((Simtime.to_sec t -. t_base) /. t_base *. 100.0);
  expect s Bt reference "incremental run";
  let st = Cluster.storage c and ids = Launch.pod_ids la in
  let prefix e = Printf.sprintf "inc.e%d" e in
  let all_keys f e = List.for_all (fun id -> f (H.key (prefix e) id)) ids in
  let kept =
    List.filter (all_keys (Storage.mem st)) (List.init (Periodic.last_good per) (fun i -> i + 1))
  in
  let _, _, targets = topology 16 in
  (match List.find_opt (all_keys (fun k -> Storage.base_key st k <> None)) (List.rev kept) with
   | None -> H.fail a "no kept epoch is stored as a delta chain"
   | Some e ->
     (* every other kept epoch is restarted (and dropped) as well, for
        more than one restart sample per run *)
     List.iter (fun e' -> if e' <> e then ignore (restore s la ~prefix:(prefix e') ~targets)) kept;
     restart_to_completion s la Bt ~prefix:(prefix e) ~targets ~reference);
  H.close s

(* The paper's whole-application migration: a 4-rank BT/NAS checkpointed
   with its images streamed straight to the Agents of nodes 4-7, restarted
   there, and run to completion. *)
let stream_migration a =
  let t_base, reference = base_run a Bt 4 in
  let s, la = launch a ~nodes:8 Bt 4 in
  H.run s (Simtime.sec (t_base /. 2.0));
  let targets = [ 4; 5; 6; 7 ] in
  let dests = List.combine (List.map (fun (p : Pod.t) -> p.Pod.pod_id) la.Launch.pods) targets in
  let r =
    H.checkpoint s
      ~items:(H.items s la.Launch.pods ~dest:(fun p -> Protocol.U_node (List.assoc p.Pod.pod_id dests)))
      ~resume:false
  in
  if r.Manager.r_ok then begin
    let r =
      H.restart_items s
        ~items:
          (List.map
             (fun (id, node) -> { Manager.ri_node = node; ri_pod = id; ri_uri = Protocol.U_node node })
             dests)
    in
    if r.Manager.r_ok then begin
      let procs = ranks (Launch.pod_ids la) Bt in
      H.check a (List.length procs = 4) "stream migration: ranks missing";
      H.run_until s "migrated run" (fun () -> Cluster.procs_exited procs);
      expect s Bt reference "migrated run"
    end
  end;
  H.close s

let delta_mig =
  { name = "delta-mig";
    pooled = 3;
    iterate =
      (fun a ->
        chained_restart a;
        List.iter (hog_migration a) mig_rates;
        stream_migration a;
        H.check_ops a);
    setup_only =
      (fun a ->
        H.close (fst (launch a ~params:vanilla Bt 16));
        H.close (fst (launch a ~params:chain_params Bt 16));
        List.iter (fun r -> H.close (fst (hog_setup a r))) mig_rates;
        H.close (fst (launch a ~params:vanilla Bt 4));
        H.close (fst (launch a ~nodes:8 Bt 4))) }

let all = [ paper_fig6; kv_serve; fleet_256; delta_mig ]

(* --- gate sensitivity --------------------------------------------------- *)

(* A small 4-rank BT/NAS snapshot-and-restart, for checking that the
   comparison catches a 10% change of one restart cost constant. *)
let small_bt = function
  | Bt ->
    Zapc_apps.Bt_nas.params_to_value
      { Zapc_apps.Bt_nas.default_params with g = 96; iters = 30 }
  | app -> app_args app

let bt_restart a ~params =
  let _, reference = base_run a ~args:small_bt Bt 4 in
  let s, la = launch a ~params ~args:small_bt Bt 4 in
  H.run s (Simtime.ms 5);
  ignore (H.checkpoint s ~items:(H.items s la.Launch.pods ~dest:(H.to_storage "snap")) ~resume:true);
  ignore (H.time a "run" (fun () -> Launch.wait_done s.H.cluster la));
  restart_to_completion s la Bt ~prefix:"snap" ~targets:[ 0; 1; 2; 3 ] ~reference;
  H.close s;
  H.check_ops a

(* Host-side harness for the served-traffic robustness matrix: a sharded
   key-value service (kvstore pods) under an open-loop client population
   (kv_client pods), with helpers to drain client statistics, compute
   windowed latency percentiles, digest service state, and feed everything
   into the cluster's metrics registry.

   Used by the @serve chaos battery (test/chaos.ml) and the `serve` bench
   experiment (BENCH_serve.json).  Only the SERVER pods are ever
   checkpointed, migrated or crash-recovered: the client population plays
   the outside world and must survive on its own retry discipline. *)

module Simtime = Zapc_sim.Simtime
module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Pod = Zapc_pod.Pod
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Params = Zapc.Params
module Metrics = Zapc_obs.Metrics

(* Cost knobs sized for mass-socket pods: per-socket save/restore costs are
   dialled down so a 1000-connection pod restores in ~100 virtual ms, and
   the supervisor loop is fast enough that a crash-recover cycle fits well
   inside a second of virtual time. *)
let serve_params =
  { Params.default with
    phase_timeout = Simtime.ms 600;
    heartbeat_period = Simtime.ms 20;
    heartbeat_misses = 3;
    recover_backoff = Simtime.ms 40;
    recover_backoff_max = Simtime.ms 400;
    recover_retries = 5;
    ckpt_fixed = Simtime.ms 2;
    restore_fixed = Simtime.ms 10;
    per_socket_ckpt = Simtime.us 20;
    per_socket_restore = Simtime.us 100;
    cost_jitter = 0.1 }

type cfg = {
  nshards : int;
  n_conns : int;  (* total client connections, across all client pods *)
  reqs_per_conn : int;
  period : Simtime.t;  (* per-connection open-loop request period *)
  req_timeout : Simtime.t;
  base_backoff : Simtime.t;
  max_backoff : Simtime.t;
  client_pods : int;
  port : int;
  backlog : int;
}

let default_cfg =
  {
    nshards = 2;
    n_conns = 1000;
    reqs_per_conn = 6;
    period = Simtime.ms 100;
    req_timeout = Simtime.ms 150;
    base_backoff = Simtime.ms 30;
    max_backoff = Simtime.ms 300;
    client_pods = 1;
    port = 7000;
    backlog = 2048;
  }

type t = {
  cluster : Cluster.t;
  cfg : cfg;
  servers : Pod.t list;  (* shard order *)
  clients : (Pod.t * Proc.t) list;  (* client procs are never restored *)
  vips : Addr.ip array;  (* server vip per shard *)
}

let server_args cfg (vips : Addr.ip array) shard =
  Value.assoc
    [ ("port", Value.int cfg.port);
      ("shard", Value.int shard);
      ("nshards", Value.int cfg.nshards);
      ("backlog", Value.int cfg.backlog);
      ( "mirror",
        Value.option
          (fun a -> Addr.to_value a)
          (if cfg.nshards > 1 then
             Some { Addr.ip = vips.((shard + 1) mod cfg.nshards); port = cfg.port }
           else None) ) ]

let client_args cfg (vips : Addr.ip array) ~n ~base ~seed =
  Value.assoc
    [ ("n", Value.int n);
      ("nshards", Value.int cfg.nshards);
      ("base", Value.int base);
      ( "targets",
        Value.list
          (fun ip -> Addr.to_value { Addr.ip; port = cfg.port })
          (Array.to_list vips) );
      ("period", Value.int cfg.period);
      ("timeout", Value.int cfg.req_timeout);
      ("base_backoff", Value.int cfg.base_backoff);
      ("max_backoff", Value.int cfg.max_backoff);
      ("reqs", Value.int cfg.reqs_per_conn);
      ("seed", Value.int seed) ]

(* Build the service: server pods on nodes [0..nshards-1], client pods on
   the nodes after them.  All pods share one virtual address map, so client
   connections keep working across server migrations. *)
let setup ?(nodes = 4) ?(seed = 42) ?(params = serve_params) ?(cfg = default_cfg) () =
  Registry.register_all ();
  let cluster = Cluster.make ~seed ~params ~node_count:nodes () in
  let servers =
    List.init cfg.nshards (fun i ->
        Cluster.create_pod cluster ~node_idx:(i mod nodes)
          ~name:(Printf.sprintf "kv%d" i))
  in
  let cpods =
    List.init cfg.client_pods (fun i ->
        Cluster.create_pod cluster
          ~node_idx:((cfg.nshards + i) mod nodes)
          ~name:(Printf.sprintf "kvc%d" i))
  in
  Cluster.link_pods (servers @ cpods);
  let vips = Array.of_list (List.map (fun (p : Pod.t) -> p.vip) servers) in
  List.iteri
    (fun i pod -> ignore (Pod.spawn pod ~program:"kvstore" ~args:(server_args cfg vips i)))
    servers;
  (* let the listeners come up before the connect storm; stragglers retry *)
  Cluster.run cluster ~until:(Simtime.ms 1) ();
  let per = cfg.n_conns / cfg.client_pods in
  let clients =
    List.mapi
      (fun i pod ->
        let n = if i = cfg.client_pods - 1 then cfg.n_conns - (per * i) else per in
        ( pod,
          Pod.spawn pod ~program:"kv_client"
            ~args:
              (client_args cfg vips ~n ~base:(i * 1_000_000) ~seed:(seed + (31 * i))) ))
      cpods
  in
  { cluster; cfg; servers; clients; vips }

(* --- stats ------------------------------------------------------------- *)

type stats = Kv_client.stats = {
  st_issued : int;
  st_completed : int;
  st_retries : int;
  st_timeouts : int;
  st_dups : int;
  st_redirects : int;
  st_reconnects : int;
  st_eofs : int;
  st_inflight : int;
  st_samples : (float * float) array;
}

let client_stats t : stats =
  let all =
    List.map
      (fun ((_ : Pod.t), (proc : Proc.t)) ->
        let _, v = Program.snapshot proc.Proc.inst in
        Kv_client.stats_of_snapshot v)
      t.clients
  in
  List.fold_left
    (fun acc s ->
      {
        st_issued = acc.st_issued + s.st_issued;
        st_completed = acc.st_completed + s.st_completed;
        st_retries = acc.st_retries + s.st_retries;
        st_timeouts = acc.st_timeouts + s.st_timeouts;
        st_dups = acc.st_dups + s.st_dups;
        st_redirects = acc.st_redirects + s.st_redirects;
        st_reconnects = acc.st_reconnects + s.st_reconnects;
        st_eofs = acc.st_eofs + s.st_eofs;
        st_inflight = acc.st_inflight + s.st_inflight;
        st_samples = Array.append acc.st_samples s.st_samples;
      })
    {
      st_issued = 0;
      st_completed = 0;
      st_retries = 0;
      st_timeouts = 0;
      st_dups = 0;
      st_redirects = 0;
      st_reconnects = 0;
      st_eofs = 0;
      st_inflight = 0;
      st_samples = [||];
    }
    all

let total_expected t = t.cfg.n_conns * t.cfg.reqs_per_conn

(* Requests completed over the client population, read from the live
   client states: [wait_done] asks after every event, where a snapshot
   encodes each client whole. *)
let completed t =
  List.fold_left
    (fun acc ((_ : Pod.t), (proc : Proc.t)) ->
      match Program.inspect proc.Proc.inst Kv_client.id with
      | Some s -> acc + s.Kv_client.completed
      | None -> invalid_arg "Serve.completed: a client process is not a kv_client")
    0 t.clients

let all_done t = completed t >= total_expected t

let wait_done ?(timeout = Simtime.sec 120.0) t =
  Cluster.run_until t.cluster ~timeout (fun () -> all_done t)

(* --- server state ------------------------------------------------------ *)

(* Snapshot the kvstore program of the given shard, resolving the pod
   through the registry (the Pod.t moves on migration/restore). *)
let server_state t ~shard =
  let orig = List.nth t.servers shard in
  match Pod.find orig.Pod.pod_id with
  | None -> None
  | Some pod ->
    let rec first = function
      | [] -> None
      | (_, (proc : Proc.t)) :: rest ->
        if Program.name_of proc.Proc.inst = "kvstore" then
          Some (snd (Program.snapshot proc.Proc.inst))
        else first rest
    in
    first (Pod.members pod)

let digest t ~shard =
  match server_state t ~shard with
  | Some v -> Kvstore.digest_of_snapshot v
  | None -> 0

(* --- windowed latency percentiles -------------------------------------- *)

type window = { w_name : string; w_from : Simtime.t; w_until : Simtime.t }

type window_report = {
  wr_name : string;
  wr_count : int;
  wr_p50_ms : float;
  wr_p90_ms : float;
  wr_p99_ms : float;
}

let pct sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(Stdlib.min (n - 1) (int_of_float (q *. float_of_int n)))

let window_report (s : stats) (w : window) =
  let lats =
    Array.of_list
      (Array.fold_left
         (fun acc (ct, lat) ->
           if ct >= float_of_int w.w_from && ct < float_of_int w.w_until then lat :: acc
           else acc)
         [] s.st_samples)
  in
  Array.sort compare lats;
  let ms x = x /. 1e6 in
  {
    wr_name = w.w_name;
    wr_count = Array.length lats;
    wr_p50_ms = ms (pct lats 0.50);
    wr_p90_ms = ms (pct lats 0.90);
    wr_p99_ms = ms (pct lats 0.99);
  }

(* --- metrics feeding --------------------------------------------------- *)

(* Push the drained client stats into the cluster registry under the
   client.*/serve.* names (doc/OBSERVABILITY.md). *)
let feed_metrics t =
  let reg = Cluster.metrics t.cluster in
  let s = client_stats t in
  Array.iter (fun ((_ : float), lat) -> Metrics.observe reg "client.lat_ms" (lat /. 1e6))
    s.st_samples;
  let set name v =
    Metrics.add reg name (v - Metrics.counter reg name)
  in
  set "client.issued" s.st_issued;
  set "client.completed" s.st_completed;
  set "client.retries" s.st_retries;
  set "client.timeouts" s.st_timeouts;
  set "client.duplicates" s.st_dups;
  set "client.redirects" s.st_redirects;
  set "client.reconnects" s.st_reconnects;
  set "client.eofs" s.st_eofs;
  Metrics.set_gauge reg "serve.inflight" (float_of_int s.st_inflight);
  s

(* --- checkpoint plumbing ----------------------------------------------- *)

let node_of_pod t (p : Pod.t) =
  match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric t.cluster) p.rip with
  | Some n -> n
  | None -> -1

let ckpt_items t ~prefix =
  List.map
    (fun (p : Pod.t) ->
      {
        Manager.ci_node = node_of_pod t p;
        ci_pod = p.pod_id;
        ci_dest = Zapc.Protocol.U_storage (Printf.sprintf "%s.pod%d" prefix p.pod_id);
      })
    t.servers

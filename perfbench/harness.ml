(* Measurement machinery shared by the workloads.

   Everything is measured from outside the simulator, through its public
   API only:
   - host seconds, by timing calls into public functions, split by call
     category (cluster construction, launch, run, checkpoint, ...);
   - coordinated operations, from the always-on metrics registry: an
     observer on each cluster's registry sees the duration sample of every
     Manager operation as it completes, whoever started it (the benchmark,
     Periodic or the Supervisor), and the registry's counters and gauges
     are read when the cluster is closed;
   - per-pod costs, from the [Protocol.agent_stats] of the operation
     results the benchmark holds;
   - in a traced run, the engine profiler's per-label host time and the
     critical path ([Critpath.analyze]) of every operation's window. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Stats = Zapc_sim.Stats
module Kernel = Zapc_simos.Kernel
module Pod = Zapc_pod.Pod
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Critpath = Zapc_obs.Critpath
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Protocol = Zapc.Protocol
module Params = Zapc.Params
module Trace = Zapc.Trace

let clock = Unix.gettimeofday

type kind = Ckpt | Restart | Migrate

let kind_name = function Ckpt -> "ckpt" | Restart -> "restart" | Migrate -> "mig"

type op = { o_kind : kind; o_cluster : int; o_t0 : Simtime.t; o_t1 : Simtime.t }

(* How a registry instrument folds across the clusters of one workload. *)
type reading = Counter | Gauge_sum | Gauge_max | Hist_sum | Hist_mean

let readings =
  [ ("storage.bytes_written", Counter); ("storage.puts", Counter);
    ("storage.gets", Counter); ("storage.dedup_factor", Gauge_max);
    ("storage.compress_ratio", Gauge_max); ("storage.delta_resolved", Counter);
    ("storage.get_misses", Counter); ("storage.chain_broken", Counter);
    ("storage.replica_fallbacks", Counter); ("storage.write_failures", Counter);
    ("agent.delta_ckpts", Counter); ("agent.full_ckpts", Counter);
    ("ckpt.delta_ratio", Hist_mean);
    ("net.fabric.packets_delivered", Gauge_sum);
    ("net.fabric.bytes_delivered", Gauge_sum);
    ("net.fabric.packets_dropped", Gauge_sum); ("net.tcp.retransmits", Gauge_sum);
    ("net.tcp.window_stalls", Gauge_sum); ("net.netfilter.drops", Gauge_sum);
    ("net.synq_restored", Counter); ("net.vip_rebound", Counter);
    ("mgr.tree.down_msgs", Counter); ("mgr.tree.up_msgs", Counter);
    ("mgr.tree.depth", Gauge_max); ("relay.forwards", Counter);
    ("mgr.phase_timeouts", Counter); ("mgr.stale_done", Counter);
    ("mig.rounds", Hist_sum); ("mig.precopy_bytes", Hist_sum);
    ("mig.forced_stops", Counter); ("sup.detect_latency_ms", Hist_mean);
    ("sup.attempts", Counter); ("sup.backoffs", Counter);
    ("periodic.epochs_completed", Counter); ("periodic.epochs_skipped", Counter);
    ("periodic.epochs_failed", Counter); ("mgr.ckpt.ok", Counter);
    ("mgr.ckpt.failed", Counter); ("mgr.restart.ok", Counter);
    ("mgr.restart.failed", Counter); ("mgr.mig.ok", Counter);
    ("mgr.mig.failed", Counter) ]

(* One accumulator gathers the rounds whose virtual results are pooled;
   each round sets [seed] to its own, derived from the run's seed. *)
type t = {
  mutable seed : int;
  traced : bool;
  mutable setup_s : float;
  calls : (string, float) Hashtbl.t;  (* call category -> host seconds *)
  samples : (string, float list) Hashtbl.t;  (* series -> samples, newest first *)
  reg : (string, float * int) Hashtbl.t;  (* registry reading -> (value, count) *)
  profile : (string, int * float) Hashtbl.t;  (* engine label -> events, host s *)
  mutable ops : op list;  (* newest first *)
  mutable cluster_spans : (int * Span.span list) list;  (* traced: per cluster *)
  mutable clusters : int;
  mutable events : int;
  mutable virtual_s : float;
  mutable spans : int;
  mutable last_trace : Trace.t option;
  mutable failures : string list;  (* newest first *)
}

let create ~seed ~traced =
  { seed; traced; setup_s = 0.0; calls = Hashtbl.create 8;
    samples = Hashtbl.create 16; reg = Hashtbl.create 64; profile = Hashtbl.create 32; ops = [];
    cluster_spans = []; clusters = 0; events = 0; virtual_s = 0.0; spans = 0;
    last_trace = None; failures = [] }

let fail a msg = a.failures <- msg :: a.failures
let check a ok msg = if not ok then fail a msg

let sample a series v =
  Hashtbl.replace a.samples series
    (v :: Option.value ~default:[] (Hashtbl.find_opt a.samples series))

let series a name = Option.value ~default:[] (Hashtbl.find_opt a.samples name)

let reg a name =
  match Hashtbl.find_opt a.reg name with
  | None -> 0.0
  | Some (v, n) -> (
    match List.assoc_opt name readings with
    | Some Hist_mean -> if n = 0 then 0.0 else v /. float_of_int n
    | _ -> v)

let add_call a cat dt =
  Hashtbl.replace a.calls cat
    (dt +. Option.value ~default:0.0 (Hashtbl.find_opt a.calls cat))

let call_s a cat = Option.value ~default:0.0 (Hashtbl.find_opt a.calls cat)

(* Host-time one call into the simulator under a call category. *)
let time a cat f =
  let t0 = clock () in
  Fun.protect f ~finally:(fun () -> add_call a cat (clock () -. t0))

(* As [time], and count it as set-up: building clusters, launching
   applications, booting them. *)
let setup a cat f =
  let t0 = clock () in
  Fun.protect f ~finally:(fun () ->
      let dt = clock () -. t0 in
      add_call a cat dt;
      a.setup_s <- a.setup_s +. dt)

let pct xs q = if xs = [] then 0.0 else Stats.percentile (Stats.of_list xs) q
let median xs = pct xs 0.5
let max_of xs = List.fold_left Float.max 0.0 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)

(* --- calibrated host time ----------------------------------------------- *)

(* Host speed on a shared machine drifts by tens of percent over minutes,
   far more than a median over the rounds of one run can absorb.  So a run
   brackets every timed step between two runs of a fixed reference loop and
   rescales the step's host seconds by the mean of the two to a machine on
   which the loop takes [reference_nominal_s]: the ratio to the reference
   stays put while the machine's speed moves.  On a shared 2-core machine
   this cut the spread of the per-run medians by half or more.  The loop
   churns a hashtable larger than the caches and one that fits in them,
   with fresh allocation, as the simulator does; it runs with its own GC
   settings so that nothing the simulator's libraries configure changes
   its cost. *)
let reference_nominal_s = 0.25

let reference () =
  let churn ~ops ~keys =
    let h = Hashtbl.create 1024 and acc = ref 0 in
    for i = 1 to ops do
      Hashtbl.replace h (i land (keys - 1)) (i, string_of_int i);
      match Hashtbl.find_opt h (i * 7 land (keys - 1)) with
      | Some (x, _) -> acc := !acc + x
      | None -> ()
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let saved = Gc.get () in
  Gc.compact ();
  Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  let t0 = clock () in
  churn ~ops:400_000 ~keys:65536;
  churn ~ops:1_000_000 ~keys:2048;
  let dt = clock () -. t0 in
  Gc.set saved;
  Gc.compact ();
  dt

(* The reference times of one run, newest first; the newest opens the
   bracket of the next step. *)
type calib = { mutable refs : float list }

(* The first reference of a process runs on a cold heap: it is dropped. *)
let calib () =
  ignore (reference ());
  { refs = [ reference () ] }

(* Run [f], which returns the host seconds it wants counted, then the
   reference: (raw, rescaled) seconds. *)
let calibrated c f =
  let raw = f () in
  let before = List.hd c.refs and after = reference () in
  c.refs <- after :: c.refs;
  (raw, raw *. reference_nominal_s /. ((before +. after) /. 2.0))

(* --- one session per simulated cluster --------------------------------- *)

type session = {
  acc : t;
  cluster : Cluster.t;
  index : int;
  logs : string list ref;  (* kernel log lines, newest first *)
}

let with_profiling a params =
  if a.traced then { params with Params.profile_engine = true } else params

(* Every Manager operation reports its duration through the registry on
   completion; its window [now - duration, now] is what the critical-path
   analysis walks. *)
let observe s name v =
  let op kind =
    sample s.acc (kind_name kind ^ "_ms") v;
    let t1 = Cluster.now s.cluster in
    let t0 = Simtime.sub t1 (Simtime.ns (Float.to_int (Float.round (v *. 1e6)))) in
    s.acc.ops <- { o_kind = kind; o_cluster = s.index; o_t0 = t0; o_t1 = t1 } :: s.acc.ops
  in
  match name with
  | "mgr.ckpt.duration_ms" -> op Ckpt
  | "mgr.restart.duration_ms" -> op Restart
  | "mgr.mig.duration_ms" -> op Migrate
  | "mig.blackout_ms" -> sample s.acc "blackout_ms" v
  | _ -> ()

(* Take over a cluster built elsewhere (Serve.setup): capture its kernel
   logs (which would otherwise go to stdout), its operations, and in a
   traced run its spans. *)
let attach a cluster =
  let s = { acc = a; cluster; index = a.clusters; logs = ref [] } in
  a.clusters <- a.clusters + 1;
  for i = 0 to Cluster.node_count cluster - 1 do
    Kernel.set_logger (Cluster.node cluster i).Cluster.n_kernel (fun _ _ m ->
        s.logs := m :: !(s.logs))
  done;
  if a.traced then ignore (Cluster.enable_trace cluster);
  Metrics.set_on_record (Cluster.metrics cluster) (Some (observe s));
  s

let cluster a ?cpus ~params ~node_count () =
  let c =
    setup a "cluster_make" (fun () ->
        Cluster.make ~seed:a.seed ?cpus ~params:(with_profiling a params) ~node_count ())
  in
  attach a c

(* Pod ids restart at 1 in every cluster while the live-pod registry is
   process-global: a finished cluster's pods must leave it before the next
   cluster reuses their ids. *)
let clear_pods () =
  let live = ref (List.length (Pod.current_vip_map ())) in
  let id = ref 1 in
  while !live > 0 do
    (match Pod.find !id with
     | Some p -> Pod.destroy p; decr live
     | None -> ());
    incr id
  done

let overlaps t0 t1 (sp : Span.span) =
  match sp.Span.sp_end with
  | Some e -> e > t0 && sp.Span.sp_begin < t1
  | None -> false

let close s =
  let a = s.acc and c = s.cluster in
  let m = Cluster.metrics c in
  Metrics.set_on_record m None;
  List.iter
    (fun (name, how) ->
      let v, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt a.reg name) in
      let r =
        match how with
        | Counter -> (v +. float_of_int (Metrics.counter m name), n)
        | Gauge_sum -> (v +. Metrics.gauge m name, n)
        | Gauge_max -> (Float.max v (Metrics.gauge m name), n)
        | Hist_sum -> (v +. Metrics.hist_sum m name, n)
        | Hist_mean -> (v +. Metrics.hist_sum m name, n + Metrics.hist_count m name)
      in
      Hashtbl.replace a.reg name r)
    readings;
  let eng = Cluster.engine c in
  a.events <- a.events + Engine.events_processed eng;
  a.virtual_s <- a.virtual_s +. Simtime.to_sec (Cluster.now c);
  List.iter
    (fun (label, n, h) ->
      let n0, h0 = Option.value ~default:(0, 0.0) (Hashtbl.find_opt a.profile label) in
      Hashtbl.replace a.profile label (n0 + n, h0 +. h))
    (Engine.profile eng);
  (match Cluster.trace c with
   | Some tr ->
     let spans = Span.spans (Trace.recorder tr) in
     a.spans <- a.spans + List.length spans;
     a.cluster_spans <- (s.index, spans) :: a.cluster_spans;
     a.last_trace <- Some tr
   | None -> ());
  clear_pods ()

(* --- operation helpers: timed, with their agent statistics kept -------- *)

let ckpt_stats a (r : Manager.op_result) =
  List.iter
    (fun (_, (st : Protocol.agent_stats)) ->
      sample a "agent.net_ckpt_ms" (Simtime.to_ms st.Protocol.st_net_time);
      sample a "agent.net_bytes" (float_of_int st.Protocol.st_net_bytes);
      sample a "agent.image_mb" (float_of_int st.Protocol.st_image_bytes /. 1e6))
    r.Manager.r_stats

let restart_stats a (r : Manager.op_result) =
  List.iter
    (fun (_, (st : Protocol.agent_stats)) ->
      sample a "agent.restart_conn_ms" (Simtime.to_ms st.Protocol.st_conn_time);
      sample a "agent.restart_net_ms" (Simtime.to_ms st.Protocol.st_net_time);
      sample a "agent.sockets" (float_of_int st.Protocol.st_sockets))
    r.Manager.r_stats

let node_of s (p : Pod.t) =
  match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric s.cluster) p.Pod.rip with
  | Some n -> n
  | None -> -1

let key prefix pod_id = Printf.sprintf "%s.pod%d" prefix pod_id

let items s pods ~dest =
  List.map
    (fun (p : Pod.t) ->
      { Manager.ci_node = node_of s p; ci_pod = p.Pod.pod_id; ci_dest = dest p })
    pods

let to_storage prefix (p : Pod.t) = Protocol.U_storage (key prefix p.Pod.pod_id)

let checkpoint s ~items ~resume =
  let r = time s.acc "checkpoint" (fun () -> Cluster.checkpoint_sync s.cluster ~items ~resume) in
  ckpt_stats s.acc r;
  r

let restart_items s ~items =
  let r = time s.acc "restart" (fun () -> Cluster.restart_sync s.cluster ~items) in
  restart_stats s.acc r;
  r

let restart s ~pod_ids ~target_nodes ~prefix =
  restart_items s
    ~items:
      (List.map2
         (fun id node ->
           { Manager.ri_node = node; ri_pod = id; ri_uri = Protocol.U_storage (key prefix id) })
         pod_ids target_nodes)

let migrate s ~pod ~dest_node =
  time s.acc "migrate" (fun () -> Cluster.migrate_sync s.cluster ~pod ~dest_node)

let run s until = time s.acc "run" (fun () -> Cluster.run s.cluster ~until ())

let run_for s d = run s (Simtime.add (Cluster.now s.cluster) d)

let run_until s ?(timeout = Simtime.sec 3600.0) what pred =
  try time s.acc "run" (fun () -> Cluster.run_until s.cluster ~timeout pred)
  with Cluster.Timeout _ -> fail s.acc (what ^ ": timed out")

(* Resolve every restart key the way the restarting Agent will: one full
   image on plain storage, a delta chain on the chained workloads. *)
let storage_get s keys =
  let st = Cluster.storage s.cluster in
  time s.acc "storage_get" (fun () ->
      List.iter
        (fun k -> check s.acc (Zapc.Storage.get st k <> None) ("missing image " ^ k))
        keys)

(* --- metric catalogue --------------------------------------------------- *)

(* Host clocks and host-side rates: reported, never compared exactly. *)
let is_host name =
  String.equal name "setup_s"
  || String.equal name "host_round_s"
  || String.starts_with ~prefix:"host." name
  || String.starts_with ~prefix:"call." name
  || String.equal name "sim.events_per_host_s"
  || String.equal name "obs.trace_overhead_pct"

let attempted a =
  List.fold_left (fun acc n -> acc +. reg a n) 0.0
    [ "mgr.ckpt.ok"; "mgr.ckpt.failed"; "mgr.restart.ok"; "mgr.restart.failed";
      "mgr.mig.ok"; "mgr.mig.failed" ]

let failed a =
  List.fold_left (fun acc n -> acc +. reg a n) 0.0
    [ "mgr.ckpt.failed"; "mgr.restart.failed"; "mgr.mig.failed" ]

(* Every operation must succeed, Periodic epochs included. *)
let check_ops a =
  check a (failed a = 0.0)
    (Printf.sprintf "%.0f of %.0f operations failed" (failed a) (attempted a));
  check a (reg a "periodic.epochs_failed" = 0.0) "a periodic epoch failed"

(* The deterministic end-to-end metrics: virtual times and bytes. *)
let virtual_e2e a =
  [ ("ckpt_ms_p50", "ms", pct (series a "ckpt_ms") 0.5);
    ("ckpt_ms_p90", "ms", pct (series a "ckpt_ms") 0.9);
    ("restart_ms_p50", "ms", pct (series a "restart_ms") 0.5);
    ("restart_ms_p90", "ms", pct (series a "restart_ms") 0.9);
    ("stored_mb", "MB", reg a "storage.bytes_written" /. 1e6) ]

let e2e a ~setup_s ~round_s ~heap_mb =
  [ ("setup_s", "s", setup_s); ("host_round_s", "s", round_s);
    ("host_heap_mb", "MB", heap_mb) ]
  @ virtual_e2e a

(* Every virtual quantity a run measured, in a fixed order: two runs of the
   same seed must produce the same string. *)
let fingerprint a =
  let sorted tbl fmt =
    Hashtbl.fold (fun k v acc -> fmt k v :: acc) tbl [] |> List.sort compare
  in
  String.concat "\n"
    (sorted a.samples (fun k v ->
         k ^ "=" ^ String.concat "," (List.map (Printf.sprintf "%h") v))
    @ sorted a.reg (fun k (v, n) -> Printf.sprintf "%s=%h/%d" k v n)
    @ List.map
        (fun o -> Printf.sprintf "%s@%d:%d-%d" (kind_name o.o_kind) o.o_cluster o.o_t0 o.o_t1)
        a.ops
    @ [ Printf.sprintf "events=%d virtual=%h" a.events a.virtual_s ])

(* Engine profiler labels rolled up by subsystem. *)
let layer_of label =
  match String.index_opt label '.' with
  | None -> None
  | Some i -> (
    match String.sub label 0 i with
    | "os" -> Some "os"
    | "net" -> Some "net"
    | "agent" -> Some "agent"
    | "ctrl" | "mgr" | "relay" -> Some "ctrl"
    | "storage" -> Some "storage"
    | "periodic" | "fault" | "sup" -> Some "sup"
    | _ -> None)

let host_layers = [ "os"; "net"; "agent"; "ctrl"; "storage"; "sup" ]

(* Critical-path phases reported per operation kind; a phase outside the
   list is charged to "other", so each operation's phases still sum to its
   duration. *)
let phases_of = function
  | Ckpt -> [ "suspend"; "net_ckpt"; "standalone"; "paused"; "mgr_sync"; "pod_ckpt"; "other" ]
  | Restart -> [ "pod_create"; "conn_recovery"; "net_restore"; "standalone_restore"; "other" ]
  | Migrate -> [ "mig_precopy"; "mig_copy"; "blackout"; "mig_restore"; "other" ]

let phase_metrics a =
  let per_kind kind =
    let names = phases_of kind in
    let rows =
      List.filter_map
        (fun o ->
          if o.o_kind <> kind then None
          else begin
            let t0 = o.o_t0 and t1 = o.o_t1 in
            let spans =
              List.filter (overlaps t0 t1)
                (Option.value ~default:[] (List.assoc_opt o.o_cluster a.cluster_spans))
            in
            let rep = Critpath.analyze ~spans ~t0 ~t1 in
            Some
              (List.map
                 (fun name ->
                   List.fold_left
                     (fun acc (p, d) ->
                       let p = if List.mem p names then p else "other" in
                       if String.equal p name then acc +. Simtime.to_ms d else acc)
                     0.0 rep.Critpath.cp_phases)
                 names)
          end)
        a.ops
    in
    List.mapi
      (fun i name ->
        ( Printf.sprintf "%s.phase.%s_ms" (kind_name kind) name,
          "ms",
          pct (List.map (fun row -> List.nth row i) rows) 0.5 ))
      names
  in
  List.concat_map per_kind [ Ckpt; Restart; Migrate ]

(* The per-layer metrics of the pooled rounds [a], which took [body_s] host
   seconds after set-up.  [traced], when given, holds the same rounds run
   traced, their host seconds with and without set-up; it adds the engine
   profile, the critical-path phases and the tracing cost. *)
let layers ?traced (a, body_s) =
  let count name v = (name, "count", v) in
  let regc name = count name (reg a name) in
  let attempted = attempted a in
  let base =
    [ ("blackout_ms_max", "ms", max_of (series a "blackout_ms"));
      ("app_slowdown_pct", "%", mean (series a "slowdown_pct"));
      ("client_p99_ckpt_ms", "ms", median (series a "client_p99_ckpt_ms"));
      ("client_p99_mig_ms", "ms", median (series a "client_p99_mig_ms"));
      ("client_p99_crash_ms", "ms", median (series a "client_p99_crash_ms"));
      ("mttr_ms", "ms", median (series a "mttr_ms"));
      ("req_timeout_ratio", "ratio", median (series a "req_timeout_ratio"));
      ("op_fail_ratio", "ratio", if attempted = 0.0 then 0.0 else failed a /. attempted);
      ("call.cluster_make_s", "s", call_s a "cluster_make");
      ("call.launch_s", "s", call_s a "launch");
      ("call.run_s", "s", call_s a "run");
      ("call.checkpoint_s", "s", call_s a "checkpoint");
      ("call.restart_s", "s", call_s a "restart");
      ("call.migrate_s", "s", call_s a "migrate");
      ("call.storage_get_s", "s", call_s a "storage_get");
      count "sim.events" (float_of_int a.events);
      ("sim.events_per_host_s", "1/s",
       if body_s > 0.0 then float_of_int a.events /. body_s else 0.0);
      ("sim.virtual_s", "s", a.virtual_s);
      ("agent.net_ckpt_ms_p50", "ms", pct (series a "agent.net_ckpt_ms") 0.5);
      ("agent.net_bytes_p50", "B", pct (series a "agent.net_bytes") 0.5);
      ("agent.restart_conn_ms_max", "ms", max_of (series a "agent.restart_conn_ms"));
      ("agent.restart_net_ms_max", "ms", max_of (series a "agent.restart_net_ms"));
      ("agent.image_mb_max", "MB", max_of (series a "agent.image_mb"));
      count "agent.sockets_restored" (sum (series a "agent.sockets"));
      regc "storage.puts"; regc "storage.gets";
      ("storage.dedup_factor", "ratio", reg a "storage.dedup_factor");
      ("storage.compress_ratio", "ratio", reg a "storage.compress_ratio");
      regc "storage.delta_resolved"; regc "storage.get_misses";
      regc "storage.chain_broken"; regc "storage.replica_fallbacks";
      regc "storage.write_failures"; regc "agent.delta_ckpts";
      regc "agent.full_ckpts";
      ("ckpt.delta_ratio", "ratio", reg a "ckpt.delta_ratio");
      regc "net.fabric.packets_delivered";
      ("net.fabric.bytes_delivered", "B", reg a "net.fabric.bytes_delivered");
      regc "net.fabric.packets_dropped"; regc "net.tcp.retransmits";
      regc "net.tcp.window_stalls"; regc "net.netfilter.drops";
      regc "net.synq_restored"; regc "net.vip_rebound";
      regc "mgr.tree.down_msgs"; regc "mgr.tree.up_msgs";
      regc "mgr.tree.depth"; regc "relay.forwards"; regc "mgr.phase_timeouts";
      regc "mgr.stale_done"; regc "mig.rounds";
      ("mig.precopy_bytes", "B", reg a "mig.precopy_bytes");
      regc "mig.forced_stops"; regc "mgr.mig.failed";
      ("sup.detect_latency_ms", "ms", reg a "sup.detect_latency_ms");
      regc "sup.attempts"; regc "sup.backoffs";
      regc "periodic.epochs_completed"; regc "periodic.epochs_skipped";
      regc "periodic.epochs_failed";
      ("client.lat_p50_ms", "ms", median (series a "client.lat_p50_ms"));
      count "client.issued" (sum (series a "client.issued"));
      count "client.retries" (sum (series a "client.retries"));
      count "client.redirects" (sum (series a "client.redirects"));
      count "client.reconnects" (sum (series a "client.reconnects"));
      count "ckpt.samples" (float_of_int (List.length (series a "ckpt_ms")));
      count "restart.samples" (float_of_int (List.length (series a "restart_ms")));
      count "mig.samples" (float_of_int (List.length (series a "mig_ms"))) ]
  in
  match traced with
  | None -> base
  | Some (t, traced_wall_s, traced_body_s) ->
    let by_layer =
      Hashtbl.fold
        (fun label (n, h) acc ->
          match layer_of label with
          | Some l ->
            let n0, h0 = Option.value ~default:(0, 0.0) (List.assoc_opt l acc) in
            (l, (n0 + n, h0 +. h)) :: List.remove_assoc l acc
          | None -> acc)
        t.profile []
    in
    let host l = snd (Option.value ~default:(0, 0.0) (List.assoc_opt l by_layer)) in
    let events l = fst (Option.value ~default:(0, 0.0) (List.assoc_opt l by_layer)) in
    let labelled = List.fold_left (fun acc l -> acc +. host l) 0.0 host_layers in
    base
    @ List.map (fun l -> ("host." ^ l ^ "_s", "s", host l)) host_layers
    @ [ ("host.unlabeled_s", "s", traced_wall_s -. labelled) ]
    @ List.map (fun l -> count ("events." ^ l) (float_of_int (events l))) host_layers
    @ phase_metrics t
    @ [ ("obs.trace_overhead_pct", "%",
         if body_s > 0.0 then (traced_body_s -. body_s) /. body_s *. 100.0 else 0.0);
        count "obs.spans" (float_of_int t.spans) ]

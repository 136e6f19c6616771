(* Cluster assembly: the engine, the fabric, shared storage, N nodes (each a
   kernel + an Agent), the Manager, and address allocation.  This is the
   simulation analogue of the paper's testbed: blades on a Gigabit switch
   with a SAN, one Agent per node, the Manager running alongside. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Addr = Zapc_simnet.Addr
module Fabric = Zapc_simnet.Fabric
module Netstack = Zapc_simnet.Netstack
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Pod = Zapc_pod.Pod

type node = {
  n_idx : int;
  n_kernel : Kernel.t;
  n_agent : Agent.t;
  n_host_ip : Addr.ip;
  mutable n_rip_seq : int;
  mutable n_alive : bool;  (* cleared when the supervisor declares it dead *)
}

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  storage : Storage.t;
  params : Params.t;
  nodes : node array;
  manager : Manager.t;
  metrics : Metrics.t;
  mutable next_pod_id : int;
  mutable next_vip_seq : int;
  trace : Trace.t;  (* the cluster-wide recorder, off until enable_trace *)
  mutable flight : Zapc_obs.Flight.t option;
  mutable relays : Relay.t list;  (* tree mode: one sub-coordinator per node *)
  mutable tree_sig : int list;  (* alive set the current tree was formed over *)
}

(* --- node liveness (supervisor bookkeeping) --- *)

(* Node liveness feeds the buddy storage backend: a declared-dead node's
   RAM copies are gone and get re-buddied; a recovered node rejoins with an
   empty buddy store (no-ops on the other backends). *)
let mark_node_dead t i =
  t.nodes.(i).n_alive <- false;
  Storage.node_died t.storage i

let mark_node_alive t i =
  t.nodes.(i).n_alive <- true;
  Storage.node_healed t.storage i
let node_alive t i = t.nodes.(i).n_alive

let alive_nodes t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> if n.n_alive then Some n.n_idx else None)

(* --- hierarchical coordination (Params.tree_fanout > 0) ---

   The control plane becomes a k-rooted k-ary forest laid over the sorted
   alive-node list by position: positions 0..k-1 hang directly off the
   Manager, position p >= k hangs off position (p-k)/k.  Every node gets a
   fresh uplink channel; its Agent attaches first (keeping the on-break
   abort), then a Relay claims the downward dispatch.  Re-forming closes
   the old relays — stale traffic on abandoned edges is dropped, the
   Manager's generation guards absorb any late reports. *)

let form_tree t =
  let k = t.params.Params.tree_fanout in
  if k > 0 then begin
    let alive = Array.of_list (alive_nodes t) in
    let n = Array.length alive in
    List.iter Relay.close t.relays;
    t.relays <- [];
    t.tree_sig <- Array.to_list alive;
    let edges =
      Array.map
        (fun _ ->
          Control.create ~engine:t.engine ~latency:t.params.Params.ctrl_latency
            ~bps:t.params.Params.ctrl_bps)
        alive
    in
    (* agents first: the Relay overrides the down handler afterwards *)
    Array.iteri
      (fun p _ -> Agent.attach_channel t.nodes.(alive.(p)).n_agent edges.(p))
      alive;
    (* direct children per coordinator position *)
    let children_r = Array.make (max n 1) [] in
    for q = n - 1 downto k do
      let pr = (q - k) / k in
      children_r.(pr) <- (alive.(q), edges.(q)) :: children_r.(pr)
    done;
    (* routing tables: walk each node up to its forest root, recording at
       every coordinator on the path which child subtree holds it *)
    let routes_m = ref [] in
    let routes_r = Array.make (max n 1) [] in
    for r = n - 1 downto 0 do
      let p = ref r in
      while !p >= k do
        let pr = (!p - k) / k in
        routes_r.(pr) <- (alive.(r), alive.(!p)) :: routes_r.(pr);
        p := pr
      done;
      routes_m := (alive.(r), alive.(!p)) :: !routes_m
    done;
    let mgr_children =
      List.init (min k n) (fun p -> (alive.(p), edges.(p)))
    in
    let edge_list = List.init n (fun p -> (alive.(p), edges.(p))) in
    Manager.set_tree t.manager ~children:mgr_children ~routes:!routes_m
      ~edges:edge_list;
    t.relays <-
      List.init n (fun p ->
          Relay.create ~engine:t.engine ~params:t.params ~metrics:t.metrics
            ~agent:t.nodes.(alive.(p)).n_agent ~node:alive.(p)
            ~parent:edges.(p) ~children:children_r.(p) ~routes:routes_r.(p));
    let rec depth p = if p < k then 1 else 1 + depth ((p - k) / k) in
    Metrics.set_gauge t.metrics "mgr.tree.depth"
      (float_of_int (if n = 0 then 0 else depth (n - 1)));
    Metrics.set_gauge t.metrics "mgr.tree.nodes" (float_of_int n)
  end

let reform_tree t =
  if t.params.Params.tree_fanout > 0 then begin
    let alive = alive_nodes t in
    if alive <> t.tree_sig then form_tree t
  end

let make ?(seed = 42) ?(cpus = 1) ~params ~node_count () =
  let engine = Engine.create ~seed () in
  (* one registry shared by every layer of this cluster; always on *)
  let metrics = Metrics.create () in
  (* one recorder shared by every layer too, switched off until asked for *)
  let trace = Trace.create () in
  Span.set_enabled trace false;
  let fabric = Fabric.create ~config:params.Params.fabric engine in
  let storage =
    Storage.create ~metrics ~trace ~bps:params.Params.storage_bps
      ~replicas:params.Params.storage_replicas
      ~backend:params.Params.storage_backend
      ~compress:params.Params.compress ~buddy_bps:params.Params.buddy_bps
      ~nodes:node_count engine
  in
  (* one SAN-backed file system mounted by every node *)
  let shared_fs = Zapc_simos.Simfs.create () in
  let nodes =
    Array.init node_count (fun i ->
        let kernel =
          Kernel.create ~config:params.Params.kconfig ~cpus
            ~hostname:(Printf.sprintf "node%d" i) ~node_id:i fabric
        in
        let host_ip = Addr.make_ip 192 168 1 (i + 1) in
        Netstack.add_ip (Kernel.netstack kernel) host_ip;
        Kernel.set_fs kernel shared_fs;
        let agent =
          Agent.create ~metrics ~node:i ~params ~storage ~trace ~fabric kernel
        in
        { n_idx = i; n_kernel = kernel; n_agent = agent; n_host_ip = host_ip;
          n_rip_seq = 0; n_alive = true })
  in
  let alloc_rip node_idx =
    let n = nodes.(node_idx) in
    n.n_rip_seq <- n.n_rip_seq + 1;
    Addr.make_ip 172 16 n.n_idx (10 + n.n_rip_seq)
  in
  let manager =
    Manager.create ~metrics ~engine ~params ~storage ~trace ~alloc_rip ()
  in
  let t =
    { engine; fabric; storage; params; nodes; manager; metrics;
      next_pod_id = 1; next_vip_seq = 0; trace; flight = None;
      relays = []; tree_sig = [] }
  in
  (* the engine profiler is opt-in (Params knob): the default hot path
     schedules closures unwrapped *)
  if params.Params.profile_engine then Engine.set_profiling engine true;
  Array.iter
    (fun n ->
      Agent.set_peer_resolver n.n_agent (fun idx ->
          if idx >= 0 && idx < Array.length nodes then Some nodes.(idx).n_agent else None);
      if params.Params.tree_fanout = 0 then begin
        (* flat topology: one direct channel per node *)
        let ch =
          Control.create ~engine ~latency:params.Params.ctrl_latency ~bps:params.Params.ctrl_bps
        in
        Manager.attach_agent manager ~node:n.n_idx ch;
        Agent.attach_channel n.n_agent ch
      end)
    nodes;
  if params.Params.tree_fanout > 0 then form_tree t;
  (* network-layer gauges, sampled at snapshot time (collect style) *)
  Metrics.gauge_fn metrics "net.fabric.packets_delivered" (fun () ->
      float_of_int (Fabric.packets_delivered fabric));
  Metrics.gauge_fn metrics "net.fabric.bytes_delivered" (fun () ->
      float_of_int (Fabric.bytes_delivered fabric));
  Metrics.gauge_fn metrics "net.fabric.packets_dropped" (fun () ->
      float_of_int (Fabric.packets_dropped fabric));
  Metrics.gauge_fn metrics "net.netfilter.blocked_rules" (fun () ->
      float_of_int
        (Zapc_simnet.Netfilter.blocked_count (Fabric.netfilter fabric)));
  Metrics.gauge_fn metrics "net.netfilter.drops" (fun () ->
      float_of_int
        (Zapc_simnet.Netfilter.drop_count (Fabric.netfilter fabric)));
  let sum_stacks f () =
    Array.fold_left
      (fun acc n -> acc + f (Kernel.netstack n.n_kernel))
      0 t.nodes
    |> float_of_int
  in
  Metrics.gauge_fn metrics "net.tcp.retransmits"
    (sum_stacks Netstack.retransmit_count);
  Metrics.gauge_fn metrics "net.tcp.window_stalls"
    (sum_stacks Netstack.window_stall_count);
  t

let engine t = t.engine
let params t = t.params
let manager t = t.manager
let storage t = t.storage
let fabric t = t.fabric
let metrics t = t.metrics
let node t i = t.nodes.(i)
let node_count t = Array.length t.nodes
let now t = Engine.now t.engine

let alloc_vip t =
  t.next_vip_seq <- t.next_vip_seq + 1;
  Addr.make_ip 10 77 (t.next_vip_seq / 250) (1 + (t.next_vip_seq mod 250))

let alloc_rip t node_idx =
  let n = t.nodes.(node_idx) in
  n.n_rip_seq <- n.n_rip_seq + 1;
  Addr.make_ip 172 16 n.n_idx (10 + n.n_rip_seq)

(* Create an (empty) pod on a node and register it with the node's Agent and
   with the Manager's pod-info cache. *)
let create_pod t ~node_idx ~name =
  let pod_id = t.next_pod_id in
  t.next_pod_id <- t.next_pod_id + 1;
  let vip = alloc_vip t in
  let rip = alloc_rip t node_idx in
  let n = t.nodes.(node_idx) in
  let pod = Pod.create ~pod_id ~name ~vip ~rip n.n_kernel in
  pod.Pod.virtualize_time <- t.params.virtualize_time;
  Agent.register_pod n.n_agent pod;
  Manager.remember_pod t.manager ~pod_id ~name ~vip
    { Zapc_netckpt.Meta.pm_pod = pod_id; pm_vip = vip; pm_entries = [] };
  pod

(* Switch the cluster-wide recorder on (idempotent, so tracing and the
   flight recorder can be enabled in either order). *)
let enable_trace t =
  Span.set_enabled t.trace true;
  t.trace

let recorder t = t.trace
let trace t = if Span.enabled t.trace then Some t.trace else None

(* The flight recorder: bounded per-node rings fed by one subscriber to the
   span recorder (spans and instants) and by the metric stream; tripped
   into a JSON dump by the abort/fault/death markers below. *)
let flight_trip_reason what =
  let has_prefix p =
    String.length what >= String.length p && String.sub what 0 (String.length p) = p
  in
  has_prefix "op_failed:" || has_prefix "fault:" || has_prefix "sup_detect:"

let enable_flight ?cap ?dump_dir t =
  match t.flight with
  | Some fl -> fl
  | None ->
    let module Flight = Zapc_obs.Flight in
    let tr = enable_trace t in
    let fl = Flight.create ?cap () in
    Flight.set_dump_dir fl dump_dir;
    t.flight <- Some fl;
    Span.subscribe tr (function
      | Span.Opened sp ->
        Flight.record fl ~node:sp.Span.sp_node
          (Flight.Span_open
             { f_time = sp.Span.sp_begin; f_id = sp.Span.sp_id;
               f_name = sp.Span.sp_name; f_op = sp.Span.sp_op;
               f_pod = sp.Span.sp_pod; f_parent = sp.Span.sp_parent })
      | Span.Closed sp ->
        Flight.record fl ~node:sp.Span.sp_node
          (Flight.Span_close
             { f_time =
                 (match sp.Span.sp_end with Some e -> e | None -> sp.Span.sp_begin);
               f_id = sp.Span.sp_id })
      | Span.Instant i ->
        Flight.record fl ~node:(-1)
          (Flight.Instant
             { f_time = i.Span.in_time; f_pod = i.Span.in_pod;
               f_what = i.Span.in_what });
        if flight_trip_reason i.Span.in_what then
          Flight.trip fl ~time:i.Span.in_time ~reason:i.Span.in_what);
    Metrics.set_on_record t.metrics
      (Some
         (fun name value ->
           Flight.record fl ~node:(-1)
             (Flight.Metric
                { f_time = Engine.now t.engine; f_name = name; f_value = value })));
    fl

let flight t = t.flight

(* Install the application-wide virtual address map on a group of pods that
   form one distributed application. *)
let link_pods pods =
  let map = List.map (fun (p : Pod.t) -> (p.vip, p.rip)) pods in
  List.iter (fun p -> Pod.set_vip_map p map) pods

(* --- running --- *)

let run t ?until ?max_events () = Engine.run ?until ?max_events t.engine

exception Timeout of string

(* Advance the simulation until [pred] holds; the engine is event-driven, so
   we re-check after every batch of events. *)
let run_until t ?(timeout = Simtime.sec 3600.0) pred =
  let deadline = Simtime.add (Engine.now t.engine) timeout in
  let rec go () =
    if pred () then ()
    else if Simtime.compare (Engine.now t.engine) deadline >= 0 then
      raise (Timeout "Cluster.run_until")
    else if Engine.pending t.engine = 0 then
      raise (Timeout "Cluster.run_until: simulation quiescent but predicate false")
    else begin
      Engine.run ~max_events:64 ~until:deadline t.engine;
      go ()
    end
  in
  go ()

let procs_exited procs = List.for_all (fun (p : Proc.t) -> p.exit_code <> None) procs

(* --- synchronous wrappers over the Manager's callback API --- *)

let checkpoint_sync ?(incremental = false) t ~items ~resume =
  let result = ref None in
  Manager.checkpoint ~incremental t.manager ~items ~resume
    ~on_done:(fun r -> result := Some r);
  run_until t (fun () -> !result <> None);
  Option.get !result

let restart_sync t ~items =
  let result = ref None in
  Manager.restart t.manager ~items ~on_done:(fun r -> result := Some r);
  run_until t (fun () -> !result <> None);
  Option.get !result

(* Take a snapshot of an application: checkpoint all its pods to storage and
   let them keep running. *)
let snapshot ?(incremental = false) t ~(pods : Pod.t list) ~key_prefix =
  let items =
    List.map
      (fun (p : Pod.t) ->
        let node_idx =
          match Fabric.node_of_ip t.fabric p.rip with Some n -> n | None -> -1
        in
        { Manager.ci_node = node_idx; ci_pod = p.pod_id;
          ci_dest = Protocol.U_storage (Printf.sprintf "%s.pod%d" key_prefix p.pod_id) })
      pods
  in
  checkpoint_sync ~incremental t ~items ~resume:true

(* Restart an application from storage onto the given nodes (same or
   different from the originals). *)
let restart_items ~(pod_ids : int list) ~(target_nodes : int list) ~key_prefix =
  List.map2
    (fun pod_id node ->
      { Manager.ri_node = node; ri_pod = pod_id;
        ri_uri = Protocol.U_storage (Printf.sprintf "%s.pod%d" key_prefix pod_id) })
    pod_ids target_nodes

let restart_app t ~pod_ids ~target_nodes ~key_prefix =
  restart_sync t ~items:(restart_items ~pod_ids ~target_nodes ~key_prefix)

(* Callback flavour for callers already running inside an engine event (the
   supervisor): [restart_sync] re-enters [Engine.run], which is illegal
   there. *)
let restart_app_async ?parent t ~pod_ids ~target_nodes ~key_prefix ~on_done =
  Manager.restart ?parent t.manager
    ~items:(restart_items ~pod_ids ~target_nodes ~key_prefix)
    ~on_done

(* Live-migrate one pod between nodes; the source node is looked up from the
   pod's real address so callers only name the destination. *)
let migrate_sync ?max_rounds ?dirty_threshold t ~(pod : Pod.t) ~dest_node =
  let src_node =
    match Fabric.node_of_ip t.fabric pod.Pod.rip with Some n -> n | None -> -1
  in
  let result = ref None in
  Manager.migrate ?max_rounds ?dirty_threshold t.manager ~pod:pod.Pod.pod_id
    ~src_node ~dest_node ~on_done:(fun r -> result := Some r);
  run_until t (fun () -> !result <> None);
  Option.get !result

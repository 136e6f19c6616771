(* Cluster assembly: the engine, the fabric, shared storage, N nodes (each a
   kernel + an Agent), the Manager, and address allocation.  This is the
   simulation analogue of the paper's testbed: blades on a Gigabit switch
   with a SAN, one Agent per node, the Manager running alongside. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Phase = Zapc_obs.Phase
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
  mutable relays : Relay.t list;  (* one per node in a tree deeper than one level *)
  mutable tree_sig : int list;  (* alive set the current tree was formed over *)
  hung : bool array;  (* per node: its uplink is paused (fault injection) *)
}

(* --- node liveness (supervisor bookkeeping) --- *)

(* Node liveness feeds the buddy storage backend: a declared-dead node's
   RAM copies are gone and get re-buddied (a no-op on the other backends).
   A declared-dead node stays dead. *)
let mark_node_dead t i =
  t.nodes.(i).n_alive <- false;
  Storage.node_died t.storage i

let node_alive t i = t.nodes.(i).n_alive

let alive_nodes t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> if n.n_alive then Some n.n_idx else None)

(* --- the control tree ---

   A k-rooted k-ary forest over the sorted alive-node list: positions
   0..k-1 hang off the Manager, position p >= k off position (p-k)/k.
   Fanout 0, or at least the alive count, is the paper's flat star (no
   relays); a deeper tree runs a Relay on every node.  Each node gets a
   fresh uplink (paused while the node is hung); the Manager, then the
   Agent, then the Relay register on it.  Re-forming closes the old relays
   and Agents ignore old edges; generation guards absorb late reports. *)

let form_tree t =
  let alive = Array.of_list (alive_nodes t) in
  let n = Array.length alive in
  let k = t.params.Params.tree_fanout in
  let k = if k <= 0 || k >= n then n else k in
  let relayed = k < n in
  List.iter Relay.close t.relays;
  t.relays <- [];
  t.tree_sig <- Array.to_list alive;
  let edges =
    Array.map
      (fun i ->
        let ch =
          Control.create ~engine:t.engine ~latency:t.params.Params.ctrl_latency
            ~bps:t.params.Params.ctrl_bps
        in
        if t.hung.(i) then Control.pause ch;
        ch)
      alive
  in
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
  Manager.set_tree t.manager
    ~children:(List.init k (fun p -> (alive.(p), edges.(p))))
    ~routes:!routes_m
    ~edges:(List.init n (fun p -> (alive.(p), edges.(p))));
  (* agents before relays: a Relay overrides its uplink's down handler *)
  Array.iteri
    (fun p _ -> Agent.attach_channel t.nodes.(alive.(p)).n_agent edges.(p))
    alive;
  if relayed then
    t.relays <-
      List.init n (fun p ->
          Relay.create ~engine:t.engine ~params:t.params ~metrics:t.metrics
            ~agent:t.nodes.(alive.(p)).n_agent ~node:alive.(p)
            ~parent:edges.(p) ~children:children_r.(p) ~routes:routes_r.(p));
  (* relays on the longest root-to-leaf path *)
  let rec depth p = if p < k then 1 else 1 + depth ((p - k) / k) in
  Metrics.set_gauge t.metrics "mgr.tree.depth"
    (float_of_int (if relayed then depth (n - 1) else 0));
  Metrics.set_gauge t.metrics "mgr.tree.nodes" (float_of_int n)

let reform_tree t = if alive_nodes t <> t.tree_sig then form_tree t

(* The hang belongs to the node: a re-formed tree pauses its fresh uplink
   too, and the heal resumes whichever uplink is current. *)
let set_hung t i hung =
  t.hung.(i) <- hung;
  Option.iter
    (if hung then Control.pause else Control.resume)
    (Manager.agent_channel t.manager ~node:i)

(* A fresh real address on the node: 172.16.<node>.11 up to .255.  A
   246th would spill into the next node's subnet, so it is refused. *)
let alloc_rip n =
  if n.n_rip_seq >= 245 then
    invalid_arg (Printf.sprintf "Cluster: node %d has no real address left" n.n_idx);
  n.n_rip_seq <- n.n_rip_seq + 1;
  Addr.make_ip 172 16 n.n_idx (10 + n.n_rip_seq)

let make ?(seed = 42) ?(cpus = 1) ~params ~node_count () =
  (* pod ids and real addresses restart in every cluster, so no pod of an
     earlier one may still answer for them *)
  Pod.clear_registry ();
  let engine = Engine.create ~seed () in
  (* one registry shared by every layer of this cluster; always on *)
  let metrics = Metrics.create () in
  (* one recorder shared by every layer too, switched off until asked for *)
  let trace = Trace.create () in
  Span.set_enabled trace false;
  let fabric = Fabric.create ~config:params.Params.fabric engine in
  let storage =
    Storage.create ~metrics ~trace ~bps:params.Params.storage_bps
      ~backend:params.Params.storage_backend
      ~compress:params.Params.compress
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
  let manager =
    Manager.create ~metrics ~engine ~params ~storage ~trace
      ~alloc_rip:(fun i -> alloc_rip nodes.(i)) ()
  in
  let t =
    { engine; fabric; storage; params; nodes; manager; metrics;
      next_pod_id = 1; next_vip_seq = 0; trace; flight = None;
      relays = []; tree_sig = []; hung = Array.make node_count false }
  in
  (* the engine profiler is opt-in (Params knob): the default hot path
     schedules closures unwrapped *)
  if params.Params.profile_engine then Engine.set_profiling engine true;
  Array.iter
    (fun n ->
      Agent.set_peer_resolver n.n_agent (fun idx ->
          if idx >= 0 && idx < Array.length nodes then Some nodes.(idx).n_agent else None))
    nodes;
  form_tree t;
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

(* Create an (empty) pod on a node and register it with the node's Agent and
   with the Manager's pod-info cache. *)
let create_pod t ~node_idx ~name =
  let pod_id = t.next_pod_id in
  t.next_pod_id <- t.next_pod_id + 1;
  let vip = alloc_vip t in
  let n = t.nodes.(node_idx) in
  let rip = alloc_rip n in
  let pod = Pod.create ~pod_id ~name ~vip ~rip n.n_kernel in
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
   into a JSON dump by the abort/fault/death instants ([Phase.trips]). *)

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
               f_name = Phase.to_string sp.Span.sp_name; f_op = sp.Span.sp_op;
               f_pod = sp.Span.sp_pod; f_parent = sp.Span.sp_parent })
      | Span.Closed sp ->
        Flight.record fl ~node:sp.Span.sp_node
          (Flight.Span_close
             { f_time =
                 (match sp.Span.sp_end with Some e -> e | None -> sp.Span.sp_begin);
               f_id = sp.Span.sp_id })
      | Span.Instant i ->
        let what = Phase.to_string i.Span.in_what in
        Flight.record fl ~node:(-1)
          (Flight.Instant { f_time = i.Span.in_time; f_pod = i.Span.in_pod; f_what = what });
        if Phase.trips i.Span.in_what then
          Flight.trip fl ~time:i.Span.in_time ~reason:what);
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
let migrate_sync ?max_rounds t ~(pod : Pod.t) ~dest_node =
  let src_node =
    match Fabric.node_of_ip t.fabric pod.Pod.rip with Some n -> n | None -> -1
  in
  let result = ref None in
  Manager.migrate ?max_rounds t.manager ~pod:pod.Pod.pod_id
    ~src_node ~dest_node ~on_done:(fun r -> result := Some r);
  run_until t (fun () -> !result <> None);
  Option.get !result

(** Cluster assembly: the engine, fabric, shared storage, N nodes (kernel +
    Agent each), the Manager, and address allocation — the simulation
    analogue of the paper's testbed (blades on a Gigabit switch with a SAN,
    one Agent per node, the Manager alongside). *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Addr = Zapc_simnet.Addr
module Fabric = Zapc_simnet.Fabric
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Pod = Zapc_pod.Pod

type node = {
  n_idx : int;
  n_kernel : Kernel.t;
  n_agent : Agent.t;
  n_host_ip : Addr.ip;
  mutable n_rip_seq : int;
  mutable n_alive : bool;  (** cleared when the supervisor declares it dead *)
}

type t

val make : ?seed:int -> ?cpus:int -> params:Params.t -> node_count:int -> unit -> t

val engine : t -> Engine.t
val params : t -> Params.t
val manager : t -> Manager.t
val storage : t -> Storage.t
val fabric : t -> Fabric.t

val metrics : t -> Zapc_obs.Metrics.t
(** The cluster-wide metrics registry, always on.  Shared by the Manager,
    every Agent, Storage, the supervisor and Periodic; also carries
    collect-time gauges over the fabric, netfilter and per-node TCP stacks
    ([net.*]).  Snapshot with {!Zapc_obs.Metrics.to_json}. *)

val node : t -> int -> node
val node_count : t -> int
val now : t -> Simtime.t

(** {1 Node liveness}

    Bookkeeping used by the supervisor: which nodes are believed healthy and
    therefore valid targets for an automatic recovery. *)

val mark_node_dead : t -> int -> unit
val mark_node_alive : t -> int -> unit
val node_alive : t -> int -> bool

val alive_nodes : t -> int list
(** Indices of nodes still believed alive, ascending. *)

val reform_tree : t -> unit
(** Re-form the hierarchical control tree over the currently alive nodes:
    fresh uplink channels, new {!Relay}s (old ones retired), the Manager's
    children/routes replaced ({!Manager.set_tree}).  A no-op in flat mode
    ([Params.tree_fanout] = 0) or when the alive set is unchanged since the
    last formation.  The supervisor calls this the moment it declares a
    node dead — {e before} recovery — so restart commands never route
    through the dead hop. *)

val alloc_vip : t -> Addr.ip
(** Fresh virtual address (10.77.0.0/16 pool, disjoint from real subnets). *)

val alloc_rip : t -> int -> Addr.ip
(** Fresh real address on the given node (172.16.<node>.0/24). *)

val create_pod : t -> node_idx:int -> name:string -> Pod.t
(** Create an empty pod on a node, registered with its Agent and the
    Manager's pod-info cache. *)

val link_pods : Pod.t list -> unit
(** Install the application-wide virtual address map on a pod group. *)

val enable_trace : t -> Trace.t
(** Switch on the cluster-wide recorder and return it for
    rendering/assertions ({!Trace.render_checkpoint},
    {!Zapc_obs.Span.instants}).  {!make} creates it switched off and hands
    it to the Manager, every Agent and the shared storage; {!Periodic} and
    {!Supervisor} pick it up at start.  Idempotent. *)

val recorder : t -> Trace.t
(** The cluster-wide recorder, on or off. *)

val trace : t -> Trace.t option
(** The recorder once {!enable_trace} has switched it on, [None] before. *)

val enable_flight : ?cap:int -> ?dump_dir:string -> t -> Zapc_obs.Flight.t
(** Wire the flight recorder: bounded per-node rings fed by one
    {!Zapc_obs.Span.subscribe}r to the recorder — spans on their node's
    ring, instants on the manager ring (node [-1]) — and by the metric
    stream (manager ring too).  Trips into a JSON dump — to
    [dump_dir] when given, always retained as
    {!Zapc_obs.Flight.last_dump} — whenever a trace instant marks an
    operation failure ([op_failed:*]), an injected fault ([fault:*]), or a
    supervisor death declaration ([sup_detect:*]).  Enables tracing if not
    already on.  Idempotent like {!enable_trace}. *)

val flight : t -> Zapc_obs.Flight.t option

(** {1 Running the simulation} *)

val run : t -> ?until:Simtime.t -> ?max_events:int -> unit -> unit
(** Run the engine (see {!Zapc_sim.Engine.run}).  Virtual time never moves
    backward: [~until] an instant already past (say, one a synchronous
    checkpoint overran) runs nothing and leaves the clock where it is. *)

exception Timeout of string

val run_until : t -> ?timeout:Simtime.t -> (unit -> bool) -> unit
(** Advance until the predicate holds.
    @raise Timeout if the deadline passes or the simulation goes quiescent
    with the predicate still false. *)

val procs_exited : Proc.t list -> bool

(** {1 Synchronous wrappers over the Manager} *)

val checkpoint_sync :
  ?incremental:bool ->
  t -> items:Manager.ckpt_item list -> resume:bool -> Manager.op_result

val restart_sync : t -> items:Manager.restart_item list -> Manager.op_result

val snapshot :
  ?incremental:bool ->
  t -> pods:Pod.t list -> key_prefix:string -> Manager.op_result
(** Checkpoint all pods of an application to storage keys
    ["<prefix>.pod<id>"] and let them keep running.  [incremental] asks the
    Agents for delta images against their last stored snapshots (see
    {!Manager.checkpoint}). *)

val restart_app :
  t -> pod_ids:int list -> target_nodes:int list -> key_prefix:string -> Manager.op_result
(** Restart an application from storage onto the given nodes (same or
    different from the originals). *)

val restart_app_async :
  ?parent:int ->
  t ->
  pod_ids:int list ->
  target_nodes:int list ->
  key_prefix:string ->
  on_done:(Manager.op_result -> unit) ->
  unit
(** Like {!restart_app} but callback-based, for callers already running
    inside an engine event (the supervisor) where re-entering [Engine.run]
    is illegal.  [parent] links the restart's operation span under the
    caller's span (see {!Manager.restart}). *)

val migrate_sync :
  ?max_rounds:int ->
  ?dirty_threshold:float ->
  t -> pod:Pod.t -> dest_node:int -> Manager.op_result
(** Live-migrate one pod to [dest_node] (iterative pre-copy; see
    {!Manager.migrate}).  The source node is derived from the pod's real
    address.  Runs the engine until the operation completes. *)

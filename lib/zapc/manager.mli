(** The ZapC Manager: the front-end client that orchestrates coordinated
    checkpoint and restart (paper Figures 1 and 3).

    Checkpoint: broadcast 'checkpoint', gather the meta-data from every
    Agent, broadcast 'continue' (the protocol's single synchronization
    point), gather completion statuses.  Restart: merge the meta-data into a
    new connectivity map (substituting destination addresses), derive the
    connect/accept schedule, broadcast 'restart' with per-pod instructions,
    gather statuses.  A broken Agent channel aborts the operation on both
    sides and the application resumes.

    One operation runs at a time ({!busy}). *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Addr = Zapc_simnet.Addr
module Meta = Zapc_netckpt.Meta

type ckpt_item = {
  ci_node : int;
  ci_pod : int;
  ci_dest : Protocol.uri;
}
(** One <<node, pod, URI>> tuple of a checkpoint request. *)

type restart_item = {
  ri_node : int;  (** destination node (may differ from the original) *)
  ri_pod : int;
  ri_uri : Protocol.uri;
}

type op_result = {
  r_ok : bool;
  r_failure : Protocol.failure option;  (** [None] iff [r_ok] *)
  r_detail : string;  (** human-readable rendering of [r_failure] *)
  r_duration : Simtime.t;  (** invocation -> all Agents reported done *)
  r_stats : (int * Protocol.agent_stats) list;  (** per pod *)
  r_metas : Meta.pod_meta list;
}

type t

val create :
  ?metrics:Zapc_obs.Metrics.t ->
  engine:Engine.t ->
  params:Params.t ->
  storage:Storage.t ->
  trace:Trace.t ->
  alloc_rip:(int -> Addr.ip) ->
  unit ->
  t
(** [alloc_rip node] must yield a fresh real address on [node] (used to
    build the restart connectivity map before pods are created).
    [metrics] is the registry receiving [mgr.*], [ckpt.image_bytes] and
    [netckpt.bytes] instruments (a private one is created when omitted). *)

val metrics : t -> Zapc_obs.Metrics.t

val set_tree : t ->
  children:(int * Protocol.channel) list ->
  routes:(int * int) list ->
  edges:(int * Protocol.channel) list ->
  unit
(** (Re)install the control tree, the one topology every cluster has:
    [children] are the manager's direct children, [routes] maps every node
    to the direct child whose subtree contains it (children map to
    themselves), and [edges] maps every node to the channel its parent
    reaches it by ({!break_channel} and {!agent_channel} read it).
    Replaces any tree installed before; {!Cluster.reform_tree} calls this
    over the surviving nodes when one dies.  In a depth-1 tree (every route
    its own child: the paper's flat star) each command leaves unwrapped on
    its node's channel.  Otherwise every child is a {!Relay}: commands
    leave bundled per child ({!Protocol.to_agent.A_batch}) in one
    same-instant flush, and subtree reports arrive aggregated
    ({!Protocol.to_manager.M_batch}). *)

val remember_pod : t -> pod_id:int -> name:string -> vip:Addr.ip -> Meta.pod_meta -> unit
(** Seed the per-pod fact cache (updated by checkpoint meta reports); this
    is what allows restarting directly-streamed images whose bytes the
    Manager never sees. *)

val checkpoint :
  ?incremental:bool ->
  ?parent:int ->
  t -> items:ckpt_item list -> resume:bool -> on_done:(op_result -> unit) -> unit
(** [resume = true] takes a snapshot (pods continue afterwards);
    [resume = false] is the migration path (pods are destroyed and their
    images shipped to the URI destinations).  A [U_node] item commits when
    its destination Agent reports the image landed; if the item's source
    is lost after that report (the Manager waits 5 control latencies for
    a racing report, [mgr.mig_grace]), the item still succeeds and
    [mgr.mig.src_lost_after_commit] counts it.
    [incremental] (default false) lets each Agent write a delta against its
    last stored image for the pod; Agents fall back to a full image when no
    usable base exists or [Params.max_delta_chain] is reached.
    [parent] links the operation span under a caller-side span (Periodic's
    epoch, the Supervisor's recovery) in the causal trace.
    @raise Invalid_argument if an operation is already in progress. *)

val restart :
  ?kind:[ `Restart | `Mig_restore ] ->
  ?parent:int ->
  t -> items:restart_item list -> on_done:(op_result -> unit) -> unit
(** [kind] (default [`Restart]) only changes observability labels: a
    migration's phase B reports under [mgr.mig.restore.*] and the
    [mig_restore] span instead of the plain restart names.  [parent] as in
    {!checkpoint}. *)

val migrate_items :
  ?max_rounds:int ->
  ?parent:int ->
  t -> items:ckpt_item list -> on_done:(op_result -> unit) -> unit
(** Live-migrate a pod set under one synchronization point.  A migration
    is a composition with no state of its own: a {!checkpoint} of [items]
    (every [ci_dest] must be [Protocol.U_node]) with a pre-copy pre-phase,
    reported under [mgr.mig.copy.*], followed synchronously in the same
    callback by a {!restart} of the pods on their destinations, reported
    under [mgr.mig.restore.*]; both sit inside one [migrate] span and the
    whole operation reports [mgr.mig.ok/failed/duration_ms].  In the copy
    phase each pod keeps running while pre-copy rounds stream to its
    destination Agent; the suspend then ships only the dirty residue plus
    process/socket/netfilter state (the blackout), and the restart
    activates the prestaged copies.  Rounds stop once a round's dirty
    residue falls to 5% of the pod's full image, or after [max_rounds]
    (default 8); [max_rounds = 0] is exactly a whole-application [U_node]
    checkpoint followed by its restart.  Every [U_node] item commits when
    its destination reports the image landed: a failure before that aborts
    cleanly and the pod resumes at its source; after it the destination
    copy wins even if the source is lost.
    Only [test_zapc] migrates several pods at once; the other callers use
    {!migrate}.
    @raise Invalid_argument if an operation is already in progress or a
    destination is not [U_node]. *)

val migrate :
  ?max_rounds:int ->
  ?parent:int ->
  t ->
  pod:int ->
  src_node:int ->
  dest_node:int ->
  on_done:(op_result -> unit) ->
  unit
(** {!migrate_items} of the one pod [pod] from [src_node] to [dest_node]. *)

val set_on_migrated : t -> (pod:int -> src:int -> dest:int -> unit) -> unit
(** Install the handoff hook, fired on successful migration before the
    caller's [on_done]: watchers (the Supervisor) observe the pod's new
    home atomically with completion. *)

val busy : t -> bool
(** An operation is in progress.  A live migration's copy phase hands over
    to its restore phase within one engine callback, so the Manager is
    busy throughout. *)

val last_critpath : t -> (string * Zapc_obs.Critpath.report) option
(** The critical-path analysis of the most recent successful operation, as
    [(operation span name, report)] — also emitted per-op into the
    [mgr.critpath.*] metrics (a duration histogram per phase plus a
    [mgr.critpath.dominant.<phase>] counter).  [None] until a traced
    operation succeeds. *)

val break_channel : t -> node:int -> unit
(** Failure injection (tests/demos): sever one node's uplink, wherever its
    parent is; both sides abort gracefully per paper section 4. *)

val agent_channel : t -> node:int -> Protocol.channel option
(** One node's uplink: the channel its parent (the Manager or a relay)
    reaches it by, [None] outside the current tree (fault injection hooks
    in). *)

(** {1 Heartbeats (supervisor support)} *)

val ping : t -> node:int -> seq:int -> unit
(** Send a heartbeat probe to one Agent.  Probes to missing or broken
    channels are dropped silently — the resulting missing pong is what the
    supervisor counts as a missed beat. *)

val set_on_pong : t -> (node:int -> seq:int -> unit) -> unit
(** Install the heartbeat-reply sink; pongs are delivered here regardless of
    any operation in progress. *)

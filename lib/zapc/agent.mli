(** The ZapC Agent: one per cluster node; executes the node-local sides of
    the coordinated checkpoint (Figure 1) and restart (Figure 3) protocols.

    Checkpoint: suspend the pod and block its network, save the network
    state first, report the meta-data, run the standalone pod checkpoint
    {e without waiting}, and gate only the final unblock/resume on the
    Manager's 'continue'.  Restart: create an empty pod, re-establish
    connectivity with two concurrent tasks (acceptor + connector — no
    topology can deadlock), restore the network state, run the standalone
    restart, and let the pod resume without further delay.

    Commands arrive over the attached control channel, or directly through
    {!deliver}. *)

module Kernel = Zapc_simos.Kernel
module Fabric = Zapc_simnet.Fabric
module Pod = Zapc_pod.Pod

type t

val create :
  ?metrics:Zapc_obs.Metrics.t ->
  node:int -> params:Params.t -> storage:Storage.t -> trace:Trace.t ->
  fabric:Fabric.t -> Kernel.t -> t
(** [metrics] receives the [agent.*] counters (abort outcomes); a private
    registry is created when omitted.  [trace] records the phase
    boundaries and spans of this Agent's operations (Figure 2). *)

val attach_channel : t -> Protocol.channel -> unit
(** Wire the node's uplink; a broken channel aborts every in-flight
    operation and lets the applications resume (paper section 4).  A
    re-formed tree attaches a fresh uplink: commands still arriving on an
    earlier one are dropped. *)

val deliver : t -> Protocol.to_agent -> unit
(** Hand one command to this agent directly.  Hierarchical coordination
    wires the channel's down handler to a {!Relay}, which dispatches
    locally-addressed commands here after routing the rest.

    An [A_checkpoint] runs one pipeline: capture, choose the image, hand it
    to its sink, complete.  With [incremental] the image is a delta against
    the last image this Agent durably stored for the pod, when one is still
    resident in storage and the chain is shorter than
    [Params.max_delta_chain]; otherwise (and always for a [U_node] stream) a
    full image.  The sink is Storage for [U_storage] or the destination
    Agent for [U_node]; a stream lands there, and the destination commits
    it to the Manager ([M_migrate_done]), before the source destroys or
    resumes its pod, so a failed transfer leaves the pod running.  With
    [precopy] (a live migration's item) the checkpoint first runs pre-copy
    rounds while the pod keeps running — round 0 ships the full image, each
    later round a delta of the regions dirtied under the previous one —
    until the dirty residue falls to 5% of the full image or [precopy]
    rounds have run; the suspend then ships only the residue, and the
    destination activates a prestaged skeleton.  A command's [op] is the
    Manager's operation id: the done report echoes it and the Agent's
    local spans carry it; when tracing they parent under the command's
    [parent] span.  Stream images
    skip the compressor on both sides: only Storage compresses.

    An abort is idempotent: an aborted checkpoint unblocks the pod's
    network, resumes it and drops the op (one still in its pre-copy rounds
    never suspended the pod: the rounds stop and the pod keeps running); an
    aborted restart destroys the half-restored pod. *)

val set_peer_resolver : t -> (int -> t option) -> unit
(** How to reach other Agents.  Every image sent to another Agent — the
    announce and pre-copy rounds of a live migration and the final image
    of every [Protocol.U_node] item — travels through one peer transfer:
    control latency plus the bytes at fabric bandwidth, then a check that
    the destination Agent is up and connected.  An unreachable destination
    fails the checkpoint and the pod resumes on the source. *)

val register_pod : t -> Pod.t -> unit
val forget_pod : t -> int -> unit

val abort_all : t -> unit
(** Abort every checkpoint and restart in flight here, and drop every
    stream staged here whose final image has not landed (a landed image is
    committed and waits for its restart). *)

val node : t -> int

val live_pods : t -> Pod.t list
(** Every pod registered with this Agent, sorted by id (fault injection
    kills these on a node crash; the chaos harness audits them). *)

val busy : t -> bool
(** An in-flight checkpoint (pre-copy rounds included) or restart
    exists. *)

(** Tree sub-coordinator: one per node in a control tree deeper than one
    level (a depth-1 tree, the paper's flat star, has none).

    Downward it unpacks the {!Protocol.to_agent.A_batch} arriving on its
    uplink, hands locally-addressed commands to its {!Agent} and re-bundles
    the rest into one batch per child edge, through the same {!Fanout} the
    Manager runs at the root; upward it aggregates its subtree's reports —
    everything landing in the same engine instant — into one
    {!Protocol.to_manager.M_batch}.  The Manager thus pays its per-message
    cost ([Params.ctrl_proc]) per direct subtree instead of per node.

    Failure semantics: a broken child edge is reported up as
    {!Protocol.to_manager.M_subtree_down} (the root aborts as if its own
    channel to that node broke); a broken uplink severs the child edges, so
    the whole orphaned subtree aborts in-flight work and resumes its pods. *)

module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics

type t

val create :
  engine:Engine.t ->
  params:Params.t ->
  metrics:Metrics.t ->
  agent:Agent.t ->
  node:int ->
  parent:Protocol.channel ->
  children:(int * Protocol.channel) list ->
  routes:(int * int) list ->
  t
(** Install a relay over its node's uplink and child edges.  Must run
    {e after} [Agent.attach_channel agent parent]: the relay claims the
    uplink's down handler (routing local commands back through
    {!Agent.deliver}) while the agent's on-break abort, registered first,
    stays armed.  [routes] maps every strict descendant to the direct child
    whose subtree contains it (children map to themselves). *)

val close : t -> unit
(** Retire the relay (topology re-formed): it drops all subsequent traffic
    so stale in-flight frames on old edges cannot reach agents twice. *)

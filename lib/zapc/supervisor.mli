(** Self-healing supervisor: heartbeat failure detection and automatic
    recovery of a periodically-checkpointed application group.

    Probes the nodes hosting the group with A_ping every
    [Params.heartbeat_period]; after [Params.heartbeat_misses] consecutive
    unanswered beats a node is declared dead and the supervisor drives
    {!Periodic.recover_async} onto the surviving node set, retrying with
    capped exponential backoff and deterministic jitter up to
    [Params.recover_retries] times before giving up.  Detection, attempts,
    recovery and surrender are all recorded as trace instants
    ([sup_detect:node<i>], [sup_attempt:<k>], [sup_backoff:<ms>],
    [sup_recovered], [sup_giveup]), so availability is observable and the
    chaos harness can hook fault triggers onto them.

    The watch set is sticky: frozen at {!start} and refreshed only after a
    successful recovery, because a crashed node's pods die with it and a
    set recomputed from live pods would silently drop the node under
    suspicion. *)

module Simtime = Zapc_sim.Simtime

type state = Monitoring | Suspected | Recovering | Gave_up | Stopped

val state_to_string : state -> string

type t

val start : ?trace:Trace.t -> Cluster.t -> Periodic.t -> t
(** Begin monitoring the nodes currently hosting the service's pods.
    Installs itself as the Manager's pong sink.  Instants and the
    [sup_recover] span go to [trace], by default the cluster's recorder
    ({!Cluster.recorder}), which records once tracing is enabled. *)

val stop : t -> unit

val state : t -> state
val watched : t -> int list
(** The sticky node set currently under heartbeat watch. *)

val recoveries : t -> int
(** Completed automatic recoveries. *)

val total_attempts : t -> int
val gave_up : t -> bool

val last_detect : t -> Simtime.t option
(** Instant the most recent node death was declared. *)

val last_recovered : t -> Simtime.t option
(** Instant the most recent recovery completed (restart reported ok). *)

val events : t -> (Simtime.t * string) list
(** Chronological supervisor event log (detect/attempt/backoff/...). *)

(** Deterministic fault injection for the simulated ZapC cluster.

    An injector is bound to one {!Zapc.Cluster.t} and schedules faults at
    precise virtual instants or at protocol phase boundaries (observed
    through {!Zapc.Trace} events).  Everything is driven by the cluster's
    own seeded engine and RNG, so a scenario replays bit-identically from
    the same seed — a failing chaos run is a repro, not an anecdote.

    Supported faults mirror what the paper's failure model must survive:
    severed Manager<->Agent control connections (section 4's abort path),
    whole-node crashes, transient packet-loss bursts and latency spikes on
    the interconnect, shared-storage write outages, and hung (stalled but
    not disconnected) Agents — the case that needs the per-phase timeouts
    in {!Zapc.Manager} and {!Zapc.Agent} rather than the break handler. *)

module Simtime = Zapc_sim.Simtime
module Rng = Zapc_sim.Rng

type fault =
  | Break_channel of { node : int }
      (** Sever the Manager's control connection to one Agent. *)
  | Crash_node of { node : int }
      (** Power loss: kill every pod and process on the node, detach its
          addresses from the fabric, sever its control connection. *)
  | Hang_agent of { node : int; duration : Simtime.t option }
      (** Stall the Agent's control endpoint (messages buffer in both
          directions, nothing is lost); [Some d] heals after [d], [None]
          hangs until {!heal_all}.  The connection stays up, so only
          timeouts — never break handlers — can unstick the protocol. *)
  | Loss_burst of { prob : float; duration : Simtime.t }
      (** Raise the fabric's packet loss probability for a while. *)
  | Latency_spike of { latency : Simtime.t; duration : Simtime.t }
      (** Raise the fabric's one-way latency for a while (congestion). *)
  | Storage_outage of { duration : Simtime.t option }
      (** Every {!Zapc.Storage.put} fails; [None] lasts until {!heal_all}. *)
  | Replica_outage of { replica : int; duration : Simtime.t option }
      (** One replica of the store goes dark: writes skip it, reads fall
          back past it; [None] lasts until {!heal_all}. *)
  | Corrupt_image of { replica : int; key : string option }
      (** Silent bit rot: mutate the named image ([None] = every image) on
          one replica, keeping its stale checksum — only a verifying read
          notices and falls back to the next replica.  Permanent ({!heal_all}
          does not repair bytes). *)

type trigger =
  | Now  (** install time *)
  | At of Simtime.t  (** absolute virtual instant (clamped to now) *)
  | After of Simtime.t  (** relative to install time *)
  | On_phase of { phase : string; pod : int option; skip : int }
      (** When the [(skip+1)]-th matching instant is recorded: [phase]
          matches its [in_what], [pod] (if given) its [in_pod].  Each
          trigger is one {!Zapc_obs.Span.subscribe}r of the trace; phase
          names are the protocol instants, e.g. ["meta_sent"],
          ["suspended"], ["continue_broadcast"]. *)

type injection = {
  fault : fault;
  trigger : trigger;
}

val injection_to_string : injection -> string
(** Exported for [chaos], which prints a failing seed's plan. *)

type t

val create : ?trace:Zapc.Trace.t -> Zapc.Cluster.t -> t
(** Bind an injector to a cluster.  [trace] is the recorder whose instants
    drive {!On_phase} triggers and receive the [fault:*] instants; when
    omitted it is the cluster's, switched on with
    {!Zapc.Cluster.enable_trace}. *)

val trace : t -> Zapc.Trace.t

val install : t -> injection -> unit
(** Arm one injection.  [On_phase] triggers that never match simply never
    fire (they count as unfired, not as errors). *)

val install_all : t -> injection list -> unit
(** Exported for [chaos] and [golden], which install seeded random plans. *)

val fired : t -> (Simtime.t * string) list
(** Chronological log of faults actually injected. *)

val armed : t -> int
(** Number of installed injections that have not fired yet. *)

val heal_all : t -> unit
(** Undo every *ongoing* environmental fault: restore the fabric config,
    heal storage (global and per-replica outages), resume hung Agents.
    Crashed nodes, broken channels, and already-corrupted image bytes stay
    down — those are permanent by design.  Exported for [chaos] and
    [golden], which heal a scenario before checking it recovers. *)

val crashed_nodes : t -> int list
(** Exported for [chaos], whose cleanliness audit skips crashed nodes. *)

(** {1 Seeded random scenario generation}

    The generator draws from the injector's own RNG stream (split off the
    cluster engine's), so a scenario is a pure function of the seed. *)

val random_plan :
  Rng.t -> node_count:int -> horizon:Simtime.t -> count:int -> injection list
(** Exported for [chaos] and [golden], whose random scenarios it draws. *)

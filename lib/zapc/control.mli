(** Reliable control channels between the Manager and its Agents.

    The paper runs these over TCP connections kept open for the whole
    operation; the protocol needs ordered reliable delivery and prompt
    breakage detection, both modelled here: messages arrive after
    latency + size/bandwidth, and {!break} fires the failure callbacks on
    both sides so either party aborts gracefully (paper section 4). *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine

type ('up, 'down) t
(** ['up] flows to the Manager, ['down] to the Agent. *)

val create : engine:Engine.t -> latency:Simtime.t -> bps:float -> ('up, 'down) t
val set_up_handler : ('up, 'down) t -> ('up -> unit) -> unit
val set_down_handler : ('up, 'down) t -> ('down -> unit) -> unit
val on_break : ('up, 'down) t -> (unit -> unit) -> unit

val send_up : ('up, 'down) t -> bytes:int -> 'up -> unit
(** No-op on a broken channel; in-flight messages on a channel that breaks
    before delivery are dropped. *)

val send_down : ('up, 'down) t -> bytes:int -> 'down -> unit
val break : ('up, 'down) t -> unit
val is_broken : ('up, 'down) t -> bool

(** {1 Failure injection: a hung endpoint}

    Pausing models a hung or overloaded peer whose TCP connection stays
    healthy: messages keep arriving but queue up un-delivered, in both
    directions, until {!resume} (then they drain in order, Manager-bound
    first).  Unlike {!break}, no failure callback fires — detecting this
    condition is the job of the Manager's per-phase timeouts and the
    supervisor's heartbeats. *)

val pause : ('up, 'down) t -> unit
val resume : ('up, 'down) t -> unit

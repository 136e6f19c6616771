(** The cluster interconnect: delivers packets between registered addresses
    with a Gigabit-Ethernet-like cost model (per-hop latency, per-NIC
    serialization at a configured bandwidth, optional jitter and loss), and
    consults the {!Netfilter} rules on both egress and ingress — so a packet
    already in flight when a pod's network is blocked is dropped on arrival,
    exactly the in-flight-data semantics the paper relies on. *)

type config = {
  latency : Zapc_sim.Simtime.t;  (** one-way propagation + switching delay *)
  bandwidth_bps : float;         (** NIC line rate, bits per second *)
  jitter : Zapc_sim.Simtime.t;   (** max uniform extra delay *)
  loss_prob : float;             (** random loss rate (0 in cluster defaults) *)
}

val default_config : config
(** 1 GbE: 40 us latency, 1e9 bps, 5 us jitter, no loss. *)

type t

val create : ?config:config -> Zapc_sim.Engine.t -> t
val engine : t -> Zapc_sim.Engine.t
val netfilter : t -> Netfilter.t
val config : t -> config
val set_loss_prob : t -> float -> unit

val set_latency : t -> Zapc_sim.Simtime.t -> unit
(** Failure injection: change the one-way latency (congestion spikes). *)

val set_config : t -> config -> unit

val detach_node : t -> int -> unit
(** Failure injection: detach every address of a node at once (NIC detach /
    power loss); packets in flight to them are dropped on delivery. *)

val attach : t -> node:int -> Addr.ip -> (Packet.t -> unit) -> unit
(** Bind [ip] to a receive handler on [node]; all addresses of one node share
    that node's NIC for serialization. *)

val detach : t -> Addr.ip -> unit
val node_of_ip : t -> Addr.ip -> int option

val send : t -> Packet.t -> unit
(** Transmit; applies egress filtering, loss, NIC serialization and latency,
    then ingress filtering at delivery time. Packets to unattached addresses
    are dropped (a TCP SYN additionally triggers an RST reply so connectors
    fail fast). *)

val packets_delivered : t -> int
val bytes_delivered : t -> int
val packets_dropped : t -> int

(** The simulation analogue of Linux Netfilter as ZapC uses it: an Agent
    blocks all traffic to and from a pod's (real) addresses for the duration
    of a checkpoint, so the network state cannot change while being saved.
    Packets touching a blocked address are silently dropped in both
    directions; reliable protocols recover by retransmission once the block
    lifts (paper section 5: "in-flight data can be safely ignored"). *)

type t

val create : unit -> t
val block : t -> Addr.ip -> unit
val unblock : t -> Addr.ip -> unit

val blocked_count : t -> int
(** Number of block rules currently installed.  A quiescent cluster must
    have zero — any leftover rule is a leak of an aborted operation (the
    chaos harness asserts this after every scenario). *)

val permits : t -> Packet.t -> bool
(** Consulted by the fabric on both egress and ingress. *)

val drop_count : t -> int

(** The downward half of one control-tree coordinator, the Manager at the
    root or a {!Relay} on a node: its child edges, per-child command
    bundles and serial per-message CPU server.  Only engine labels and
    metric names differ between the two. *)

module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics

type t

val create :
  engine:Engine.t -> params:Params.t -> metrics:Metrics.t ->
  proc_label:string -> flush_label:string -> batches:string -> ?items:string ->
  unit -> t
(** [proc_label] and [flush_label] label the server's and the flush's
    engine events; each bundle sent bumps the counter [batches] and adds
    its command count to [items]. *)

val set_children : t -> bundle:bool -> (int * Protocol.channel) list -> unit
(** Replace the child edges and drop any bundle under assembly.  [bundle]:
    the children are relays fed {!Protocol.to_agent.A_batch} bundles;
    otherwise plain Agents fed each command unwrapped. *)

val send : t -> hop:int -> dst:int -> Protocol.to_agent -> unit
(** A command for node [dst] down the child edge [hop]; it vanishes when
    the edge is missing or broken.  Unbundled, it leaves at once through
    the server; bundled, it joins [hop]'s bundle, and all bundles leave in
    one flush in the current engine instant, in hop order. *)

val proc : t -> (unit -> unit) -> unit
(** Run [fn] on the serial server: [Params.ctrl_proc] after its backlog
    clears, or inline at zero cost.  Every message sent or received takes
    one slot. *)

val iter_children : t -> (int -> Protocol.channel -> unit) -> unit

val close : t -> unit
(** Retire the coordinator: pending and later bundles are dropped. *)

val closed : t -> bool

(** Periodic checkpoint service: the paper's fault-resilience use case as a
    reusable facility.

    Snapshots a pod group every [period] under rotating storage keys,
    remembers the last epoch that completed, prunes images older than [keep]
    epochs (and garbage-collects the partial images of a {e failed} epoch
    immediately), and can {!recover} the whole application from the last
    good epoch onto a new set of nodes.  Epochs that would overlap a running
    Manager operation — or whose pods cannot currently be resolved to a node
    — are skipped with a recorded reason, not queued. *)

module Simtime = Zapc_sim.Simtime
module Pod = Zapc_pod.Pod

type t

val start :
  ?incremental:bool ->
  Cluster.t ->
  pods:Pod.t list ->
  prefix:string ->
  period:Simtime.t ->
  ?keep:int ->
  unit ->
  t
(** Begin ticking; stops by itself once no pod of the group is alive.
    [incremental] (default false) asks for delta epochs: each Agent writes
    only the changes since its last stored image for the pod, and its chain
    cap ([Params.max_delta_chain]) — plus any base loss — forces a fresh
    full image automatically.  Recovery is unchanged: {!Storage.get}
    materializes chains transparently. *)

val stop : t -> unit
val stopped : t -> bool

val resume : t -> unit
(** Restart ticking after a recovery re-created the pod group (same pod
    ids, fresh incarnations — the service re-resolves pods by id).  No-op
    unless stopped. *)

val last_good : t -> int
(** Last epoch whose coordinated checkpoint completed (0 = none yet). *)

val completed : t -> int
val skipped : t -> int

val last_skip_reason : t -> string option
(** Why the most recent epoch was skipped (manager busy, unresolvable
    pod, ...); [None] if none was ever skipped.  Exported for [test_zapc],
    which checks the reason a busy Manager gives. *)

val pod_ids : t -> int list
val set_on_epoch : t -> (int -> Manager.op_result -> unit) -> unit

val recover : t -> target_nodes:int list -> Manager.op_result
(** Stop the service, destroy any surviving pods, restart from the last
    good epoch on [target_nodes]. *)

val recover_async :
  ?parent:int ->
  t -> target_nodes:int list -> on_done:(Manager.op_result -> unit) -> unit
(** Like {!recover} but callback-based, usable from inside engine events
    (the supervisor's context, where re-entering [Engine.run] is illegal).
    [parent] links the restart's operation span under the caller's span —
    the supervisor passes its [sup_recover] span so the whole recovery
    stitches into one causal tree. *)

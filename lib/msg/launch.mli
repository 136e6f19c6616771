(** Launching distributed MPI-style applications on a simulated cluster:
    one pod per application endpoint (plus a daemon, as on the paper's
    testbed), all pods linked into one virtual address space. *)

module Simtime = Zapc_sim.Simtime
module Proc = Zapc_simos.Proc
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager

type app = {
  name : string;
  pods : Pod.t list;
  ranks : Proc.t list;
  daemons : Proc.t list;
  vips : int array;
  port : int;  (** the ranks' listening port, the same for every app *)
  placement : int list;  (** node index per rank at launch *)
}

val launch :
  Cluster.t ->
  name:string ->
  program:string ->
  placement:int list ->
  app_args:Zapc_codec.Value.t ->
  unit ->
  app
(** Create one pod per rank on the given nodes, install the shared virtual
    address map, spawn the per-pod daemon and the rank processes with
    {!Mpi.std_args}. *)

val is_done : app -> bool

val completion_time : app -> Simtime.t
(** The instant the last rank exited (exact, independent of when the engine
    loop noticed). *)

val wait_done : Cluster.t -> ?timeout:Simtime.t -> app -> Simtime.t

val pod_ids : app -> int list

val checkpoint_items :
  app -> key_prefix:string -> node_of_pod:(Pod.t -> int) -> Manager.ckpt_item list
(** One [U_storage] item per pod, keyed [<key_prefix>.pod<id>].  Exported
    for [chaos] and [golden], which drive the Manager directly. *)

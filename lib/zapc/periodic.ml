(* Periodic checkpoint service: the paper's fault-resilience use case as a
   reusable facility.  Snapshots a set of pods every [period] under rotating
   storage keys, remembers the last epoch that completed successfully, and
   can recover the whole application from it onto a new set of nodes.

   Epochs that would overlap a still-running Manager operation are skipped
   (checkpoints must not queue up behind a slow one); old images beyond
   [keep] epochs are pruned from storage, and a *failed* epoch's partial
   images are garbage-collected right away so aborted checkpoints cannot
   leak storage. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Pod = Zapc_pod.Pod

type t = {
  cluster : Cluster.t;
  trace : Span.t;  (* the cluster's recorder *)
  pods : Pod.t list;  (* the original group; resolve by pod_id, records go
                         stale after a recovery re-creates the pods *)
  prefix : string;
  period : Simtime.t;
  keep : int;
  incremental : bool;  (* write delta epochs; the Agents' chain cap forces
                          a periodic full automatically *)
  mutable epoch : int;
  mutable last_good : int;
  mutable completed : int;
  mutable skipped : int;
  mutable last_skip_reason : string option;
  mutable stopped : bool;
  mutable on_epoch : int -> Manager.op_result -> unit;
}

let key t epoch = Printf.sprintf "%s.e%d" t.prefix epoch

let pod_ids t = List.map (fun (p : Pod.t) -> p.Pod.pod_id) t.pods

let pod_key t epoch pod_id = Printf.sprintf "%s.pod%d" (key t epoch) pod_id

(* Build the checkpoint items for one epoch, resolving each pod's current
   incarnation and node.  A pod that is gone or whose address is not on the
   fabric is a structured error — never a silent fallback to node 0. *)
let items_for t epoch =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (p : Pod.t) :: rest ->
      (match Pod.find p.pod_id with
       | None -> Error (Printf.sprintf "pod %d not found" p.pod_id)
       | Some live ->
         (match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric t.cluster) live.rip with
          | None ->
            Error
              (Printf.sprintf "pod %d: address not attached to any node" p.pod_id)
          | Some node ->
            go
              ({ Manager.ci_node = node; ci_pod = p.pod_id;
                 ci_dest = Protocol.U_storage (pod_key t epoch p.pod_id) }
               :: acc)
              rest))
  in
  go [] t.pods

let prune t epoch =
  if epoch > t.keep then begin
    let storage = Cluster.storage t.cluster in
    List.iter
      (fun pod_id -> Storage.remove storage (pod_key t (epoch - t.keep) pod_id))
      (pod_ids t)
  end

(* A failed epoch leaves partially written pod images behind (some Agents
   may have completed their put before the abort); drop them immediately. *)
let gc_failed_epoch t epoch =
  let storage = Cluster.storage t.cluster in
  List.iter (fun pod_id -> Storage.remove storage (pod_key t epoch pod_id)) (pod_ids t)

(* a useful epoch needs every pod of the application intact *)
let pods_alive t =
  List.for_all
    (fun (p : Pod.t) ->
      match Pod.find p.pod_id with
      | None -> false
      | Some live -> Pod.member_count live > 0)
    t.pods

let skip t reason =
  t.skipped <- t.skipped + 1;
  Metrics.incr (Cluster.metrics t.cluster) "periodic.epochs_skipped";
  t.last_skip_reason <- Some reason

(* Each epoch wraps the Manager operation in a [periodic_epoch] span, so
   the causal tree shows WHY the checkpoint ran (the service's clock, not a
   user request); the Manager's op span parents under it via [?parent]. *)
let epoch_span_begin t =
  (Span.begin_span t.trace ~time:(Engine.now (Cluster.engine t.cluster))
     ~pod:(-1) Zapc_obs.Phase.Periodic_epoch).Span.sp_id

let epoch_span_end t =
  ignore
    (Span.end_named t.trace ~time:(Engine.now (Cluster.engine t.cluster))
       ~pod:(-1) Zapc_obs.Phase.Periodic_epoch)

let rec tick t =
  Engine.schedule (Cluster.engine t.cluster) ~label:"periodic.tick"
    ~delay:t.period (fun () ->
      if not t.stopped then begin
        if not (pods_alive t) then t.stopped <- true
        else if Manager.busy (Cluster.manager t.cluster) then begin
          skip t "manager busy";
          tick t
        end
        else
          match items_for t (t.epoch + 1) with
          | Error reason ->
            (* unresolvable pod: skip this epoch rather than checkpointing
               onto a wrong node *)
            skip t reason;
            tick t
          | Ok items ->
            t.epoch <- t.epoch + 1;
            let epoch = t.epoch in
            let esp = epoch_span_begin t in
            Manager.checkpoint ~incremental:t.incremental
              ?parent:(Trace.parent_arg esp)
              (Cluster.manager t.cluster) ~items ~resume:true
              ~on_done:(fun r ->
                epoch_span_end t;
                if r.Manager.r_ok then begin
                  Metrics.incr (Cluster.metrics t.cluster)
                    "periodic.epochs_completed";
                  if not t.stopped then begin
                    t.last_good <- epoch;
                    t.completed <- t.completed + 1;
                    prune t epoch
                  end
                end
                else begin
                  Metrics.incr (Cluster.metrics t.cluster)
                    "periodic.epochs_failed";
                  gc_failed_epoch t epoch
                end;
                t.on_epoch epoch r);
            tick t
      end)

let start ?(incremental = false) cluster ~pods ~prefix ~period ?(keep = 2) () =
  let t =
    { cluster; trace = Cluster.recorder cluster; pods; prefix; period; keep;
      incremental; epoch = 0; last_good = 0; completed = 0;
      skipped = 0; last_skip_reason = None; stopped = false;
      on_epoch = (fun _ _ -> ()) }
  in
  tick t;
  t

let stop t = t.stopped <- true
let stopped t = t.stopped
let last_good t = t.last_good
let completed t = t.completed
let skipped t = t.skipped
let last_skip_reason t = t.last_skip_reason
let set_on_epoch t fn = t.on_epoch <- fn

(* Resume ticking after a recovery re-created the pod group (same pod ids,
   fresh incarnations resolved by [items_for]). *)
let resume t =
  if t.stopped then begin
    t.stopped <- false;
    tick t
  end

let no_snapshot_result =
  { Manager.r_ok = false;
    r_failure = Some (Protocol.F_missing_image "no completed snapshot");
    r_detail = "no completed snapshot"; r_duration = Simtime.zero;
    r_stats = []; r_metas = [] }

(* Tear down whatever survives of the group ahead of a restart.  The
   hosting Agent must drop its registration too: the restart may place the
   pod on a different node, and a stale entry would leave the old Agent
   listing (and willing to operate on) a pod that now lives elsewhere. *)
let destroy_survivors t =
  List.iter
    (fun pod_id ->
      match Pod.find pod_id with
      | Some pod ->
        (match
           Zapc_simnet.Fabric.node_of_ip (Cluster.fabric t.cluster) pod.Pod.rip
         with
         | Some node ->
           Agent.forget_pod (Cluster.node t.cluster node).Cluster.n_agent pod_id
         | None -> ());
        Pod.destroy pod
      | None -> ())
    (pod_ids t)

(* Recover the application from the last good epoch onto [target_nodes]
   (surviving pods are torn down first). *)
let recover t ~target_nodes =
  if t.last_good = 0 then no_snapshot_result
  else begin
    stop t;
    destroy_survivors t;
    Cluster.restart_app t.cluster ~pod_ids:(pod_ids t) ~target_nodes
      ~key_prefix:(key t t.last_good)
  end

(* Callback flavour for the supervisor, which runs inside engine events
   where the synchronous [recover] (it re-enters [Engine.run]) is illegal. *)
let recover_async ?parent t ~target_nodes ~on_done =
  if t.last_good = 0 then on_done no_snapshot_result
  else begin
    stop t;
    destroy_survivors t;
    Cluster.restart_app_async ?parent t.cluster ~pod_ids:(pod_ids t)
      ~target_nodes ~key_prefix:(key t t.last_good) ~on_done
  end

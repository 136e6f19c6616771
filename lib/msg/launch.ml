(* Launching a distributed MPI-style application on the simulated cluster:
   one pod per application endpoint (plus its daemon), all pods linked into
   one virtual address space. *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime
module Proc = Zapc_simos.Proc
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Protocol = Zapc.Protocol

type app = {
  name : string;
  pods : Pod.t list;
  ranks : Proc.t list;
  daemons : Proc.t list;
  vips : int array;
  port : int;
  placement : int list;  (* node index per rank at launch *)
}

let default_port = 5000

let launch cluster ~name ~program ~placement ~app_args () =
  let port = default_port in
  Daemon.register ();
  let size = List.length placement in
  let pods =
    List.mapi
      (fun r node ->
        Cluster.create_pod cluster ~node_idx:node ~name:(Printf.sprintf "%s-%d" name r))
      placement
  in
  Cluster.link_pods pods;
  let vips = Array.of_list (List.map (fun (p : Pod.t) -> p.vip) pods) in
  let daemons = List.map (fun pod -> Pod.spawn pod ~program:"mpd" ~args:Value.unit) pods in
  let ranks =
    List.mapi
      (fun rank pod ->
        Pod.spawn pod ~program ~args:(Mpi.std_args ~rank ~size ~vips ~port ~app:app_args))
      pods
  in
  { name; pods; ranks; daemons; vips; port; placement }

let is_done app = List.for_all (fun (p : Proc.t) -> p.Proc.exit_code <> None) app.ranks

(* The instant the last rank exited (exact, independent of when the engine
   loop noticed). *)
let completion_time app =
  List.fold_left
    (fun acc (p : Proc.t) ->
      match p.Proc.exit_time with Some t -> Simtime.max acc t | None -> acc)
    Simtime.zero app.ranks

(* Run until every rank has exited; returns the completion (virtual) time. *)
let wait_done cluster ?(timeout = Simtime.sec 36000.0) app =
  Cluster.run_until cluster ~timeout (fun () -> is_done app);
  completion_time app

let pod_ids app = List.map (fun (p : Pod.t) -> p.pod_id) app.pods

let checkpoint_items app ~key_prefix ~node_of_pod =
  List.map
    (fun (p : Pod.t) ->
      { Manager.ci_node = node_of_pod p; ci_pod = p.pod_id;
        ci_dest = Protocol.U_storage (Printf.sprintf "%s.pod%d" key_prefix p.pod_id) })
    app.pods

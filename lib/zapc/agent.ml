(* The ZapC Agent: one per cluster node.

   Executes the node-local sides of the coordinated checkpoint (Figure 1)
   and restart (Figure 3) protocols.  Checkpoint: suspend the pod and block
   its network, save the network state first, report the meta-data, run the
   standalone pod checkpoint without waiting, and only gate the final
   unblock/resume on the Manager's 'continue' — the protocol's single
   synchronization point.  Restart: create an empty pod, re-establish the
   network connectivity with two concurrent tasks (acceptor + connector, so
   no ordering can deadlock), restore the network state, then run the
   standalone restart and let the pod resume immediately. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Socket = Zapc_simnet.Socket
module Netstack = Zapc_simnet.Netstack
module Tcp = Zapc_simnet.Tcp
module Netfilter = Zapc_simnet.Netfilter
module Fabric = Zapc_simnet.Fabric
module Errno = Zapc_simnet.Errno
module Kernel = Zapc_simos.Kernel
module Pod = Zapc_pod.Pod
module Namespace = Zapc_pod.Namespace
module Meta = Zapc_netckpt.Meta
module Sock_state = Zapc_netckpt.Sock_state
module Net_ckpt = Zapc_netckpt.Net_ckpt
module Pod_ckpt = Zapc_ckpt.Pod_ckpt
module Image = Zapc_ckpt.Image
module Delta = Zapc_ckpt.Delta

let src = Logs.Src.create "zapc.agent" ~doc:"ZapC agent"

module Log = (val Logs.src_log src : Logs.LOG)

(* The live pre-copy pre-phase of a migration's checkpoint: the pod keeps
   RUNNING while rounds are captured (non-destructive Peek) and shipped to
   the destination; only the final stop-and-copy suspends it. *)
type precopy = {
  pc_dest : int;
  pc_cap : int;  (* round cap *)
  mutable pc_running : bool;  (* rounds in flight: the pod was never suspended *)
  mutable pc_round : int;  (* next round number; 0 ships the full image *)
  mutable pc_last : Value.t option;  (* newest full capture shipped (delta base) *)
  mutable pc_full_bytes : int;  (* logical size of the round-0 full image *)
  mutable pc_bytes : int;  (* bytes shipped before the stop-and-copy *)
  mutable pc_forced : bool;  (* round cap hit without converging *)
  mutable pc_suspend : Simtime.t;  (* blackout start: the final suspend *)
}

type ckpt_op = {
  co_pod : Pod.t;
  co_dest : Protocol.uri;
  co_resume : bool;
  co_incremental : bool;
  co_precopy : precopy option;  (* Some: a live migration's item *)
  co_op : int;  (* manager operation id, echoed in the done report *)
  mutable co_parent : int option;
  (* parent of this op's pod_ckpt and blackout spans: the manager's span,
     or the mig_precopy span once pre-copy rounds run *)
  mutable co_span : int;  (* id of this op's "pod_ckpt" span, -1 when untraced *)
  co_started : Simtime.t;
  mutable co_continue : bool;
  mutable co_standalone_done : bool;
  mutable co_result : Pod_ckpt.checkpoint_result option;
  mutable co_delta : Image.t option;  (* the delta actually written, if any *)
  mutable co_net_time : Simtime.t;
  mutable co_finalizing : bool;
  mutable co_aborted : bool;
}

(* What incremental checkpointing chains against: the key and materialized
   value of the last image this Agent durably stored for a pod, plus the
   delta count since the last full image (capped by Params.max_delta_chain). *)
type delta_cache = {
  dc_key : string;
  dc_image : Value.t;  (* full pod image at that instant (deltas diff against it) *)
  dc_chain : int;
}

(* Destination side of a [U_node] stream: what has landed for one pod.  A
   live migration's announce prestages a pod skeleton (the [restore_fixed]
   work, overlapped with the rounds) and its rounds build the image up while
   the source keeps running; the final image — full, or a residue delta
   onto the staged rounds — makes the entry restartable. *)
type landing = {
  mutable ld_image : Value.t option;  (* full pod image materialized so far *)
  ld_final : bool;  (* the final image landed: a restart may use it *)
  ld_residue : int;  (* logical bytes of the final image *)
  ld_blackout : Simtime.t option;  (* a migration's source suspend instant *)
  ld_skeleton : bool ref option;  (* prestaged skeleton; true once ready *)
}

type restore_op = {
  ro_pod : Pod.t;
  ro_landing : landing option;  (* a [U_node] restart's landed image *)
  ro_image : Value.t;
  ro_entries : Meta.restart_entry list;
  ro_extra_altq : (int * string) list;
  ro_skip_sendq : bool;
  ro_sock_imgs : Sock_state.image array;
  ro_my_meta : Meta.pod_meta;
  ro_sockets : (int, Socket.t) Hashtbl.t;  (* sock_ref -> live socket *)
  ro_op : int;  (* manager operation id, echoed in the done report *)
  ro_span : int;  (* id of this op's "pod_restart" span, -1 when untraced *)
  ro_started : Simtime.t;
  mutable ro_conn_started : Simtime.t;
  mutable ro_conn_done : Simtime.t;
  mutable ro_net_done : Simtime.t;
  mutable ro_pending_conns : int;
  mutable ro_temp_listeners : Socket.t list;
  mutable ro_aborted : bool;
}

type t = {
  node : int;
  kernel : Kernel.t;
  fabric : Fabric.t;
  engine : Engine.t;
  params : Params.t;
  storage : Storage.t;
  mutable chan : Protocol.channel option;
  pods : (int, Pod.t) Hashtbl.t;
  landings : (int, landing) Hashtbl.t;  (* U_node images landed or staged here *)
  deltas : (int, delta_cache) Hashtbl.t;  (* pod -> incremental base *)
  ckpts : (int, ckpt_op) Hashtbl.t;
  restores : (int, restore_op) Hashtbl.t;
  rng : Zapc_sim.Rng.t;
  metrics : Metrics.t;
  trace : Span.t;  (* the cluster's recorder *)
  mutable peer_agents : (int -> t option);  (* resolve agents for streaming *)
}

let create ?metrics ~node ~params ~storage ~trace ~fabric kernel =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    node;
    kernel;
    fabric;
    engine = Kernel.engine kernel;
    params;
    storage;
    chan = None;
    pods = Hashtbl.create 4;
    landings = Hashtbl.create 4;
    deltas = Hashtbl.create 4;
    ckpts = Hashtbl.create 4;
    restores = Hashtbl.create 4;
    rng = Zapc_sim.Rng.split (Engine.rng (Kernel.engine kernel));
    metrics;
    trace;
    peer_agents = (fun _ -> None);
  }

(* The [enabled] guards keep an off recorder allocation-free: passing
   [~node] to the recorder's optional argument would box it on every call. *)
let trace t ~pod what =
  if Span.enabled t.trace then
    Span.instant t.trace ~node:t.node ~time:(Engine.now t.engine) ~pod what

(* Typed phase spans on this agent's (node, pod) track; the standalone
   span overlapping the manager's sync span is the Figure-2 picture.
   [op]/[parent] stitch the span into the cross-node causal tree: the
   operation id and parent span id arrive in the command's [op] and
   [parent] and are threaded through the op records below. *)
let span_begin_id t ?op ?parent ~pod name =
  if Span.enabled t.trace then
    (Span.begin_span t.trace ~time:(Engine.now t.engine) ?op ~node:t.node
       ?parent ~pod name).Span.sp_id
  else -1

let span_begin t ?op ?parent ~pod name = ignore (span_begin_id t ?op ?parent ~pod name)

let span_end t ~pod name =
  ignore (Span.end_named t.trace ~time:(Engine.now t.engine) ~pod name)

let span_end_all t ~pod =
  Span.end_all_for_pod t.trace ~time:(Engine.now t.engine) ~pod

let register_pod t pod = Hashtbl.replace t.pods pod.Pod.pod_id pod

let forget_pod t pod_id =
  Hashtbl.remove t.pods pod_id;
  Hashtbl.remove t.deltas pod_id
let find_pod t pod_id = Hashtbl.find_opt t.pods pod_id

let send_to_manager t msg =
  match t.chan with
  | Some ch -> Control.send_up ch ~bytes:(Protocol.to_manager_bytes msg) msg
  | None -> ()

let report_failure t ~op pod_id detail =
  send_to_manager t
    (Protocol.M_done
       { node = t.node; pod_id; op; ok = false; detail; stats = Protocol.zero_stats })

let after t delay fn = Engine.schedule t.engine ~label:"agent.after" ~delay fn
let nf t = Fabric.netfilter t.fabric

(* Agent-side costs carry uniform jitter (background load, cache state);
   the paper's checkpoint-time std-devs are 10-60% of the average. *)
let jittered t cost =
  let j = t.params.cost_jitter in
  if j <= 0.0 then cost
  else
    let f = 1.0 +. Zapc_sim.Rng.float t.rng (2.0 *. j) -. j in
    Simtime.ns (int_of_float (float_of_int cost *. f))

(* The success report of one finished operation: its agent-side timing,
   measured from [started], and the sizes it moved. *)
let report_done t ~op pod_id ~started ~net_time ?(conn_time = Simtime.zero)
    ~image_bytes ?(full_bytes = 0) ?(net_bytes = 0) ~sockets ~procs () =
  let stats =
    { Protocol.st_net_time = net_time;
      st_local_time = Simtime.sub (Engine.now t.engine) started;
      st_conn_time = conn_time;
      st_image_bytes = image_bytes;
      st_full_bytes = full_bytes;
      st_net_bytes = net_bytes;
      st_sockets = sockets;
      st_procs = procs }
  in
  send_to_manager t
    (Protocol.M_done { node = t.node; pod_id; op; ok = true; detail = ""; stats })

(* The Agent on [node] when it can take image bytes: a crashed Agent, or
   one cut off from the Manager, receives nothing. *)
let reachable t node =
  match t.peer_agents node with
  | Some p when (match p.chan with Some ch -> not (Control.is_broken ch) | None -> false) ->
    Some p
  | Some _ | None -> None

(* Peer transfer, the one way image bytes travel between Agents: after
   [prep] (the local capture) plus one control latency plus [bytes] at
   fabric bandwidth, [arrive] gets the destination Agent, or None when it is
   unreachable.  Nothing lands once [live ()] turns false. *)
let ship t ~dest ?(prep = Simtime.zero) ~bytes ~live arrive =
  after t
    (Simtime.add prep
       (Simtime.add t.params.ctrl_latency
          (Params.copy_time ~bps:t.params.fabric.bandwidth_bps bytes)))
    (fun () -> if live () then arrive (reachable t dest))

(* Base key for migration residue deltas: never stored, the destination
   applies them onto its staged image immediately. *)
let mig_base_key pod_id = Printf.sprintf "mig:pod%d" pod_id

(* Pre-copy has converged once a round's dirty residue falls to this
   fraction of the pod's full image. *)
let mig_dirty_threshold = 0.05

(* Suspending a pod installs its netfilter block rules in this time. *)
let netfilter_cost = Simtime.us 30

(* Creating the empty pod a restart fills. *)
let pod_create_cost = Simtime.ms 2

(* Virtual-CPU (de)compression throughput, bytes/s. *)
let compress_bps = 450e6

(* ------------------------------------------------------------------ *)
(* Abort paths (Manager failure / explicit abort / timeouts)           *)
(* ------------------------------------------------------------------ *)

(* Every abort is idempotent: a second call (say an explicit A_abort after
   a channel break already cleaned up) finds nothing and does nothing. *)

(* A checkpoint still in its pre-copy rounds never suspended the pod: the
   rounds just stop and the pod keeps running. *)
let abort_checkpoint t pod_id =
  match Hashtbl.find_opt t.ckpts pod_id with
  | None -> ()
  | Some op ->
    op.co_aborted <- true;
    (match op.co_precopy with
     | Some pc when pc.pc_running -> ()
     | Some _ | None ->
       Netfilter.unblock (nf t) op.co_pod.rip;
       Pod.resume op.co_pod;
       Metrics.incr t.metrics "agent.ckpt_aborted";
       trace t ~pod:pod_id "ckpt_aborted");
    if op.co_precopy <> None then begin
      Metrics.incr t.metrics "agent.mig_aborted";
      trace t ~pod:pod_id "mig_aborted"
    end;
    span_end_all t ~pod:pod_id;
    Hashtbl.remove t.ckpts pod_id

(* A [U_node] restart never waits for its image (the stream lands before
   its checkpoint completes, and a restart that finds no image fails at
   once), so there is nothing to drop but the half-restored pod. *)
let abort_restart t pod_id =
  match Hashtbl.find_opt t.restores pod_id with
  | None -> ()
  | Some op ->
    op.ro_aborted <- true;
    Pod.destroy op.ro_pod;
    forget_pod t pod_id;
    Metrics.incr t.metrics "agent.restart_aborted";
    trace t ~pod:pod_id "restart_aborted";
    span_end_all t ~pod:pod_id;
    Hashtbl.remove t.restores pod_id

(* Destination: the entry of a stream still staging here, if any. *)
let staged t pod_id =
  match Hashtbl.find_opt t.landings pod_id with
  | Some ld when not ld.ld_final -> Some ld
  | Some _ | None -> None

(* Drop what a stream staged here before its final image landed.  A landed
   image is committed and waits for its restart. *)
let drop_staged t pod_id =
  if staged t pod_id <> None then begin
    Hashtbl.remove t.landings pod_id;
    trace t ~pod:pod_id "mig_stage_dropped"
  end

let abort_all t =
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.iter (abort_checkpoint t) (keys t.ckpts);
  List.iter (drop_staged t) (List.sort Int.compare (keys t.landings));
  List.iter (abort_restart t) (keys t.restores)

(* ------------------------------------------------------------------ *)
(* Checkpoint (Figure 1, Agent side)                                   *)
(* ------------------------------------------------------------------ *)

let rec start_checkpoint ?(incremental = false) ?precopy ?parent t ~op:op_id ~pod_id ~dest
    ~resume =
  match find_pod t pod_id, dest with
  | None, _ -> report_failure t ~op:op_id pod_id "no such pod"
  | Some pod, _ when Pod.member_count pod = 0 ->
    (* a pod whose processes have all died has nothing consistent to save;
       refusing keeps a coordinated checkpoint from recording a partially
       dead application as a good recovery point *)
    report_failure t ~op:op_id pod_id "pod has no live processes"
  | Some _, Protocol.U_node n when t.peer_agents n = None ->
    report_failure t ~op:op_id pod_id (Printf.sprintf "no agent on node %d" n)
  | Some pod, _ ->
    let precopy =
      match precopy, dest with
      | Some cap, Protocol.U_node n ->
        Some
          { pc_dest = n; pc_cap = cap; pc_running = cap > 0; pc_round = 0;
            pc_last = None; pc_full_bytes = 0; pc_bytes = 0; pc_forced = false;
            pc_suspend = Simtime.zero }
      | Some _, Protocol.U_storage _ | None, _ -> None
    in
    let op =
      { co_pod = pod; co_dest = dest; co_resume = resume; co_incremental = incremental;
        co_precopy = precopy; co_op = op_id; co_parent = parent; co_span = -1;
        co_started = Engine.now t.engine;
        co_continue = false; co_standalone_done = false; co_result = None;
        co_delta = None;
        co_net_time = Simtime.zero; co_finalizing = false; co_aborted = false }
    in
    Hashtbl.replace t.ckpts pod_id op;
    match precopy with
    | Some pc ->
      Metrics.incr t.metrics "agent.mig_started";
      trace t ~pod:pod_id "mig_start";
      if pc.pc_running then begin
        op.co_parent <-
          Trace.parent_arg (span_begin_id t ~op:op_id ?parent ~pod:pod_id "mig_precopy");
        (* announce the migration to the destination right away: the pod
           skeleton build (the [restore_fixed] work) overlaps the rounds *)
        ship t ~dest:pc.pc_dest ~bytes:0 ~live:(fun () -> not op.co_aborted) (function
          | Some peer -> receive_announce peer ~pod_id
          | None -> ());
        precopy_round t op pc
      end
      else suspend t op
    | None -> suspend t op

(* One pre-copy round: capture the RUNNING pod (the non-destructive Peek —
   the proper read-inject extraction would drain queues the application is
   about to read), ship the full image (round 0) or a delta of the regions
   dirtied during the previous round, then decide: converged, forced, or
   another round.  The pod keeps dirtying memory under the copy; that is
   what the next round picks up. *)
and precopy_round t op pc =
  if not op.co_aborted then begin
    let pod = op.co_pod in
    let round = pc.pc_round in
    let t0 = Engine.now t.engine in
    let res = Pod_ckpt.checkpoint ~mode:Sock_state.Peek pod in
    let dirty_snap = Pod_ckpt.snapshot_memory_dirty pod in
    let image =
      match round, pc.pc_last with
      | 0, _ | _, None ->
        pc.pc_full_bytes <- Pod_ckpt.logical_size res;
        Image.of_pod_image res.image
      | _, Some base ->
        Image.of_pod_image
          (Delta.make ~base_key:(mig_base_key pod.pod_id) ~base ~full:res.image
             ~dirty_bytes:dirty_snap)
    in
    pc.pc_last <- Some res.image;
    let bytes = image.Image.logical_size in
    (* capture at memory bandwidth, then stream over the fabric *)
    let prep = jittered t (Params.copy_time ~bps:t.params.mem_bw bytes) in
    ship t ~dest:pc.pc_dest ~prep ~bytes ~live:(fun () -> not op.co_aborted)
      (fun peer ->
        (match peer with
         | Some peer -> receive_round peer ~pod_id:pod.pod_id ~round image
         | None -> ());
        pc.pc_bytes <- pc.pc_bytes + bytes;
        pc.pc_round <- round + 1;
        let dirty_now = Pod_ckpt.dirty_memory_bytes pod in
        trace t ~pod:pod.pod_id "mig_round";
        send_to_manager t
          (Protocol.M_migrate_round
             { node = t.node; pod_id = pod.pod_id;
               stats =
                 { Protocol.mg_round = round; mg_bytes = bytes;
                   mg_dirty = dirty_now;
                   mg_duration = Simtime.sub (Engine.now t.engine) t0 } });
        if op.co_aborted then ()  (* the trace can inject faults *)
        else if
          float_of_int dirty_now <= mig_dirty_threshold *. float_of_int pc.pc_full_bytes
        then stop_precopy t op pc "mig_converged"
        else if pc.pc_round >= pc.pc_cap then begin
          pc.pc_forced <- true;
          stop_precopy t op pc "mig_forced"
        end
        else precopy_round t op pc)
  end

(* The convergence policy said stop: the final stop-and-copy is the
   ordinary coordinated checkpoint (suspend, net-ckpt, meta to the
   Manager, continue, standalone, residue stream + handoff). *)
and stop_precopy t op pc why =
  trace t ~pod:op.co_pod.pod_id why;
  span_end t ~pod:op.co_pod.pod_id "mig_precopy";
  pc.pc_running <- false;
  suspend t op

(* step 1: suspend the pod, block its network *)
and suspend t op =
  let pod = op.co_pod in
  op.co_span <- span_begin_id t ~op:op.co_op ?parent:op.co_parent ~pod:pod.pod_id "pod_ckpt";
  span_begin t ~op:op.co_op ?parent:(Trace.parent_arg op.co_span) ~pod:pod.pod_id
    "suspend";
  let suspend_cost =
    Simtime.add
      (Params.scale t.params.kconfig.signal_cost (Pod.member_count pod))
      netfilter_cost
  in
  after t suspend_cost (fun () ->
      if not op.co_aborted then begin
        Pod.suspend pod;
        Netfilter.block (nf t) pod.rip;
        span_end t ~pod:pod.pod_id "suspend";
        (* the network-blocked window: the application downtime story *)
        span_begin t ~op:op.co_op ?parent:(Trace.parent_arg op.co_span)
          ~pod:pod.pod_id "paused";
        (match op.co_precopy with
         | Some pc ->
           (* the migration blackout starts here and only ends when the
              destination Agent resumes the pod, which is also who closes
              the span (Trace matches open spans by name and pod) *)
           pc.pc_suspend <- Engine.now t.engine;
           span_begin t ~op:op.co_op ?parent:op.co_parent ~pod:pod.pod_id "blackout";
           trace t ~pod:pod.pod_id "mig_blackout"
         | None -> ());
        trace t ~pod:pod.pod_id "suspended";
        ckpt_network t op
      end)

(* step 2: network-state checkpoint; 2a: report meta-data *)
and ckpt_network t op =
  span_begin t ~op:op.co_op ?parent:(Trace.parent_arg op.co_span)
    ~pod:op.co_pod.pod_id "net_ckpt";
  let t0 = Engine.now t.engine in
  let mode = if t.params.peek_mode then Sock_state.Peek else Sock_state.Read_inject in
  let net = Net_ckpt.checkpoint ~mode op.co_pod in
  let cost =
    jittered t
      (Simtime.add t.params.net_ckpt_fixed
         (Simtime.add
            (Params.scale t.params.per_socket_ckpt net.socket_count)
            (Params.copy_time ~bps:t.params.mem_bw net.image_bytes)))
  in
  after t cost (fun () ->
      if not op.co_aborted then begin
        op.co_net_time <- Simtime.sub (Engine.now t.engine) t0;
        span_end t ~pod:op.co_pod.pod_id "net_ckpt";
        trace t ~pod:op.co_pod.pod_id "net_ckpt_done";
        send_to_manager t
          (Protocol.M_meta
             { node = t.node; pod_id = op.co_pod.pod_id; meta = net.meta;
               meta_bytes = Meta.size_bytes net.meta });
        trace t ~pod:op.co_pod.pod_id "meta_sent";
        arm_continue_timeout t op;
        if t.params.serial_ckpt then
          (* ablation: wait for 'continue' before the standalone checkpoint *)
          wait_continue_then t op (fun () -> ckpt_standalone t op net)
        else ckpt_standalone t op net
      end)

(* The meta-data is out; if the Manager's 'continue' never arrives (hung
   Manager, or a control channel that is stalled without being broken) the
   pod must not stay suspended forever.  Abort our side and let it resume;
   the failure report is best-effort — the Manager may be gone. *)
and arm_continue_timeout t op =
  if Simtime.compare t.params.phase_timeout Simtime.zero > 0 then
    after t t.params.phase_timeout (fun () ->
        match Hashtbl.find_opt t.ckpts op.co_pod.pod_id with
        | Some op' when op' == op && (not op.co_continue) && not op.co_aborted ->
          abort_checkpoint t op.co_pod.pod_id;
          report_failure t ~op:op.co_op op.co_pod.pod_id "timed out waiting for continue"
        | Some _ | None -> ())

and wait_continue_then t op fn =
  if op.co_continue then fn ()
  else after t (Simtime.us 50) (fun () -> if not op.co_aborted then wait_continue_then t op fn)

(* A delta is only worth (and only safe) writing when chaining to storage
   and the base this Agent remembers for the pod is still resident there;
   the chain cap is what periodically forces a fresh full image — or, on a
   live migration's final stop-and-copy, when the destination already holds
   the last pre-copy round: the residue diffs against it. *)
and choose_delta t op (res : Pod_ckpt.checkpoint_result) =
  let delta ~base_key ~base =
    let dirty_bytes = Pod_ckpt.dirty_memory_bytes op.co_pod in
    Some (Image.of_pod_image (Delta.make ~base_key ~base ~full:res.image ~dirty_bytes))
  in
  match op.co_precopy, op.co_dest with
  | Some { pc_last = Some base; _ }, _ ->
    delta ~base_key:(mig_base_key op.co_pod.pod_id) ~base
  | Some { pc_last = None; _ }, _ -> None  (* round cap 0: plain stop-and-copy *)
  | None, Protocol.U_node _ -> None  (* a whole-application stream is full *)
  | None, Protocol.U_storage _ when not op.co_incremental -> None
  | None, Protocol.U_storage _ ->
    (match Hashtbl.find_opt t.deltas op.co_pod.pod_id with
     | Some c when c.dc_chain < t.params.max_delta_chain && Storage.mem t.storage c.dc_key ->
       delta ~base_key:c.dc_key ~base:c.dc_image
     | Some _ | None -> None)

(* step 3: standalone pod checkpoint, overlapped with the Manager sync *)
and ckpt_standalone t op net =
  span_begin t ~op:op.co_op ?parent:(Trace.parent_arg op.co_span)
    ~pod:op.co_pod.pod_id "standalone";
  let mode = if t.params.peek_mode then Sock_state.Peek else Sock_state.Read_inject in
  let res = Pod_ckpt.checkpoint ~mode ~net op.co_pod in
  op.co_delta <- choose_delta t op res;
  (* the copy cost scales with what will actually be written: only the
     dirty regions and changed processes of a delta *)
  let write_bytes =
    match op.co_delta with
    | Some d -> d.Image.logical_size
    | None -> Pod_ckpt.logical_size res
  in
  (* a migration's final stop after pre-copy rounds already enumerated the
     kernel objects: only the dirty-residue scan remains *)
  let fixed =
    match op.co_precopy with
    | Some { pc_last = Some _; _ } -> t.params.mig_stop_fixed
    | Some { pc_last = None; _ } | None -> t.params.ckpt_fixed
  in
  (* the compressor is a virtual-CPU stage of the storage pipeline: every
     byte written to storage passes through it at compress_bps (the stored
     bytes shrink; the checkpoint pays the CPU time).  A [U_node] stream
     never passes through Storage and ships its logical bytes. *)
  let compress_cost =
    match op.co_dest with
    | Protocol.U_storage _ when t.params.compress ->
      Params.copy_time ~bps:compress_bps write_bytes
    | Protocol.U_storage _ | Protocol.U_node _ -> Simtime.zero
  in
  let cost =
    jittered t
      (Simtime.add fixed
         (Simtime.add compress_cost
            (Simtime.add
               (Params.scale t.params.per_proc_ckpt res.proc_count)
               (Params.copy_time ~bps:t.params.mem_bw write_bytes))))
  in
  after t cost (fun () ->
      if not op.co_aborted then begin
        op.co_result <- Some res;
        op.co_standalone_done <- true;
        span_end t ~pod:op.co_pod.pod_id "standalone";
        trace t ~pod:op.co_pod.pod_id "standalone_done";
        maybe_finalize_ckpt t op
      end)

(* steps 3a/4/4a: unblock and finish only after the standalone checkpoint is
   done AND the Manager's 'continue' has arrived (the single sync point) *)
and maybe_finalize_ckpt t op =
  if op.co_standalone_done && op.co_continue && (not op.co_finalizing)
     && not op.co_aborted
  then begin
    op.co_finalizing <- true;
    (* optional file-system snapshot, taken "immediately prior to
       reactivating the pod" (paper section 4): copy the pod's subtree on
       the shared store; its cost extends the pause *)
    let fs_delay =
      if not t.params.fs_snapshot then Simtime.zero
      else begin
        let key =
          match op.co_dest with
          | Protocol.U_storage k -> k
          | Protocol.U_node n -> Printf.sprintf "stream-node%d.pod%d" n op.co_pod.pod_id
        in
        let copied =
          Zapc_simos.Simfs.snapshot_subtree (Kernel.fs t.kernel)
            ~src_prefix:(Pod.fs_root op.co_pod)
            ~dst_prefix:("/snapshots/" ^ key)
        in
        Params.copy_time ~bps:t.params.storage_bps copied
      end
    in
    after t fs_delay (fun () -> finalize_ckpt t op)
  end

(* One pipeline for every checkpoint: choose the image (full, storage
   delta or migration residue), hand it to its sink — Storage for
   [U_storage], the destination Agent for [U_node] — and complete.  A
   stream lands on the destination, which commits it with M_migrate_done,
   before the source destroys or resumes its copy, so an abort or an
   unreachable destination anywhere before that leaves the pod running on
   the source: no lost-pod window, no split brain. *)
and finalize_ckpt t op =
  if not op.co_aborted then begin
    let pod = op.co_pod in
    let res = Option.get op.co_result in
    let image =
      match op.co_delta with
      | Some d -> d
      | None -> Image.of_pod_image res.image
    in
    match op.co_dest with
    | Protocol.U_storage key ->
      release_network t pod;
      complete_ckpt t op res image
        (Storage.put ~op:op.co_op ?parent:(Trace.parent_arg op.co_span)
           ~node:t.node t.storage key image
         |> Result.map_error (Printf.sprintf "storage write failed: %s"))
    | Protocol.U_node dest ->
      let live () = not op.co_aborted in
      if op.co_precopy <> None then trace t ~pod:pod.pod_id "mig_residue";
      if live () then  (* the trace can inject faults *)
        ship t ~dest ~bytes:image.Image.logical_size ~live (fun peer ->
            if
              match peer with
              | Some peer -> land_image peer ~pod_id:pod.pod_id ~image op.co_precopy
              | None -> false
            then begin
              release_network t pod;
              complete_ckpt t op res image (Ok ())
            end
            else
              complete_ckpt t op res image
                (Error "migration stream failed: destination unreachable"))
  end

and release_network t pod =
  Netfilter.unblock (nf t) pod.rip;
  span_end t ~pod:pod.pod_id "paused"

and complete_ckpt t op res image outcome =
  let pod = op.co_pod in
  match outcome with
  | Error reason ->
    (* the image went nowhere: the pod must survive, whatever [resume] *)
    Netfilter.unblock (nf t) pod.rip;
    Pod.resume pod;
    trace t ~pod:pod.pod_id "resumed";
    span_end_all t ~pod:pod.pod_id;
    Hashtbl.remove t.ckpts pod.pod_id;
    report_failure t ~op:op.co_op pod.pod_id reason
  | Ok () ->
    (* remember the durably stored image as the base for the next delta,
       and reset dirty tracking — everything written so far is now safe *)
    (match op.co_dest with
     | Protocol.U_storage key when op.co_resume ->
       let chain =
         match op.co_delta, Hashtbl.find_opt t.deltas pod.pod_id with
         | Some _, Some c -> c.dc_chain + 1
         | _ -> 0
       in
       Hashtbl.replace t.deltas pod.pod_id
         { dc_key = key; dc_image = res.image; dc_chain = chain };
       Pod_ckpt.clear_memory_dirty pod;
       Metrics.incr t.metrics
         (if op.co_delta <> None then "agent.delta_ckpts" else "agent.full_ckpts")
     | Protocol.U_storage _ | Protocol.U_node _ -> ());
    (if op.co_resume then begin
       Pod.resume pod;
       trace t ~pod:pod.pod_id "resumed"
     end
     else begin
       Pod.destroy pod;
       forget_pod t pod.pod_id;
       if op.co_precopy = None then trace t ~pod:pod.pod_id "destroyed"
     end);
    span_end t ~pod:pod.pod_id "pod_ckpt";
    Hashtbl.remove t.ckpts pod.pod_id;
    if op.co_precopy <> None then trace t ~pod:pod.pod_id "mig_handoff";
    report_done t ~op:op.co_op pod.pod_id ~started:op.co_started ~net_time:op.co_net_time
      ~image_bytes:image.Image.logical_size
      ?full_bytes:(Option.map (fun _ -> Pod_ckpt.logical_size res) op.co_delta)
      ~net_bytes:res.net_result.image_bytes ~sockets:res.net_result.socket_count
      ~procs:res.proc_count ()

(* ------------------------------------------------------------------ *)
(* Destination side of a U_node stream                                 *)
(* ------------------------------------------------------------------ *)

(* A migration was announced.  Start building the pod skeleton (the
   [restore_fixed] work: image validation scaffolding, kernel-object
   re-creation) immediately so it overlaps the source's pre-copy rounds;
   the activation after the final stop-and-copy then only pays
   [mig_resume_fixed] plus the residue copy. *)
and receive_announce t ~pod_id =
  let flag = ref false in
  Hashtbl.replace t.landings pod_id
    { ld_image = None; ld_final = false; ld_residue = 0; ld_blackout = None;
      ld_skeleton = Some flag };
  trace t ~pod:pod_id "mig_skeleton";
  after t (jittered t t.params.restore_fixed) (fun () ->
      match Hashtbl.find_opt t.landings pod_id with
      | Some { ld_skeleton = Some f; _ } when f == flag ->
        f := true;
        trace t ~pod:pod_id "mig_prestaged"
      | Some _ | None -> ())

(* One pre-copy round landed.  Round 0 stages the full image; later rounds
   fold their deltas into the staged image.  The memory preload needs no
   extra delay of its own: the write-back proceeds as the bytes arrive, and
   memory bandwidth exceeds the fabric's. *)
and receive_round t ~pod_id ~round (image : Image.t) =
  let v = Image.to_pod_image image in
  match staged t pod_id, round with
  | Some ld, 0 -> ld.ld_image <- Some v
  | None, 0 ->
    Hashtbl.replace t.landings pod_id
      { ld_image = Some v; ld_final = false; ld_residue = 0; ld_blackout = None;
        ld_skeleton = None }
  | Some ({ ld_image = Some base; _ } as ld), _ -> ld.ld_image <- Some (Delta.apply ~base v)
  | Some _, _ | None, _ -> ()  (* stage dropped by an abort; ignore the stray round *)

(* The final image of a [U_node] item landed.  Materialize it (a residue
   delta applies onto the staged rounds, whose skeleton it keeps), make it
   restartable, and COMMIT by telling the Manager: from here on the
   destination copy wins even if the source dies before its own
   done-report gets out.  False when an abort already dropped the stage
   the residue needs. *)
and land_image t ~pod_id ~(image : Image.t) precopy =
  let v = Image.to_pod_image image in
  let stage = staged t pod_id in
  let full =
    if not (Delta.is_delta v) then Some v
    else Option.map (fun base -> Delta.apply ~base v) (Option.bind stage (fun ld -> ld.ld_image))
  in
  match full with
  | None ->
    trace t ~pod:pod_id "mig_residue_dropped";
    false
  | Some full ->
    Hashtbl.replace t.landings pod_id
      { ld_image = Some full; ld_final = true; ld_residue = image.Image.logical_size;
        ld_blackout = Option.map (fun pc -> pc.pc_suspend) precopy;
        ld_skeleton = Option.bind stage (fun ld -> ld.ld_skeleton) };
    let rounds, precopy_bytes, forced =
      match precopy with
      | Some pc ->
        trace t ~pod:pod_id "mig_final_staged";
        (pc.pc_round, pc.pc_bytes, pc.pc_forced)
      | None -> (0, 0, false)
    in
    send_to_manager t
      (Protocol.M_migrate_done { node = t.node; pod_id; rounds; precopy_bytes; forced });
    true

(* ------------------------------------------------------------------ *)
(* Restart (Figure 3, Agent side)                                      *)
(* ------------------------------------------------------------------ *)

and start_restart ?parent t ~op:op_id ~pod_id ~name ~vip ~rip ~uri ~entries ~vip_map
    ~extra_altq ~skip_sendq =
  (* a streamed image lands before its source reports done, so a restart
     that finds none here has nothing to wait for; the restoring Agent is
     a stored image's last reader, so it takes the key's memoized read *)
  let image =
    match uri with
    | Protocol.U_storage key ->
      Option.to_result ~none:("no image at " ^ key)
        (Option.map (fun v -> (v, None)) (Storage.take t.storage key))
    | Protocol.U_node _ ->
      (match Hashtbl.find_opt t.landings pod_id with
       | Some ({ ld_final = true; ld_image = Some v; _ } as ld) -> Ok (v, Some ld)
       | Some _ | None -> Error "no streamed image landed on this node")
  in
  match image with
  | Error detail -> report_failure t ~op:op_id pod_id detail
  | Ok (image_v, landing) ->
    let top = span_begin_id t ~op:op_id ?parent ~pod:pod_id "pod_restart" in
    span_begin t ~op:op_id ?parent:(Trace.parent_arg top) ~pod:pod_id
      "pod_create";
    after t pod_create_cost (fun () ->
        (* step 1: create a new (empty) pod *)
        let pod = Pod.create ~pod_id ~name ~vip ~rip t.kernel in
        (* [vip_map] covers only the restored set; saved connections may
           also reference application pods outside it, so the live pods'
           bindings follow it (first match wins, new bindings shadow) *)
        Pod.restore_vip_map pod vip_map;
        register_pod t pod;
        let op =
          {
            ro_pod = pod;
            ro_landing = landing;
            ro_image = image_v;
            ro_entries = entries;
            ro_extra_altq = extra_altq;
            ro_skip_sendq = skip_sendq;
            ro_sock_imgs = Pod_ckpt.sockets_of_image image_v;
            ro_my_meta = Pod_ckpt.meta_of_image image_v;
            ro_sockets = Hashtbl.create 8;
            ro_op = op_id;
            ro_span = top;
            ro_started = Engine.now t.engine;
            ro_conn_started = Engine.now t.engine;
            ro_conn_done = Engine.now t.engine;
            ro_net_done = Engine.now t.engine;
            ro_pending_conns = 0;
            ro_temp_listeners = [];
            ro_aborted = false;
          }
        in
        Hashtbl.replace t.restores pod_id op;
        span_end t ~pod:pod_id "pod_create";
        trace t ~pod:pod_id "pod_created";
        span_begin t ~op:op.ro_op ?parent:(Trace.parent_arg op.ro_span)
          ~pod:pod_id "conn_recovery";
        restore_connectivity t op)

(* step 2: recover network connectivity — listeners first, then the two
   concurrent tasks.  All addresses here are real (translated through the
   pod's freshly installed namespace map). *)
and restore_connectivity t op =
  let pod = op.ro_pod in
  let ns = pod.Pod.ns in
  let net = Kernel.netstack t.kernel in
  op.ro_conn_started <- Engine.now t.engine;
  (* restore listening sockets (they also serve the acceptor task) *)
  Array.iteri
    (fun i (im : Sock_state.image) ->
      match im.hl with
      | `Listener backlog ->
        let s = Netstack.new_socket net Socket.Stream in
        s.src_hint <- Some pod.rip;
        Sock_state.restore_options s im;
        let local = Namespace.translate_addr_out ns (Option.get im.local) in
        let local =
          if Addr.equal_ip local.ip Addr.any then { local with Addr.ip = pod.rip }
          else local
        in
        (match Netstack.bind net s local with
         | Ok () -> ignore (Netstack.listen net s (Stdlib.max 1 backlog))
         | Error e ->
           Log.err (fun m -> m "restart: bind listener failed: %s" (Errno.to_string e)));
        Hashtbl.replace op.ro_sockets i s
      | `Conn _ | `Plain -> ())
    op.ro_sock_imgs;
  (* split the schedule *)
  let conn_entries =
    List.filter (fun (e : Meta.restart_entry) -> not e.ri_orphan) op.ro_entries
  in
  op.ro_pending_conns <- List.length conn_entries;
  let accepts, connects =
    List.partition (fun (e : Meta.restart_entry) -> e.ri_role = Meta.Accept) conn_entries
  in
  if op.ro_pending_conns = 0 then connectivity_done t op
  else begin
    run_acceptor_task t op accepts;
    run_connector_task t op connects
  end

and conn_established t op (e : Meta.restart_entry) (s : Socket.t) =
  Hashtbl.replace op.ro_sockets e.ri_sock_ref s;
  op.ro_pending_conns <- op.ro_pending_conns - 1;
  if op.ro_pending_conns = 0 && not op.ro_aborted then connectivity_done t op

(* One thread of execution handles incoming connection requests... *)
and run_acceptor_task t op accepts =
  if accepts <> [] then begin
    let pod = op.ro_pod in
    let ns = pod.Pod.ns in
    let net = Kernel.netstack t.kernel in
    (* group expected peers by local port; reuse restored app listeners when
       they exist, otherwise create temporary ones *)
    let by_port = Hashtbl.create 4 in
    List.iter
      (fun (e : Meta.restart_entry) ->
        let l = Hashtbl.find_opt by_port e.ri_local.port in
        Hashtbl.replace by_port e.ri_local.port (e :: Option.value l ~default:[]))
      accepts;
    (* index the restored listeners by port once (mass restores bring
       thousands of sockets; a per-port scan over all of them is O(n^2)) *)
    let listeners_by_port = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ (s : Socket.t) ->
        if Socket.is_listening s then
          match s.local with
          | Some l when not (Hashtbl.mem listeners_by_port l.port) ->
            Hashtbl.replace listeners_by_port l.port s
          | Some _ | None -> ())
      op.ro_sockets;
    Hashtbl.iter
      (fun port entries ->
        let listener =
          match Hashtbl.find_opt listeners_by_port port with
          | Some s -> s
          | None ->
            let s = Netstack.new_socket net Socket.Stream in
            s.src_hint <- Some pod.rip;
            (match Netstack.bind net s { Addr.ip = pod.rip; port } with
             | Ok () -> ignore (Netstack.listen net s 64)
             | Error e ->
               Log.err (fun m ->
                   m "restart: temp listener bind failed: %s" (Errno.to_string e)));
            op.ro_temp_listeners <- s :: op.ro_temp_listeners;
            s
        in
        let expected = ref entries in
        (* the argument is the id of the wait queue that ran it *)
        let rec pump (_ : int) =
          if (not op.ro_aborted) && !expected <> [] then
            match Netstack.accept_take listener with
            | Some child ->
              let remote = Option.get child.Socket.remote in
              (match
                 List.partition
                   (fun (e : Meta.restart_entry) ->
                     let want = Namespace.translate_addr_out ns e.ri_remote in
                     Addr.equal want remote)
                   !expected
               with
               | matched :: _, rest ->
                 expected := rest;
                 child.born_by_accept <- true;
                 conn_established t op matched child
               | [], _ ->
                 (* unexpected connection during recovery: drop it *)
                 Netstack.close net child);
              pump Zapc_simnet.Waitq.no_id
            | None -> Socket.wait_readable listener pump
        in
        pump Zapc_simnet.Waitq.no_id)
      by_port
  end

(* ...and the other establishes connections to remote pods (with retry:
   the peer Agent may not have its listeners up yet). *)
and run_connector_task t op connects =
  let pod = op.ro_pod in
  let ns = pod.Pod.ns in
  let net = Kernel.netstack t.kernel in
  let connect_one (e : Meta.restart_entry) =
    let dst = Namespace.translate_addr_out ns e.ri_remote in
    let rec attempt tries =
      if (not op.ro_aborted) && tries < 200 then begin
        let s = Netstack.new_socket net Socket.Stream in
        s.src_hint <- Some pod.rip;
        (* preserve the original source port (paper section 4) *)
        let local = { Addr.ip = pod.rip; port = e.ri_local.port } in
        match Netstack.bind net s local with
        | Error _ -> after t (Simtime.ms 5) (fun () -> attempt (tries + 1))
        | Ok () ->
          (match Netstack.connect_start net s dst with
           | Error _ -> after t (Simtime.ms 5) (fun () -> attempt (tries + 1))
           | Ok () ->
             let rec check (_ : int) =
               if not op.ro_aborted then
                 match s.tcb with
                 | Some tcb ->
                   (match tcb.st with
                    | Socket.St_established ->
                      s.born_by_accept <- false;
                      conn_established t op e s
                    | Socket.St_syn_sent | Socket.St_syn_received ->
                      Socket.wait_writable s check
                    | Socket.St_closed ->
                      Netstack.close net s;
                      after t (Simtime.ms 10) (fun () -> attempt (tries + 1))
                    | Socket.St_listen | Socket.St_fin_wait_1 | Socket.St_fin_wait_2
                    | Socket.St_close_wait | Socket.St_closing | Socket.St_last_ack
                    | Socket.St_time_wait -> Socket.wait_writable s check)
                 | None -> ()
             in
             check Zapc_simnet.Waitq.no_id)
      end
      else if not op.ro_aborted then begin
        op.ro_aborted <- true;
        report_failure t ~op:op.ro_op pod.Pod.pod_id "connection recovery failed"
      end
    in
    attempt 0
  in
  List.iter connect_one connects

and connectivity_done t op =
  op.ro_conn_done <- Engine.now t.engine;
  span_end t ~pod:op.ro_pod.pod_id "conn_recovery";
  trace t ~pod:op.ro_pod.pod_id "conns_recovered";
  span_begin t ~op:op.ro_op ?parent:(Trace.parent_arg op.ro_span)
    ~pod:op.ro_pod.pod_id "net_restore";
  (* retire temporary listeners *)
  let net = Kernel.netstack t.kernel in
  List.iter (fun s -> Netstack.close net s) op.ro_temp_listeners;
  op.ro_temp_listeners <- [];
  restore_network_state t op

(* step 3: restore the network state of every socket *)
and restore_network_state t op =
  let pod = op.ro_pod in
  let ns = pod.Pod.ns in
  let net = Kernel.netstack t.kernel in
  (* own-meta entries indexed by sock_ref: the restore loops below do one
     lookup per socket, and mass restores carry thousands of them *)
  let my_entries = Hashtbl.create (List.length op.ro_my_meta.pm_entries) in
  List.iter
    (fun (e : Meta.entry) -> Hashtbl.replace my_entries e.sock_ref e)
    op.ro_my_meta.pm_entries;
  let acked_of ref_ =
    match Hashtbl.find_opt my_entries ref_ with Some e -> e.Meta.acked | None -> 0
  in
  let bytes = ref 0 in
  (* established connections *)
  List.iter
    (fun (e : Meta.restart_entry) ->
      if not e.ri_orphan then
        match Hashtbl.find_opt op.ro_sockets e.ri_sock_ref with
        | None -> ()
        | Some s ->
          let im = op.ro_sock_imgs.(e.ri_sock_ref) in
          let send_data =
            if op.ro_skip_sendq then ""
            else
              Sock_state.trim_overlap ~acked:(acked_of e.ri_sock_ref)
                ~peer_recv:e.ri_peer_recv im.send_data
          in
          bytes := !bytes + String.length im.recv_data + String.length send_data;
          Sock_state.restore_connection s im ~send_data
      else begin
        (* orphan: peer endpoint is gone; restore detached with its data *)
        let s = Netstack.new_socket net Socket.Stream in
        let im = op.ro_sock_imgs.(e.ri_sock_ref) in
        bytes := !bytes + String.length im.recv_data;
        Sock_state.restore_orphan s im;
        Hashtbl.replace op.ro_sockets e.ri_sock_ref s
      end)
    op.ro_entries;
  (* redirected peer send-queues are appended to the alternate queue *)
  List.iter
    (fun (ref_, data) ->
      match Hashtbl.find_opt op.ro_sockets ref_ with
      | Some s ->
        bytes := !bytes + String.length data;
        Socket.append_altqueue s data
      | None -> ())
    op.ro_extra_altq;
  (* datagram/raw sockets, connecting sockets, accept-queue re-insertion *)
  Array.iteri
    (fun i (im : Sock_state.image) ->
      match im.hl with
      | `Plain when im.kind <> Socket.Stream ->
        let s = Netstack.new_socket net im.kind in
        s.src_hint <- Some pod.rip;
        (match im.local with
         | Some l ->
           let real = Namespace.translate_addr_out ns l in
           let real =
             if Addr.equal_ip real.ip Addr.any then { real with Addr.ip = pod.rip }
             else real
           in
           ignore (Netstack.bind net s real)
         | None -> ());
        (match im.remote with
         | Some r -> ignore (Netstack.connect_start net s (Namespace.translate_addr_out ns r))
         | None -> ());
        Sock_state.restore_dgrams ~ns s im;
        bytes := !bytes + Sock_state.bytes_saved im;
        Hashtbl.replace op.ro_sockets i s
      | `Plain ->
        (* unconnected stream socket *)
        let s = Netstack.new_socket net Socket.Stream in
        s.src_hint <- Some pod.rip;
        Sock_state.restore_options s im;
        Hashtbl.replace op.ro_sockets i s
      | `Conn Meta.Connecting ->
        let restored_half_open =
          (* a SYN-queued child of a restored listener: rebuild it half-open
             so the peer's pending ACK (or retransmitted SYN, or first data
             segment) completes the handshake after the restart *)
          match Option.bind im.syn_child_of (Hashtbl.find_opt op.ro_sockets) with
          | Some listener when Socket.is_listening listener ->
            (match (Hashtbl.find_opt my_entries i, im.local, im.remote) with
             | Some e, Some l, Some r when e.Meta.sent > 0 && e.Meta.recv > 0 ->
               let s = Netstack.new_socket net Socket.Stream in
               s.src_hint <- Some pod.rip;
               Sock_state.restore_options s im;
               let local = Namespace.translate_addr_out ns l in
               let local =
                 if Addr.equal_ip local.ip Addr.any then { local with Addr.ip = pod.rip }
                 else local
               in
               s.Socket.local <- Some local;
               s.Socket.remote <- Some (Namespace.translate_addr_out ns r);
               s.Socket.parent <- Some listener;
               s.Socket.born_by_accept <- true;
               listener.Socket.pending_children <- listener.Socket.pending_children + 1;
               Socket.synq_add listener s;
               Tcp.restore_syn_received s ~iss:(e.Meta.sent - 1) ~irs:(e.Meta.recv - 1);
               Metrics.incr t.metrics "net.synq_restored";
               Hashtbl.replace op.ro_sockets i s;
               true
             | _ -> false)
          | Some _ | None -> false
        in
        if not restored_half_open then begin
          (* transient connection: the blocked connect re-executes on resume *)
          let s = Netstack.new_socket net Socket.Stream in
          s.src_hint <- Some pod.rip;
          Sock_state.restore_options s im;
          Hashtbl.replace op.ro_sockets i s
        end
      | `Conn _ | `Listener _ -> ())
    op.ro_sock_imgs;
  (* re-insert never-accepted connections into their listener's queue *)
  Array.iteri
    (fun i (im : Sock_state.image) ->
      match im.queued_on with
      | Some li ->
        (match (Hashtbl.find_opt op.ro_sockets i, Hashtbl.find_opt op.ro_sockets li) with
         | Some child, Some listener ->
           (* accept reports the peer: a child rebuilt without a connection
              (its peer is outside the restored set) keeps its saved ends *)
           if child.Socket.remote = None then begin
             child.Socket.local <- Option.map (Namespace.translate_addr_out ns) im.local;
             child.Socket.remote <- Option.map (Namespace.translate_addr_out ns) im.remote
           end;
           Queue.add child listener.accept_q;
           Socket.wake_readers listener
         | _ -> ())
      | None -> ())
    op.ro_sock_imgs;
  let cost =
    jittered t
      (Simtime.add t.params.net_restore_fixed
         (Simtime.add
            (Params.scale t.params.per_socket_restore (Array.length op.ro_sock_imgs))
            (Params.copy_time ~bps:t.params.mem_bw !bytes)))
  in
  after t cost (fun () ->
      if not op.ro_aborted then begin
        op.ro_net_done <- Engine.now t.engine;
        span_end t ~pod:op.ro_pod.pod_id "net_restore";
        trace t ~pod:op.ro_pod.pod_id "net_restored";
        span_begin t ~op:op.ro_op ?parent:(Trace.parent_arg op.ro_span)
          ~pod:op.ro_pod.pod_id "standalone_restore";
        restore_standalone t op
      end)

(* step 4: standalone restart, then resume without further delay.  A live
   migration whose announce prestaged this pod's skeleton skips the fixed
   restore cost and the full-image copy: only the residue still has to be
   applied.  A skeleton build still in flight is waited out — the remainder
   of that build is the blackout's cost, never a second full restore. *)
and restore_standalone t op =
  let skeleton = Option.bind op.ro_landing (fun ld -> ld.ld_skeleton) in
  match skeleton with
  | Some ready when not !ready ->
    after t (Simtime.us 250) (fun () ->
        if not op.ro_aborted then restore_standalone t op)
  | _ ->
  let pod = op.ro_pod in
  let socket_of_ref i = Hashtbl.find_opt op.ro_sockets i in
  let procs = Pod_ckpt.restore_processes pod op.ro_image ~socket_of_ref in
  let mem_bytes = Pod_ckpt.memory_bytes_of_image op.ro_image in
  let image_bytes = Zapc_codec.Wire.encoded_size op.ro_image + mem_bytes in
  let cost =
    match op.ro_landing, skeleton with
    | Some ld, Some _ ->
      jittered t
        (Simtime.add t.params.mig_resume_fixed
           (Simtime.add
              (Params.scale t.params.per_proc_restore (List.length procs))
              (Params.copy_time ~bps:t.params.mem_bw ld.ld_residue)))
    | Some _, None | None, _ ->
      (* a storage-path restore of a compressed image pays the decompressor
         (streams travel uncompressed and skip it) *)
      let decompress_cost =
        if t.params.compress && op.ro_landing = None then
          Params.copy_time ~bps:compress_bps image_bytes
        else Simtime.zero
      in
      jittered t
        (Simtime.add t.params.restore_fixed
           (Simtime.add decompress_cost
              (Simtime.add
                 (Params.scale t.params.per_proc_restore (List.length procs))
                 (Params.copy_time ~bps:t.params.mem_bw image_bytes))))
  in
  after t cost (fun () ->
      if not op.ro_aborted then begin
        Pod.resume pod;
        (* gratuitous ARP: the vip now lives at this pod's new rip — update
           every live namespace so pods outside the restored set (clients!)
           can reach it with NEW connections, not just recovered ones *)
        Pod.rebind_vip ~vip:pod.vip ~rip:pod.rip;
        Metrics.incr t.metrics "net.vip_rebound";
        span_end t ~pod:pod.pod_id "standalone_restore";
        span_end t ~pod:pod.pod_id "pod_restart";
        trace t ~pod:pod.pod_id "restart_resumed";
        (match op.ro_landing with
         | Some ld ->
           Hashtbl.remove t.landings pod.pod_id;
           (match ld.ld_blackout with
            | Some suspend_at ->
              (* end of the migration blackout: the span was opened by the
                 source Agent at the final suspend *)
              Metrics.observe t.metrics "mig.blackout_ms"
                (Simtime.to_ms (Simtime.sub (Engine.now t.engine) suspend_at));
              span_end t ~pod:pod.pod_id "blackout";
              trace t ~pod:pod.pod_id "mig_activated"
            | None -> ())
         | None -> ());
        Hashtbl.remove t.restores pod.pod_id;
        report_done t ~op:op.ro_op pod.pod_id ~started:op.ro_started
          ~net_time:(Simtime.sub op.ro_net_done op.ro_conn_done)
          ~conn_time:(Simtime.sub op.ro_conn_done op.ro_conn_started)
          ~image_bytes ~sockets:(Array.length op.ro_sock_imgs)
          ~procs:(List.length procs) ()
      end)

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let rec handle_command t (msg : Protocol.to_agent) =
  match msg with
  | Protocol.A_batch items ->
    (* bundles go to relays, which unwrap them; one reaching the agent
       directly carries only local items *)
    List.iter (fun (_, m) -> handle_command t m) items
  | Protocol.A_checkpoint { pod_id; dest; resume; incremental; precopy; op; parent } ->
    start_checkpoint ~incremental ?precopy ?parent t ~op ~pod_id ~dest ~resume
  | Protocol.A_continue { pod_id } ->
    (match Hashtbl.find_opt t.ckpts pod_id with
     | Some op ->
       op.co_continue <- true;
       trace t ~pod:pod_id "continue_received";
       maybe_finalize_ckpt t op
     | None -> ())
  | Protocol.A_abort { pod_id } ->
    abort_checkpoint t pod_id;
    drop_staged t pod_id;
    abort_restart t pod_id
  | Protocol.A_restart { pod_id; name; vip; rip; uri; entries; vip_map; extra_altq;
                         skip_sendq; op; parent } ->
    start_restart ?parent t ~op ~pod_id ~name ~vip ~rip ~uri ~entries ~vip_map ~extra_altq
      ~skip_sendq
  | Protocol.A_ping { seq } ->
    (* heartbeat: answer immediately, even mid-operation — only a dead,
       hung, or disconnected Agent misses a beat *)
    send_to_manager t (Protocol.M_pong { node = t.node; seq })

let attach_channel t (ch : Protocol.channel) =
  t.chan <- Some ch;
  (* a re-formed tree leaves old edges behind: traffic still in flight on
     one of them is stale and must not reach this agent *)
  Control.set_down_handler ch (fun msg ->
      match t.chan with Some cur when cur == ch -> handle_command t msg | _ -> ());
  (* a broken Manager connection aborts every in-flight operation and lets
     the application resume (paper section 4) *)
  Control.on_break ch (fun () -> abort_all t)

(* Hand a command to this agent directly — the entry point a tree
   sub-coordinator ({!Relay}) uses after claiming the channel's down
   handler for routing. *)
let deliver = handle_command

let set_peer_resolver t fn = t.peer_agents <- fn

let node t = t.node

let live_pods t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.pods []
  |> List.sort (fun (a : Pod.t) (b : Pod.t) -> Int.compare a.pod_id b.pod_id)

let busy t = Hashtbl.length t.ckpts > 0 || Hashtbl.length t.restores > 0

(* Deterministic fault injection for the simulated ZapC cluster.

   Faults are scheduled on the cluster's own virtual-time engine, or fired
   synchronously from recorder subscribers at protocol phase instants
   (which is how a test lands a channel break exactly between a pod's meta
   report and the Manager's 'continue'); the recorder delivers instants
   even when it is off.  All randomness comes from an RNG split off
   the engine's seeded stream, so a chaos scenario is a pure function of its
   seed and replays bit-identically. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Rng = Zapc_sim.Rng
module Fabric = Zapc_simnet.Fabric
module Netfilter = Zapc_simnet.Netfilter
module Kernel = Zapc_simos.Kernel
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Agent = Zapc.Agent
module Storage = Zapc.Storage
module Trace = Zapc.Trace
module Span = Zapc_obs.Span
module Phase = Zapc_obs.Phase

type fault =
  | Break_channel of { node : int }
  | Crash_node of { node : int }
  | Hang_agent of { node : int; duration : Simtime.t option }
  | Loss_burst of { prob : float; duration : Simtime.t }
  | Latency_spike of { latency : Simtime.t; duration : Simtime.t }
  | Storage_outage of { duration : Simtime.t option }
  | Replica_outage of { replica : int; duration : Simtime.t option }
  | Corrupt_image of { replica : int; key : string option }

type trigger =
  | Now
  | At of Simtime.t
  | After of Simtime.t
  | On_phase of { phase : Phase.t; pod : int option; skip : int }

type injection = {
  fault : fault;
  trigger : trigger;
}

let fault_to_string = function
  | Break_channel { node } -> Printf.sprintf "break-channel(node %d)" node
  | Crash_node { node } -> Printf.sprintf "crash-node(node %d)" node
  | Hang_agent { node; duration = None } -> Printf.sprintf "hang-agent(node %d)" node
  | Hang_agent { node; duration = Some d } ->
    Printf.sprintf "hang-agent(node %d, %.1fms)" node (Simtime.to_ms d)
  | Loss_burst { prob; duration } ->
    Printf.sprintf "loss-burst(p=%.2f, %.1fms)" prob (Simtime.to_ms duration)
  | Latency_spike { latency; duration } ->
    Printf.sprintf "latency-spike(%.1fms, %.1fms)" (Simtime.to_ms latency)
      (Simtime.to_ms duration)
  | Storage_outage { duration = None } -> "storage-outage"
  | Storage_outage { duration = Some d } ->
    Printf.sprintf "storage-outage(%.1fms)" (Simtime.to_ms d)
  | Replica_outage { replica; duration = None } ->
    Printf.sprintf "replica-outage(replica %d)" replica
  | Replica_outage { replica; duration = Some d } ->
    Printf.sprintf "replica-outage(replica %d, %.1fms)" replica (Simtime.to_ms d)
  | Corrupt_image { replica; key = None } ->
    Printf.sprintf "corrupt-image(replica %d, all keys)" replica
  | Corrupt_image { replica; key = Some k } ->
    Printf.sprintf "corrupt-image(replica %d, %s)" replica k

let trigger_to_string = function
  | Now -> "now"
  | At t -> Printf.sprintf "at %.3fms" (Simtime.to_ms t)
  | After d -> Printf.sprintf "after %.3fms" (Simtime.to_ms d)
  | On_phase { phase; pod; skip } ->
    Printf.sprintf "on %s%s%s" (Phase.to_string phase)
      (match pod with Some p -> Printf.sprintf "[pod %d]" p | None -> "")
      (if skip > 0 then Printf.sprintf "+%d" skip else "")

let injection_to_string i =
  Printf.sprintf "%s %s" (fault_to_string i.fault) (trigger_to_string i.trigger)

type armed_injection = {
  a_inj : injection;
  mutable a_fired : bool;
  mutable a_seen : int;  (* On_phase match counter *)
}

type t = {
  cluster : Cluster.t;
  tr : Trace.t;
  base_cfg : Fabric.config;  (* fabric config before any injection *)
  mutable hung : int list;
  mutable crashed : int list;
  mutable log : (Simtime.t * string) list;  (* newest first *)
  mutable installed : armed_injection list;
}

let create ?trace cluster =
  let tr = match trace with Some tr -> tr | None -> Cluster.recorder cluster in
  {
    cluster;
    tr;
    base_cfg = Fabric.config (Cluster.fabric cluster);
    hung = [];
    crashed = [];
    log = [];
    installed = [];
  }

let trace t = t.tr
let engine t = Cluster.engine t.cluster
let fabric t = Cluster.fabric t.cluster
let now t = Engine.now (engine t)

let note t what = t.log <- (now t, what) :: t.log
let fired t = List.rev t.log
let armed t = List.length (List.filter (fun a -> not a.a_fired) t.installed)
let crashed_nodes t = List.sort Int.compare t.crashed

let after t delay fn = Engine.schedule (engine t) ~label:"fault.timer" ~delay fn

(* --- applying individual faults --- *)

let apply_break t node =
  note t (fault_to_string (Break_channel { node }));
  Manager.break_channel (Cluster.manager t.cluster) ~node

(* Power loss: the pod processes die with the node, the per-node netfilter
   rules vanish with its kernel, its NIC drops off the fabric, and the
   Manager sees the control connection break.  The kill happens before the
   break so the Manager's abort finds nothing alive to un-suspend. *)
let apply_crash t node =
  if not (List.mem node t.crashed) then begin
    note t (fault_to_string (Crash_node { node }));
    t.crashed <- node :: t.crashed;
    Cluster.mark_node_dead t.cluster node;
    let n = Cluster.node t.cluster node in
    let nf = Fabric.netfilter (fabric t) in
    (* mark in-flight operations aborted first, so cost callbacks already on
       the engine queue become no-ops instead of touching destroyed pods *)
    Agent.abort_all n.n_agent;
    List.iter
      (fun (p : Pod.t) ->
        Netfilter.unblock nf p.rip;
        Pod.destroy p;
        Agent.forget_pod n.n_agent p.pod_id)
      (Agent.live_pods n.n_agent);
    Kernel.crash n.n_kernel;
    Fabric.detach_node (fabric t) node;
    Manager.break_channel (Cluster.manager t.cluster) ~node
  end

let resume_agent t node =
  if List.mem node t.hung then begin
    t.hung <- List.filter (fun n -> n <> node) t.hung;
    Cluster.set_hung t.cluster node false
  end

(* The hang belongs to the node, not to the channel it has now: a tree
   re-formed meanwhile keeps it hung, and the heal resumes its current
   uplink. *)
let apply_hang t node duration =
  if Manager.agent_channel (Cluster.manager t.cluster) ~node <> None then begin
    note t (fault_to_string (Hang_agent { node; duration }));
    Cluster.set_hung t.cluster node true;
    t.hung <- node :: t.hung;
    match duration with
    | Some d ->
      after t d (fun () ->
          if List.mem node t.hung then begin
            note t (Printf.sprintf "heal: hang-agent(node %d)" node);
            resume_agent t node
          end)
    | None -> ()
  end

let apply_loss t prob duration =
  note t (fault_to_string (Loss_burst { prob; duration }));
  Fabric.set_loss_prob (fabric t) prob;
  after t duration (fun () ->
      note t "heal: loss-burst";
      Fabric.set_loss_prob (fabric t) t.base_cfg.loss_prob)

let apply_latency t latency duration =
  note t (fault_to_string (Latency_spike { latency; duration }));
  Fabric.set_latency (fabric t) latency;
  after t duration (fun () ->
      note t "heal: latency-spike";
      Fabric.set_latency (fabric t) t.base_cfg.latency)

let apply_storage t duration =
  note t (fault_to_string (Storage_outage { duration }));
  let storage = Cluster.storage t.cluster in
  Storage.set_fail_writes storage (Some "injected storage outage");
  match duration with
  | Some d ->
    after t d (fun () ->
        note t "heal: storage-outage";
        Storage.set_fail_writes storage None)
  | None -> ()

(* One replica of the store goes dark: writes skip it, reads fall back
   past it.  The global store stays available throughout. *)
let apply_replica_outage t replica duration =
  note t (fault_to_string (Replica_outage { replica; duration }));
  let storage = Cluster.storage t.cluster in
  Storage.set_replica_fail storage ~replica (Some "injected replica outage");
  match duration with
  | Some d ->
    after t d (fun () ->
        note t (Printf.sprintf "heal: replica-outage(replica %d)" replica);
        Storage.set_replica_fail storage ~replica None)
  | None -> ()

(* Silent bit rot on one replica's copy (or copies): the bytes change under
   the stored checksum, so only a verifying read notices and falls back. *)
let apply_corrupt t replica key =
  note t (fault_to_string (Corrupt_image { replica; key }));
  let storage = Cluster.storage t.cluster in
  match key with
  | Some k -> ignore (Storage.corrupt storage ~replica k)
  | None ->
    List.iter (fun k -> ignore (Storage.corrupt storage ~replica k))
      (Storage.keys storage)

let apply t fault =
  match fault with
  | Break_channel { node } -> apply_break t node
  | Crash_node { node } -> apply_crash t node
  | Hang_agent { node; duration } -> apply_hang t node duration
  | Loss_burst { prob; duration } -> apply_loss t prob duration
  | Latency_spike { latency; duration } -> apply_latency t latency duration
  | Storage_outage { duration } -> apply_storage t duration
  | Replica_outage { replica; duration } -> apply_replica_outage t replica duration
  | Corrupt_image { replica; key } -> apply_corrupt t replica key

(* --- triggers --- *)

let fire t a =
  if not a.a_fired then begin
    a.a_fired <- true;
    (* the [Fault] instant is what trips the flight recorder into a dump
       (Cluster.enable_flight) — record it before the fault mutates state so
       the rings still hold the pre-fault tail *)
    Span.instant t.tr ~time:(now t) ~node:(-1) ~pod:(-1)
      (Phase.Fault (fault_to_string a.a_inj.fault));
    apply t a.a_inj.fault
  end

let install t inj =
  let a = { a_inj = inj; a_fired = false; a_seen = 0 } in
  t.installed <- t.installed @ [ a ];
  match inj.trigger with
  | Now -> fire t a
  | At at ->
    Engine.schedule_at (engine t) ~label:"fault.timer"
      ~at:(Simtime.max at (now t)) (fun () -> fire t a)
  | After d -> after t d (fun () -> fire t a)
  | On_phase { phase; pod; skip } ->
    Span.subscribe t.tr (function
      | Span.Instant i
        when (not a.a_fired) && i.in_what = phase
             && (match pod with Some p -> i.in_pod = p | None -> true) ->
        a.a_seen <- a.a_seen + 1;
        if a.a_seen > skip then fire t a
      | _ -> ())

let install_all t = List.iter (install t)

let heal_all t =
  Fabric.set_config (fabric t) t.base_cfg;
  Storage.set_fail_writes (Cluster.storage t.cluster) None;
  Storage.heal_replicas (Cluster.storage t.cluster);
  List.iter (resume_agent t) t.hung

(* --- seeded random scenarios --- *)

(* phase boundaries worth aiming at; weighted toward the checkpoint window
   because that is where an ill-timed fault is most interesting *)
let random_phases =
  Phase.[| Ckpt_broadcast; Suspended; Net_ckpt_done; Meta_sent;
           Standalone_done; Continue_broadcast; Continue_received |]

let random_trigger rng ~horizon =
  if Rng.bool rng 0.5 then At (Simtime.ns (Rng.int rng (Stdlib.max 1 horizon)))
  else
    On_phase
      { phase = random_phases.(Rng.int rng (Array.length random_phases));
        pod = None;
        skip = Rng.int rng 3 }

(* One random injection: a uniformly chosen fault kind on a random node,
   triggered at a uniform instant within [horizon] or at a random protocol
   phase boundary.  Durations are fractions of [horizon], so transient
   faults both start and end inside a scenario. *)
let random_injection rng ~node_count ~horizon =
  let node = Rng.int rng (Stdlib.max 1 node_count) in
  let frac lo hi =
    let f = lo +. Rng.float rng (hi -. lo) in
    Simtime.ns (Stdlib.max 1 (int_of_float (float_of_int horizon *. f)))
  in
  let fault =
    match Rng.int rng 8 with
    | 0 -> Break_channel { node }
    | 1 -> Crash_node { node }
    | 2 ->
      (* finite four times out of five so most hangs heal inside the run *)
      let duration = if Rng.bool rng 0.8 then Some (frac 0.05 0.3) else None in
      Hang_agent { node; duration }
    | 3 -> Loss_burst { prob = 0.02 +. Rng.float rng 0.18; duration = frac 0.1 0.5 }
    | 4 -> Latency_spike { latency = Simtime.us (40 + Rng.int rng 2000); duration = frac 0.1 0.5 }
    | 5 -> Storage_outage { duration = Some (frac 0.05 0.4) }
    | 6 -> Replica_outage { replica = Rng.int rng 2; duration = Some (frac 0.1 0.5) }
    | _ -> Corrupt_image { replica = Rng.int rng 2; key = None }
  in
  { fault; trigger = random_trigger rng ~horizon }

let random_plan rng ~node_count ~horizon ~count =
  List.init count (fun _ -> random_injection rng ~node_count ~horizon)

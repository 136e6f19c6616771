(* Self-healing supervisor: heartbeat failure detection plus automatic
   recovery.

   The supervisor watches the nodes hosting a periodically-checkpointed
   application group by sending A_ping probes over the Manager's control
   channels every [heartbeat_period].  A healthy Agent answers immediately;
   probes to a crashed node (broken channel) vanish and a hung Agent's
   replies stall, so consecutive unanswered beats accumulate per node.
   After [heartbeat_misses] consecutive misses the node is declared dead
   and the supervisor drives [Periodic.recover_async] onto the surviving
   node set, retrying with capped exponential backoff + deterministic
   jitter up to [recover_retries] times before giving up.

   States: Monitoring -> Suspected (>= 1 miss) -> Recovering (declared
   dead) -> back to Monitoring (healthy again) or Gave_up.

   The watch set is *sticky*: a crashed node's pods are destroyed with it,
   so recomputing the set from live pods would silently drop the very node
   being detected.  It is frozen at start and refreshed only after a
   successful recovery.

   Everything here runs inside engine callbacks, which is why only the
   async Manager/Periodic entry points are used ([Cluster.restart_sync]
   would re-enter [Engine.run]). *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Phase = Zapc_obs.Phase
module Rng = Zapc_sim.Rng
module Fabric = Zapc_simnet.Fabric
module Pod = Zapc_pod.Pod

type state = Monitoring | Suspected | Recovering | Gave_up | Stopped

type t = {
  cluster : Cluster.t;
  service : Periodic.t;
  params : Params.t;
  rng : Rng.t;  (* jitter stream, split off the engine's seeded RNG *)
  trace : Span.t;  (* the cluster's recorder unless [start ~trace] *)
  mutable watched : int list;  (* sticky node set under heartbeat watch *)
  misses : (int, int) Hashtbl.t;  (* node -> consecutive unanswered beats *)
  awaiting : (int, int) Hashtbl.t;  (* node -> seq of the unanswered ping *)
  first_miss : (int, Simtime.t) Hashtbl.t;  (* node -> first missed-beat time *)
  mutable seq : int;
  mutable state : state;
  mutable attempts : int;  (* attempts of the recovery in progress *)
  mutable recoveries : int;
  mutable gave_up : int;  (* recoveries abandoned after the retry budget *)
  mutable last_detect : Simtime.t option;
  mutable recover_span : int;  (* open [sup_recover] span id, -1 when none *)
  mutable log : (Simtime.t * Phase.t) list;  (* newest first *)
  mutable beat_tm : Engine.timer option;  (* cancellable heartbeat timer *)
}

let now t = Engine.now (Cluster.engine t.cluster)
let reg t = Cluster.metrics t.cluster

let note t what =
  t.log <- (now t, what) :: t.log;
  Span.instant t.trace ~time:(now t) ~node:(-1) ~pod:(-1) what

(* The whole recovery episode (declaration -> recovered/gave up) is one
   [sup_recover] span; each restart attempt's Manager op span parents under
   it through [Periodic.recover_async ?parent]. *)
let recover_span_begin t =
  t.recover_span <-
    (Span.begin_span t.trace ~time:(now t) ~pod:(-1) Phase.Sup_recover).Span.sp_id

let recover_span_end t =
  if t.recover_span >= 0 then
    ignore (Span.end_named t.trace ~time:(now t) ~pod:(-1) Phase.Sup_recover);
  t.recover_span <- -1

(* Nodes currently hosting the group's pods (for the initial watch set and
   its refresh after a recovery). *)
let nodes_of_group t =
  List.filter_map
    (fun pod_id ->
      match Pod.find pod_id with
      | None -> None
      | Some p -> Fabric.node_of_ip (Cluster.fabric t.cluster) p.rip)
    (Periodic.pod_ids t.service)
  |> List.sort_uniq Int.compare

let miss_count t node = try Hashtbl.find t.misses node with Not_found -> 0

(* Refresh the watch set when the group's footprint changes (a migration
   handoff, or a completed recovery): the union of the nodes now hosting
   the group and any node already under suspicion — recomputing from live
   pods alone would silently drop the very node being detected. *)
let refresh_watched t =
  let fresh = nodes_of_group t in
  let suspected =
    List.filter
      (fun n -> miss_count t n > 0 && Cluster.node_alive t.cluster n)
      t.watched
  in
  t.watched <- List.sort_uniq Int.compare (fresh @ suspected)

(* Capped exponential backoff with deterministic jitter: attempt k waits
   min(max, base * 2^(k-1)) stretched by a factor in [1, 1.5). *)
let backoff_delay t =
  let exp = 1 lsl Stdlib.min 16 (Stdlib.max 0 (t.attempts - 1)) in
  let d =
    Stdlib.min t.params.Params.recover_backoff_max
      (Params.scale t.params.Params.recover_backoff exp)
  in
  Simtime.ns
    (int_of_float (float_of_int d *. (1.0 +. Rng.float t.rng 0.5)))

let unrecoverable (r : Manager.op_result) =
  (* no good snapshot (or every replica of one is gone): retrying cannot
     help *)
  match r.Manager.r_failure with
  | Some (Protocol.F_missing_image _) -> true
  | Some _ | None -> false

(* The heartbeat rides a cancellable timer so [stop] retires the pending
   trampoline instead of leaving a dead closure to fire into a stopped
   supervisor. *)
let rec schedule_beat t =
  let tm =
    match t.beat_tm with
    | Some tm -> tm
    | None ->
      let tm = Engine.timer ~label:"sup.beat" (fun () -> beat t) in
      t.beat_tm <- Some tm;
      tm
  in
  Engine.timer_arm_in (Cluster.engine t.cluster) tm
    ~delay:t.params.Params.heartbeat_period

and beat t =
  match t.state with
  | Stopped | Gave_up -> ()
  | Recovering -> schedule_beat t  (* keep the clock; recovery owns the state *)
  | Monitoring | Suspected ->
    (* 1: score the previous round — a node whose ping is still unanswered
       missed a beat *)
    let dead = ref [] in
    List.iter
      (fun node ->
        if Hashtbl.mem t.awaiting node then begin
          let m = miss_count t node + 1 in
          Hashtbl.replace t.misses node m;
          Metrics.incr (reg t) "sup.misses";
          if m = 1 then Hashtbl.replace t.first_miss node (now t);
          if m >= t.params.Params.heartbeat_misses then dead := node :: !dead
        end)
      t.watched;
    (match !dead with
     | _ :: _ ->
       let dead = List.sort Int.compare !dead in
       List.iter
         (fun node ->
           Cluster.mark_node_dead t.cluster node;
           Metrics.incr (reg t) "sup.detections";
           (* latency from the first missed beat to the declaration *)
           (match Hashtbl.find_opt t.first_miss node with
           | Some t0 ->
             Metrics.observe (reg t) "sup.detect_latency_ms"
               (Simtime.to_ms (Simtime.sub (now t) t0))
           | None -> ());
           note t (Phase.Sup_detect node))
         dead;
       t.last_detect <- Some (now t);
       Metrics.set_gauge (reg t) "sup.last_detect_ms" (Simtime.to_ms (now t));
       (* re-form the control tree over the survivors NOW, before any
          recovery traffic — restart commands routed through a dead relay
          hop would vanish and every attempt would time out *)
       Cluster.reform_tree t.cluster;
       t.state <- Recovering;
       t.attempts <- 0;
       recover_span_begin t;
       schedule_beat t;
       attempt_recovery t
     | [] ->
       t.state <-
         (if List.exists (fun n -> miss_count t n > 0) t.watched then Suspected
          else Monitoring);
       (* 2: next round of probes *)
       Hashtbl.reset t.awaiting;
       List.iter
         (fun node ->
           t.seq <- t.seq + 1;
           Hashtbl.replace t.awaiting node t.seq;
           Metrics.incr (reg t) "sup.pings";
           Manager.ping (Cluster.manager t.cluster) ~node ~seq:t.seq)
         t.watched;
       schedule_beat t)

and attempt_recovery t =
  if t.state <> Recovering then ()
  else if t.attempts >= t.params.Params.recover_retries then give_up t
  else begin
    t.attempts <- t.attempts + 1;
    Metrics.incr (reg t) "sup.attempts";
    note t (Phase.Sup_attempt t.attempts);
    let alive = Cluster.alive_nodes t.cluster in
    if alive = [] then give_up t
    else if Manager.busy (Cluster.manager t.cluster) then
      (* an operation (e.g. the epoch the failure interrupted) still holds
         the Manager; count the attempt and back off *)
      retry_later t
    else begin
      let n = List.length alive in
      let targets =
        List.mapi
          (fun i _ -> List.nth alive (i mod n))
          (Periodic.pod_ids t.service)
      in
      Periodic.recover_async
        ?parent:(Trace.parent_arg t.recover_span)
        t.service ~target_nodes:targets
        ~on_done:(fun r ->
          if t.state <> Recovering then ()
          else if r.Manager.r_ok then recovered t
          else if unrecoverable r then give_up t
          else retry_later t)
    end
  end

and retry_later t =
  let delay = backoff_delay t in
  Metrics.incr (reg t) "sup.backoffs";
  note t (Phase.Sup_backoff delay);
  Engine.schedule (Cluster.engine t.cluster) ~label:"sup.retry" ~delay (fun () ->
      attempt_recovery t)

and recovered t =
  t.recoveries <- t.recoveries + 1;
  Metrics.incr (reg t) "sup.recoveries";
  Metrics.set_gauge (reg t) "sup.last_recovered_ms" (Simtime.to_ms (now t));
  (* MTTR: declaration of death -> service restored *)
  (match t.last_detect with
  | Some d ->
    Metrics.observe (reg t) "sup.mttr_ms"
      (Simtime.to_ms (Simtime.sub (now t) d))
  | None -> ());
  note t Phase.Sup_recovered;
  recover_span_end t;
  t.attempts <- 0;
  (* the group may live on different nodes now: refresh the watch set
     before the misses are forgotten, so a survivor still under suspicion
     stays watched *)
  refresh_watched t;
  Hashtbl.reset t.misses;
  Hashtbl.reset t.awaiting;
  Hashtbl.reset t.first_miss;
  t.state <- Monitoring;
  Periodic.resume t.service

and give_up t =
  t.gave_up <- t.gave_up + 1;
  Metrics.incr (reg t) "sup.gave_up";
  note t Phase.Sup_giveup;
  recover_span_end t;
  t.state <- Gave_up

let start ?trace cluster service =
  let t =
    {
      cluster;
      service;
      params = Cluster.params cluster;
      rng = Rng.split (Engine.rng (Cluster.engine cluster));
      trace = Option.value trace ~default:(Cluster.recorder cluster);
      watched = [];
      misses = Hashtbl.create 8;
      awaiting = Hashtbl.create 8;
      first_miss = Hashtbl.create 8;
      seq = 0;
      state = Monitoring;
      attempts = 0;
      recoveries = 0;
      gave_up = 0;
      last_detect = None;
      recover_span = -1;
      log = [];
      beat_tm = None;
    }
  in
  Manager.set_on_pong (Cluster.manager cluster) (fun ~node ~seq ->
      Metrics.incr (reg t) "sup.pongs";
      (match Hashtbl.find_opt t.awaiting node with
       | Some s when s = seq ->
         Hashtbl.remove t.awaiting node;
         Hashtbl.replace t.misses node 0;
         Hashtbl.remove t.first_miss node
       | Some _ | None -> ());
      if t.state = Suspected
         && not (List.exists (fun n -> miss_count t n > 0) t.watched)
      then t.state <- Monitoring);
  (* a live migration moves a watched pod: observe its new home at the
     handoff, atomically with the Manager completing the operation *)
  Manager.set_on_migrated (Cluster.manager cluster)
    (fun ~pod ~src ~dest ->
      note t (Phase.Sup_watch_refresh { pod; src; dest });
      refresh_watched t);
  t.watched <- nodes_of_group t;
  schedule_beat t;
  t

let stop t =
  t.state <- Stopped;
  match t.beat_tm with Some tm -> Engine.timer_cancel tm | None -> ()

let state t = t.state
let watched t = t.watched
let recoveries t = t.recoveries
let gave_up t = t.gave_up > 0
let events t = List.rev t.log

(* The ZapC Manager: the front-end client that orchestrates coordinated
   checkpoint and restart (Figures 1 and 3).

   Checkpoint: broadcast 'checkpoint', gather the meta-data from every
   Agent, broadcast 'continue' (the single synchronization point), gather
   the completion statuses.  Restart: merge the meta-data into a new
   connectivity map (substituting the destination addresses), derive the
   connect/accept schedule, broadcast 'restart' with the per-pod
   instructions, gather statuses.

   The Manager keeps its Agent channels open for the whole operation; a
   broken channel aborts the operation on both sides. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Critpath = Zapc_obs.Critpath
module Phase = Zapc_obs.Phase
module Addr = Zapc_simnet.Addr
module Meta = Zapc_netckpt.Meta
module Sock_state = Zapc_netckpt.Sock_state
module Pod_ckpt = Zapc_ckpt.Pod_ckpt

type ckpt_item = {
  ci_node : int;
  ci_pod : int;
  ci_dest : Protocol.uri;
}

type restart_item = {
  ri_node : int;
  ri_pod : int;
  ri_uri : Protocol.uri;
}

type op_result = {
  r_ok : bool;
  r_failure : Protocol.failure option;  (* None iff r_ok *)
  r_detail : string;  (* human-readable rendering of r_failure *)
  r_duration : Simtime.t;  (* invocation -> all Agents reported done *)
  r_stats : (int * Protocol.agent_stats) list;  (* per pod *)
  r_metas : Meta.pod_meta list;
}

(* cached per-pod facts learned during checkpoints, enabling restarts of
   streamed images (whose bytes the Manager never sees) *)
type pod_info = { pi_vip : Addr.ip; pi_name : string; pi_meta : Meta.pod_meta }

type pending = {
  mutable p_wait_meta : int list;  (* pods still to report meta *)
  mutable p_wait_done : int list;
  mutable p_stats : (int * Protocol.agent_stats) list;
  mutable p_metas : Meta.pod_meta list;
  mutable p_arm : int;
  (* phase-timeout keepalive: each pre-copy round report bumps this, killing
     the armed watchdog and re-arming from now (a live migration's copy
     phase legitimately outlives one [phase_timeout] as long as rounds keep
     landing) *)
  p_items : (int * int) list;  (* (pod, node) *)
  p_dests : (int * int) list;
  (* (pod, destination node) of every [U_node] item: the destination is a
     party to the item, so an abort reaches it too *)
  mutable p_landed : int list;
  (* [U_node] items whose destination reported the image landed: each is
     committed, and losing its source no longer fails it *)
  p_started : Simtime.t;
  p_kind : Phase.op;
  (* observability labels only: a migration's copy and restore phases are
     a checkpoint and a restart reported under mgr.mig.* *)
  p_gen : int;  (* the operation id: guards stale timeouts and done reports *)
  p_done : op_result -> unit;
}

type t = {
  engine : Engine.t;
  params : Params.t;
  storage : Storage.t;
  fan : Fanout.t;
  (* the root's direct children, command bundles and serial CPU server *)
  routes : (int, int) Hashtbl.t;
  (* node -> the direct child whose subtree contains it (children map to
     themselves) *)
  edges : (int, Protocol.channel) Hashtbl.t;
  (* node -> the channel its parent reaches it by, for every node: fault
     injection severs (or hangs) any node's uplink through it *)
  alloc_rip : int -> Addr.ip;
  infos : (int, pod_info) Hashtbl.t;
  metrics : Metrics.t;
  trace : Span.t;  (* the cluster's recorder, off until tracing is enabled *)
  mutable current : pending option;
  mutable gen : int;  (* bumped per operation *)
  mutable last_critpath : (Phase.t * Critpath.report) option;
  (* (operation span name, analysis) of the most recent successful op *)
  mutable on_pong : node:int -> seq:int -> unit;  (* supervisor heartbeat sink *)
  mutable on_migrated : pod:int -> src:int -> dest:int -> unit;
  (* fired at a successful handoff, before the caller's on_done: watchers
     (Supervisor) observe the pod's new home atomically with completion *)
}

let create ?metrics ~engine ~params ~storage ~trace ~alloc_rip () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  { engine; params; storage;
    fan =
      Fanout.create ~engine ~params ~metrics ~proc_label:"mgr.proc"
        ~flush_label:"mgr.fanout" ~batches:"mgr.tree.down_batches"
        ~items:"mgr.tree.down_msgs" ();
    routes = Hashtbl.create 8; edges = Hashtbl.create 8;
    alloc_rip;
    infos = Hashtbl.create 16; metrics; trace; current = None;
    gen = 0; last_critpath = None;
    on_pong = (fun ~node:_ ~seq:_ -> ());
    on_migrated = (fun ~pod:_ ~src:_ ~dest:_ -> ()) }

let metrics t = t.metrics

let trace t what =
  Span.instant t.trace ~time:(Engine.now t.engine) ~node:(-1) ~pod:(-1) what

(* Manager-scope spans (pod -1): the whole operation plus the sync window
   (broadcast -> 'continue'), whose overlap with the agents' standalone
   spans is the Figure-2 story. *)
let span_begin_id t ?op ?parent name =
  (Span.begin_span t.trace ~time:(Engine.now t.engine) ?op ?parent ~pod:(-1) name)
    .Span.sp_id

(* The span id (-1 while the recorder is off) rides as the commands'
   [parent] and parents the agents' spans; most callers only open the
   span. *)
let span_begin t ?op ?parent name = ignore (span_begin_id t ?op ?parent name)

let span_end t name =
  ignore (Span.end_named t.trace ~time:(Engine.now t.engine) ~pod:(-1) name)

(* [strict] raises on a node outside the tree (operation sends assume the
   wiring exists); non-strict sends vanish silently, which is what the
   abort and heartbeat paths want when a node is already gone. *)
let send_via t ~strict node msg =
  match Hashtbl.find_opt t.routes node with
  | Some hop -> Fanout.send t.fan ~hop ~dst:node msg
  | None ->
    if strict then invalid_arg (Printf.sprintf "Manager: no route to node %d" node)

let send t node msg = send_via t ~strict:true node msg
let send_opt t node msg = send_via t ~strict:false node msg

let remember_pod t ~pod_id ~name ~vip meta =
  Hashtbl.replace t.infos pod_id { pi_vip = vip; pi_name = name; pi_meta = meta }

(* the metric prefix of each operation kind *)
let prefix = function
  | Phase.Op_ckpt -> "mgr.ckpt"
  | Phase.Op_restart -> "mgr.restart"
  | Phase.Op_mig_copy -> "mgr.mig.copy"
  | Phase.Op_mig_restore -> "mgr.mig.restore"

let finish t result =
  match t.current with
  | None -> ()
  | Some p ->
    t.current <- None;
    let prefix = prefix p.p_kind and opname = Phase.op_span p.p_kind in
    Metrics.incr t.metrics (prefix ^ if result.r_ok then ".ok" else ".failed");
    Metrics.observe t.metrics (prefix ^ ".duration_ms")
      (Simtime.to_ms result.r_duration);
    (* bytes-written histograms (checkpoint only: restart stats report
       restored sizes, not writes) *)
    if p.p_kind = Phase.Op_ckpt then
      List.iter
        (fun ((_pod : int), (st : Protocol.agent_stats)) ->
          Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
            "ckpt.image_bytes"
            (float_of_int st.Protocol.st_image_bytes);
          Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
            "netckpt.bytes"
            (float_of_int st.Protocol.st_net_bytes);
          (* delta writes: st_full_bytes carries the size a full checkpoint
             would have written at the same instant *)
          if st.Protocol.st_full_bytes > 0 then begin
            Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
              "ckpt.delta_bytes"
              (float_of_int st.Protocol.st_image_bytes);
            Metrics.observe t.metrics "ckpt.delta_ratio"
              (float_of_int st.Protocol.st_image_bytes
              /. float_of_int st.Protocol.st_full_bytes)
          end)
        result.r_stats;
    span_end t Phase.Mgr_sync;
    span_end t opname;
    (* Critical-path attribution: with the op span now closed, walk the
       spans of this operation (sp_op = generation — the agents' spans
       carry it via the wire trace context) and report which phase
       dominated the end-to-end latency. *)
    if result.r_ok && Span.enabled t.trace then begin
      let sps =
        List.filter
          (fun (s : Span.span) -> s.Span.sp_op = p.p_gen)
          (Span.spans t.trace)
      in
      let rep =
        Critpath.analyze ~spans:sps ~t0:p.p_started
          ~t1:(Engine.now t.engine)
      in
      if rep.Critpath.cp_dominant <> "" then begin
        List.iter
          (fun (name, d) ->
            Metrics.observe t.metrics
              (Printf.sprintf "mgr.critpath.%s_ms" name)
              (Simtime.to_ms d))
          rep.Critpath.cp_phases;
        Metrics.incr t.metrics
          (Printf.sprintf "mgr.critpath.dominant.%s" rep.Critpath.cp_dominant);
        t.last_critpath <- Some (opname, rep)
      end
    end;
    p.p_done result

let last_critpath t = t.last_critpath

let fail_op t failure =
  match t.current with
  | None -> ()
  | Some p ->
    (* the flight recorder trips on this instant *)
    trace t (Phase.Op_failed p.p_kind);
    (* abort everyone still involved, stream destinations included; skip
       nodes whose channel (or route) is gone — the abort path must itself
       survive a broken channel *)
    List.iter
      (fun (pod, node) -> send_opt t node (Protocol.A_abort { pod_id = pod }))
      (p.p_items @ p.p_dests);
    finish t
      { r_ok = false; r_failure = Some failure;
        r_detail = Protocol.failure_to_string failure;
        r_duration = Simtime.sub (Engine.now t.engine) p.p_started;
        r_stats = p.p_stats; r_metas = p.p_metas }

(* Per-phase watchdog (paper section 4 only aborts on *broken* channels; a
   hung-but-connected Agent would stall the protocol forever without this).
   The generation counter keeps a stale timer from touching a later
   operation that reuses pod ids. *)
let arm_phase_timeout t (p : pending) (phase : Phase.gather) =
  if Simtime.compare t.params.phase_timeout Simtime.zero > 0 then begin
    let arm = p.p_arm in
    Engine.schedule_at t.engine ~label:"mgr.timeout"
      ~at:(Simtime.add (Engine.now t.engine) t.params.phase_timeout)
      (fun () ->
        match t.current with
        | Some p' when p' == p && p'.p_gen = p.p_gen && p'.p_arm = arm ->
          let waiting =
            match phase with
            | Phase.Ph_meta -> p'.p_wait_meta
            | Phase.Ph_done -> p'.p_wait_done
          in
          (* only fire if the guarded phase is still incomplete *)
          let stuck =
            match phase with
            | Phase.Ph_meta -> p'.p_wait_meta <> []
            | Phase.Ph_done -> p'.p_wait_done <> []
          in
          if stuck then begin
            Metrics.incr t.metrics "mgr.phase_timeouts";
            trace t (Phase.Phase_timeout phase);
            fail_op t (Protocol.F_timeout { phase; waiting })
          end
        | Some _ | None -> ())
  end

let succeed t p =
  finish t
    { r_ok = true; r_failure = None; r_detail = "";
      r_duration = Simtime.sub (Engine.now t.engine) p.p_started;
      r_stats = p.p_stats; r_metas = p.p_metas }

(* A broken channel fails the operation, with one exception: the commit
   rule of [U_node] items.  Once an item's destination has reported its
   image landed, the destination copy is authoritative and losing the
   source is NOT a failure.  The break and the landing report race on
   independent channels, so when the broken node is only the source of
   stream items, wait a few control latencies for an in-flight report
   before deciding.  The same logic serves breaks the manager hears about
   second-hand ([M_subtree_down] from a relay whose child edge severed). *)
let channel_broke t ~node =
  (* the node's pods, when each is a [U_node] item and the node holds no
     item's destination copy *)
  let sources p =
    let pods = List.filter_map (fun (pod, n) -> if n = node then Some pod else None) p.p_items in
    if pods <> [] && List.for_all (fun pod -> List.mem_assoc pod p.p_dests) pods
       && not (List.exists (fun (_, d) -> d = node) p.p_dests)
    then Some (p, pods)
    else None
  in
  match Option.bind t.current sources with
  | None -> fail_op t (Protocol.F_channel { node })
  | Some (p, pods) ->
    let gen = p.p_gen in
    trace t Phase.Mig_src_break;
    Engine.schedule_at t.engine ~label:"mgr.mig_grace"
      ~at:(Simtime.add (Engine.now t.engine) (5 * t.params.ctrl_latency))
      (fun () ->
        match t.current with
        | Some p' when p' == p && p.p_gen = gen ->
          if List.for_all (fun pod -> List.mem pod p.p_landed) pods then begin
            (* every destination copy already won: the pods survive there *)
            List.iter
              (fun pod ->
                Metrics.incr t.metrics "mgr.mig.src_lost_after_commit";
                trace t (Phase.Mig_src_lost { pod; node = List.assoc pod p.p_dests }))
              pods;
            let waiting l = List.filter (fun id -> not (List.mem id pods)) l in
            p.p_wait_meta <- waiting p.p_wait_meta;
            p.p_wait_done <- waiting p.p_wait_done;
            if p.p_wait_meta = [] && p.p_wait_done = [] then succeed t p
          end
          else fail_op t (Protocol.F_channel { node })
        | Some _ | None -> ())

let rec on_agent_message t (msg : Protocol.to_manager) =
  (* heartbeat replies are independent of any running operation *)
  match msg with
  | Protocol.M_batch items ->
    (* one aggregated frame from a direct child's subtree (already one proc
       slot); the reports inside are handled in arrival order *)
    Metrics.incr t.metrics "mgr.tree.up_batches";
    Metrics.add t.metrics "mgr.tree.up_msgs" (List.length items);
    List.iter (fun m -> on_agent_message t m) items
  | Protocol.M_subtree_down { node } ->
    Metrics.incr t.metrics "mgr.tree.subtree_down";
    trace t (Phase.Subtree_down node);
    channel_broke t ~node
  | Protocol.M_pong { node; seq } -> t.on_pong ~node ~seq
  | Protocol.M_migrate_round _ | Protocol.M_migrate_done _ | Protocol.M_meta _
  | Protocol.M_done _ ->
  match t.current with
  | None -> ()
  | Some p ->
    (match msg with
     | Protocol.M_pong _ | Protocol.M_batch _ | Protocol.M_subtree_down _ ->
       ()  (* handled above *)
     | Protocol.M_migrate_round { pod_id; stats; _ } ->
       if List.mem_assoc pod_id p.p_dests then begin
         Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
           "mig.bytes_per_round" (float_of_int stats.Protocol.mg_bytes);
         trace t (Phase.Mig_round_report stats.Protocol.mg_round);
         (* keepalive: a converging pre-copy legitimately outlives one
            phase_timeout; every round report pushes the watchdog out *)
         p.p_arm <- p.p_arm + 1;
         arm_phase_timeout t p Phase.Ph_meta
       end
     | Protocol.M_migrate_done { pod_id; rounds; precopy_bytes; forced; _ } ->
       (* the destination's commit: its copy is now complete and
          authoritative even if the source is lost from here on *)
       if List.mem_assoc pod_id p.p_dests && not (List.mem pod_id p.p_landed) then begin
         p.p_landed <- pod_id :: p.p_landed;
         if p.p_kind = Phase.Op_mig_copy then begin
           Metrics.observe t.metrics "mig.rounds" (float_of_int rounds);
           Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
             "mig.precopy_bytes" (float_of_int precopy_bytes);
           if forced then Metrics.incr t.metrics "mig.forced_stops"
         end;
         trace t Phase.Mig_committed
       end
     | Protocol.M_meta { pod_id; meta; _ } ->
       p.p_metas <- meta :: p.p_metas;
       p.p_wait_meta <- List.filter (fun id -> id <> pod_id) p.p_wait_meta;
       (match Hashtbl.find_opt t.infos pod_id with
        | Some info -> Hashtbl.replace t.infos pod_id { info with pi_meta = meta }
        | None -> ());
       (* step 3 of Figure 1: when every Agent has reported its meta-data,
          tell them all to continue (a migration's final stop-and-copy runs
          the same gated protocol) *)
       if p.p_wait_meta = [] && (p.p_kind = Phase.Op_ckpt || p.p_kind = Phase.Op_mig_copy)
       then begin
         span_end t Phase.Mgr_sync;
         trace t Phase.Continue_broadcast;
         List.iter
           (fun (pod, node) -> send t node (Protocol.A_continue { pod_id = pod }))
           p.p_items;
         arm_phase_timeout t p Phase.Ph_done
       end
     | Protocol.M_done { pod_id; op; ok; detail; stats; _ } ->
       if op <> p.p_gen || not (List.mem pod_id p.p_wait_done) then begin
         (* a duplicate or stale done-report (late abort fallout from an
            earlier operation, or a re-delivered message) must not touch —
            let alone abort — an operation that is not waiting on it *)
         Metrics.incr t.metrics "mgr.stale_done";
         trace t (Phase.Stale_done pod_id)
       end
       else if not ok then begin
         let node =
           match List.assoc_opt pod_id p.p_items with Some n -> n | None -> -1
         in
         fail_op t (Protocol.F_agent { node; pod_id; detail })
       end
       else begin
         p.p_stats <- (pod_id, stats) :: p.p_stats;
         p.p_wait_done <- List.filter (fun id -> id <> pod_id) p.p_wait_done;
         if p.p_wait_done = [] && p.p_wait_meta = [] then succeed t p
       end)

(* (Re)install the control tree: [children] are the manager's direct
   children with their edges, [routes] maps every tree node to its
   first-hop child, and [edges] maps every node to the channel its parent
   reaches it by.  Replaces whatever tree was installed before.  A child
   that routes for no other node is a plain Agent and gets its commands
   unwrapped; otherwise every child is a relay and gets bundles. *)
let set_tree t ~children ~routes ~edges =
  Hashtbl.reset t.routes;
  Hashtbl.reset t.edges;
  Fanout.set_children t.fan children
    ~bundle:(List.exists (fun (node, hop) -> node <> hop) routes);
  List.iter
    (fun (node, ch) ->
      (* receiving costs one proc slot per channel message (a batch is one) *)
      Control.set_up_handler ch (fun msg ->
          Fanout.proc t.fan (fun () -> on_agent_message t msg));
      Control.on_break ch (fun () -> channel_broke t ~node))
    children;
  List.iter (fun (node, hop) -> Hashtbl.replace t.routes node hop) routes;
  List.iter (fun (node, ch) -> Hashtbl.replace t.edges node ch) edges;
  Metrics.set_gauge t.metrics "mgr.tree.children"
    (float_of_int (List.length children))

(* failure injection for tests and demos: sever one node's uplink,
   wherever its parent is (both sides then abort, per section 4) *)
let break_channel t ~node = Option.iter Control.break (Hashtbl.find_opt t.edges node)
let agent_channel t ~node = Hashtbl.find_opt t.edges node

(* --- heartbeats --- *)

let set_on_pong t fn = t.on_pong <- fn

(* Probe one Agent; pings to missing or broken channels vanish silently —
   that silence is exactly what the supervisor counts as a missed beat. *)
let ping t ~node ~seq = send_opt t node (Protocol.A_ping { seq })

(* --- checkpoint --- *)

(* Open an operation: its pending state under a fresh generation.  Only a
   checkpoint gathers meta-data before its completion statuses. *)
let open_pending t ~kind ~items ~dests ~gather_meta ~metas ~on_done =
  t.gen <- t.gen + 1;
  let pods = List.map fst items in
  let p =
    { p_wait_meta = (if gather_meta then pods else []); p_wait_done = pods;
      p_stats = []; p_metas = metas; p_arm = 0; p_items = items; p_dests = dests;
      p_landed = []; p_started = Engine.now t.engine; p_kind = kind; p_gen = t.gen;
      p_done = on_done }
  in
  t.current <- Some p;
  p

(* One coordinated checkpoint; [kind] only picks the observability labels
   (a migration's copy phase is [Op_mig_copy]).  [precopy], the pre-copy
   round cap, rides on every [U_node] item. *)
let start_checkpoint ?(incremental = false) ?precopy ?parent ~kind t
    ~(items : ckpt_item list) ~(resume : bool) ~(on_done : op_result -> unit) =
  if t.current <> None then invalid_arg "Manager: operation already in progress";
  let p =
    open_pending t ~kind ~gather_meta:true ~metas:[] ~on_done
      ~items:(List.map (fun i -> (i.ci_pod, i.ci_node)) items)
      ~dests:
        (List.filter_map
           (fun i ->
             match i.ci_dest with
             | Protocol.U_node d -> Some (i.ci_pod, d)
             | Protocol.U_storage _ -> None)
           items)
  in
  Metrics.incr t.metrics (prefix kind ^ ".started");
  let op_span = span_begin_id t ~op:t.gen ?parent (Phase.op_span kind) in
  span_begin t ~op:t.gen ?parent:(Trace.parent_arg op_span) Phase.Mgr_sync;
  let span = Trace.parent_arg op_span in
  if kind = Phase.Op_ckpt then trace t Phase.Ckpt_broadcast;
  List.iter
    (fun i ->
      let precopy =
        match i.ci_dest with Protocol.U_node _ -> precopy | Protocol.U_storage _ -> None
      in
      send t i.ci_node
        (Protocol.A_checkpoint
           { pod_id = i.ci_pod; dest = i.ci_dest; resume; incremental; precopy; op = t.gen;
             parent = span }))
    items;
  arm_phase_timeout t p Phase.Ph_meta

let checkpoint ?incremental ?parent t ~items ~resume ~on_done =
  start_checkpoint ?incremental ?parent ~kind:Phase.Op_ckpt t ~items ~resume ~on_done

(* --- restart --- *)

(* Collect (meta, vip, name, image option) for one restart item. *)
let pod_facts t (item : restart_item) =
  match item.ri_uri with
  | Protocol.U_storage key ->
    (match Storage.get t.storage key with
     | None -> Error (Printf.sprintf "no image at %s" key)
     | Some v ->
       Ok
         ( Pod_ckpt.meta_of_image v,
           Pod_ckpt.vip_of_image v,
           Pod_ckpt.name_of_image v,
           Some v ))
  | Protocol.U_node _ ->
    (match Hashtbl.find_opt t.infos item.ri_pod with
     | None -> Error (Printf.sprintf "no cached meta for streamed pod %d" item.ri_pod)
     | Some info -> Ok (info.pi_meta, info.pi_vip, info.pi_name, None))

(* The send-queue redirection optimization (paper section 5): instead of
   resending each send queue over the re-established connection, merge it
   into the *peer's* checkpoint stream so it travels once.  Requires access
   to the images, so it applies to storage-based restarts. *)
let redirected_altq ~metas ~images (pod_id : int) (entries : Meta.restart_entry list) =
  let find_meta vip =
    List.find_opt (fun (pm : Meta.pod_meta) -> Addr.equal_ip pm.pm_vip vip) metas
  in
  List.filter_map
    (fun (e : Meta.restart_entry) ->
      if e.ri_orphan then None
      else
        match find_meta e.ri_remote.ip with
        | None -> None
        | Some peer_meta ->
          (match
             ( List.find_opt
                 (fun (pe : Meta.entry) ->
                   Addr.equal pe.local e.ri_remote && Addr.equal pe.remote e.ri_local)
                 peer_meta.pm_entries,
               List.assoc_opt peer_meta.pm_pod images )
           with
           | Some peer_entry, Some peer_image ->
             let peer_socks = Pod_ckpt.sockets_of_image peer_image in
             let im = peer_socks.(peer_entry.sock_ref) in
             let my_recv =
               (* my rcv_nxt = what I already have of the peer's stream *)
               match
                 List.find_opt
                   (fun (pm : Meta.pod_meta) -> pm.pm_pod = pod_id)
                   metas
               with
               | Some my_meta ->
                 (match
                    List.find_opt
                      (fun (me : Meta.entry) -> me.sock_ref = e.ri_sock_ref)
                      my_meta.pm_entries
                  with
                  | Some me -> me.recv
                  | None -> peer_entry.acked)
               | None -> peer_entry.acked
             in
             let data =
               Sock_state.trim_overlap ~acked:peer_entry.acked ~peer_recv:my_recv
                 im.Sock_state.send_data
             in
             if String.length data = 0 then None else Some (e.ri_sock_ref, data)
           | _, _ -> None))
    entries

let restart ?(kind = Phase.Op_restart) ?parent t ~(items : restart_item list)
    ~(on_done : op_result -> unit) =
  if t.current <> None then invalid_arg "Manager: operation already in progress";
  let prefix = prefix kind in
  Metrics.incr t.metrics (prefix ^ ".started");
  let facts = List.map (fun i -> (i, pod_facts t i)) items in
  match List.find_map (fun (_, f) -> Result.fold ~ok:(fun _ -> None) ~error:Option.some f) facts with
  | Some msg ->
    Metrics.incr t.metrics (prefix ^ ".failed");
    on_done
      { r_ok = false; r_failure = Some (Protocol.F_missing_image msg); r_detail = msg;
        r_duration = Simtime.zero; r_stats = []; r_metas = [] }
  | None ->
    let facts = List.map (fun (i, f) -> (i, Result.get_ok f)) facts in
    let metas = List.map (fun (_, (m, _, _, _)) -> m) facts in
    let images =
      List.filter_map
        (fun (i, (_, _, _, img)) -> Option.map (fun v -> (i.ri_pod, v)) img)
        facts
    in
    (* the new connectivity map: virtual addresses -> destination reals *)
    let vip_map =
      List.map (fun (i, (_, vip, _, _)) -> (vip, t.alloc_rip i.ri_node)) facts
    in
    let schedule = Meta.build_schedule metas in
    let redirect =
      t.params.redirect_sendq && List.length images = List.length items
    in
    let p =
      open_pending t ~kind ~gather_meta:false ~metas ~dests:[] ~on_done
        ~items:(List.map (fun i -> (i.ri_pod, i.ri_node)) items)
    in
    let op_span = span_begin_id t ~op:t.gen ?parent (Phase.op_span kind) in
    let span = Trace.parent_arg op_span in
    arm_phase_timeout t p Phase.Ph_done;
    List.iter2
      (fun item (i, (_, vip, name, _)) ->
        assert (item == i);
        let entries =
          match List.assoc_opt item.ri_pod schedule with Some e -> e | None -> []
        in
        let extra_altq =
          if redirect then redirected_altq ~metas ~images item.ri_pod entries else []
        in
        let rip =
          match List.assoc_opt vip vip_map with Some r -> r | None -> vip
        in
        send t item.ri_node
          (Protocol.A_restart
             { pod_id = item.ri_pod; name; vip; rip; uri = item.ri_uri; entries; vip_map;
               extra_altq; skip_sendq = redirect; op = t.gen; parent = span }))
      items facts

(* --- live migration --- *)

let set_on_migrated t fn = t.on_migrated <- fn

(* A live migration is a checkpoint whose [U_node] items run pre-copy
   rounds before the suspend, followed synchronously — in the same engine
   callback, so Periodic and the Supervisor never see a half-moved pod —
   by the ordinary restart on the destinations, which finds the staged
   images and activates their prestaged skeletons.  Its two phases report
   under mgr.mig.copy.* and mgr.mig.restore.*, both inside one [Migrate]
   span; the migration itself keeps no state. *)
let migrate_items ?(max_rounds = 8) ?parent t ~(items : ckpt_item list)
    ~(on_done : op_result -> unit) =
  if t.current <> None then invalid_arg "Manager: operation already in progress";
  let dest_of i =
    match i.ci_dest with
    | Protocol.U_node d -> d
    | Protocol.U_storage _ -> invalid_arg "Manager.migrate_items: destinations must be U_node"
  in
  let restarts =
    List.map (fun i -> { ri_node = dest_of i; ri_pod = i.ci_pod; ri_uri = i.ci_dest }) items
  in
  let started = Engine.now t.engine in
  Metrics.incr t.metrics "mgr.mig.started";
  (* the copy checkpoint takes the next generation: the migrate span shares it *)
  let mig_span = span_begin_id t ~op:(t.gen + 1) ?parent Phase.Migrate in
  trace t (Phase.Migrate_start (List.map (fun i -> (i.ci_pod, i.ci_node, dest_of i)) items));
  let finish_mig (r : op_result) =
    let r = { r with r_duration = Simtime.sub (Engine.now t.engine) started } in
    Metrics.incr t.metrics (if r.r_ok then "mgr.mig.ok" else "mgr.mig.failed");
    Metrics.observe t.metrics "mgr.mig.duration_ms" (Simtime.to_ms r.r_duration);
    if r.r_ok then trace t Phase.Mig_done;
    span_end t Phase.Migrate;
    (* watchers learn the new home before (and regardless of how) the
       caller reacts to completion *)
    if r.r_ok then
      List.iter (fun i -> t.on_migrated ~pod:i.ci_pod ~src:i.ci_node ~dest:(dest_of i)) items;
    on_done r
  in
  start_checkpoint ~precopy:max_rounds ?parent:(Trace.parent_arg mig_span)
    ~kind:Phase.Op_mig_copy t ~items ~resume:false ~on_done:(fun (copy : op_result) ->
      if not copy.r_ok then finish_mig copy
      else begin
        trace t Phase.Mig_copy_done;
        restart ~kind:Phase.Op_mig_restore ?parent:(Trace.parent_arg mig_span) t ~items:restarts
          ~on_done:(fun (res : op_result) ->
            finish_mig
              { res with
                r_stats = res.r_stats @ copy.r_stats;
                r_metas = (match res.r_metas with [] -> copy.r_metas | ms -> ms) })
      end)

let migrate ?max_rounds ?parent t ~(pod : int) ~(src_node : int)
    ~(dest_node : int) ~(on_done : op_result -> unit) =
  migrate_items ?max_rounds ?parent t
    ~items:[ { ci_node = src_node; ci_pod = pod; ci_dest = Protocol.U_node dest_node } ]
    ~on_done

let busy t = t.current <> None

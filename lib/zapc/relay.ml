(* Tree sub-coordinator (see relay.mli).  Downward it unpacks bundles and
   re-bundles per child edge through the same {!Fanout} the Manager runs at
   the root; upward it aggregates whatever its subtree reports in one engine
   instant into one [M_batch].  A broken child edge is reported up as
   [M_subtree_down]; a broken uplink severs the child edges, so an orphaned
   subtree aborts and never holds pods frozen.  Trace contexts ride inside
   the bundled commands untouched, so agent spans still parent under the
   manager's operation span across the extra hop. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics

type t = {
  node : int;
  engine : Engine.t;
  metrics : Metrics.t;
  agent : Agent.t;
  parent : Protocol.channel;  (* uplink toward the Manager *)
  fan : Fanout.t;
  (* child edges, per-child bundles and this relay's serial CPU server;
     closed when a re-formed tree retires the relay, so stale in-flight
     traffic on the old edges cannot reach agents twice *)
  routes : (int, int) Hashtbl.t;  (* descendant -> direct child *)
  mutable up_buf : Protocol.to_manager list;  (* reversed *)
  mutable up_flush : bool;
}

let live t = not (Fanout.closed t.fan)

(* --- downward: unpack, deliver local, re-bundle per child edge --- *)

let route t dst msg =
  if dst = t.node then Agent.deliver t.agent msg
  else
    match Hashtbl.find_opt t.routes dst with
    | Some hop -> Fanout.send t.fan ~hop ~dst msg
    | None ->
      (* no route: the topology changed under an in-flight command *)
      Metrics.incr t.metrics "relay.misroutes"

let dispatch t msg =
  if live t then begin
    Metrics.incr t.metrics "relay.forwards";
    match msg with
    | Protocol.A_batch items -> List.iter (fun (dst, m) -> route t dst m) items
    | m -> Agent.deliver t.agent m
  end

(* --- upward: aggregate the subtree's reports --- *)

let flush_up t =
  t.up_flush <- false;
  if live t then begin
    match List.rev t.up_buf with
    | [] -> ()
    | items ->
      t.up_buf <- [];
      Metrics.incr t.metrics "relay.up_batches";
      let msg = Protocol.M_batch items in
      Fanout.proc t.fan (fun () ->
          Control.send_up t.parent ~bytes:(Protocol.to_manager_bytes msg) msg)
  end

let on_child_up t msg =
  if live t then begin
    let items = match msg with Protocol.M_batch l -> l | m -> [ m ] in
    t.up_buf <- List.rev_append items t.up_buf;
    if not t.up_flush then begin
      t.up_flush <- true;
      (* same-instant aggregation: whatever the subtree reports in this
         engine instant rides one frame *)
      Engine.schedule t.engine ~label:"relay.aggregate" ~delay:Simtime.zero
        (fun () -> flush_up t)
    end
  end

(* --- failure propagation --- *)

let child_edge_broke t ~child =
  if live t then begin
    Metrics.incr t.metrics "relay.subtree_down";
    let msg = Protocol.M_subtree_down { node = child } in
    Control.send_up t.parent ~bytes:(Protocol.to_manager_bytes msg) msg
  end

(* The uplink died: this subtree is orphaned.  Sever the child edges so
   every agent below aborts its in-flight work and resumes its pods (the
   local agent's own on-break abort is registered by [Agent.attach_channel]
   on the same uplink). *)
let uplink_broke t =
  if live t then Fanout.iter_children t.fan (fun _ ch -> Control.break ch)

let create ~engine ~params ~metrics ~agent ~node ~parent ~children ~routes =
  let fan =
    Fanout.create ~engine ~params ~metrics ~proc_label:"relay.proc"
      ~flush_label:"relay.fanout" ~batches:"relay.down_batches" ()
  in
  Fanout.set_children fan ~bundle:true children;
  let t =
    { node; engine; metrics; agent; parent; fan; routes = Hashtbl.create 16;
      up_buf = []; up_flush = false }
  in
  List.iter (fun (dst, hop) -> Hashtbl.replace t.routes dst hop) routes;
  (* claim the uplink's down handler (the Agent attached first and keeps
     its on-break abort; locally-addressed commands are handed back to it
     through [Agent.deliver]) *)
  Control.set_down_handler parent (fun msg ->
      Fanout.proc t.fan (fun () -> dispatch t msg));
  Control.on_break parent (fun () -> uplink_broke t);
  List.iter
    (fun (child, ch) ->
      Control.set_up_handler ch (fun msg ->
          Fanout.proc t.fan (fun () -> on_child_up t msg));
      Control.on_break ch (fun () -> child_edge_broke t ~child))
    children;
  t

let close t = Fanout.close t.fan

(* One coordinator's downward half (see fanout.mli): child edges, per-child
   bundles flushed in one same-instant event, and the serial CPU server. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics

type t = {
  engine : Engine.t;
  ctrl_proc : Simtime.t;
  metrics : Metrics.t;
  proc_label : string option;  (* boxed once, not per message *)
  flush_label : string option;
  batches : string;  (* counter bumped per bundle sent *)
  items : string option;  (* counter of the commands the bundles carry *)
  children : (int, Protocol.channel) Hashtbl.t;  (* direct child -> edge *)
  mutable bundle : bool;
  buf : (int, (int * Protocol.to_agent) list) Hashtbl.t;  (* items reversed *)
  mutable flushing : bool;  (* a flush event is already scheduled *)
  mutable proc_free : Simtime.t;  (* when the server's backlog clears *)
  mutable closed : bool;
}

let create ~engine ~(params : Params.t) ~metrics ~proc_label ~flush_label ~batches
    ?items () =
  { engine; ctrl_proc = params.Params.ctrl_proc; metrics;
    proc_label = Some proc_label; flush_label = Some flush_label;
    batches; items; children = Hashtbl.create 8; bundle = true;
    buf = Hashtbl.create 8; flushing = false; proc_free = Simtime.zero;
    closed = false }

let set_children t ~bundle children =
  Hashtbl.reset t.children;
  Hashtbl.reset t.buf;
  List.iter (fun (child, ch) -> Hashtbl.replace t.children child ch) children;
  t.bundle <- bundle

let iter_children t fn = Hashtbl.iter fn t.children
let close t = t.closed <- true
let closed t = t.closed

(* Serial control-plane CPU: every message sent or received costs
   [ctrl_proc] of this one server (a bundle counts as one message).  Zero
   cost runs [fn] inline. *)
let proc t fn =
  if t.ctrl_proc = Simtime.zero then fn ()
  else begin
    let now = Engine.now t.engine in
    let start = if Simtime.compare t.proc_free now > 0 then t.proc_free else now in
    let fin = Simtime.add start t.ctrl_proc in
    t.proc_free <- fin;
    Engine.schedule_at t.engine ?label:t.proc_label ~at:fin fn
  end

let send_down t ch msg =
  proc t (fun () -> Control.send_down ch ~bytes:(Protocol.to_agent_bytes msg) msg)

let flush t =
  t.flushing <- false;
  if not t.closed then begin
    let hops =
      Hashtbl.fold (fun hop items acc -> (hop, List.rev items) :: acc) t.buf []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    Hashtbl.reset t.buf;
    List.iter
      (fun (hop, items) ->
        match Hashtbl.find_opt t.children hop with
        | Some ch when not (Control.is_broken ch) ->
          Metrics.incr t.metrics t.batches;
          (match t.items with
           | Some m -> Metrics.add t.metrics m (List.length items)
           | None -> ());
          send_down t ch (Protocol.A_batch items)
        | Some _ | None ->
          (* the edge broke since the enqueue: the loss is reported by its
             break handler, the commands vanish with it *)
          ())
      hops
  end

let send t ~hop ~dst msg =
  match Hashtbl.find t.children hop with
  | ch when not (Control.is_broken ch) ->
    if not t.bundle then send_down t ch msg
    else begin
      let prev = match Hashtbl.find_opt t.buf hop with Some l -> l | None -> [] in
      Hashtbl.replace t.buf hop ((dst, msg) :: prev);
      if not t.flushing then begin
        t.flushing <- true;
        Engine.schedule t.engine ?label:t.flush_label ~delay:Simtime.zero (fun () ->
            flush t)
      end
    end
  | _ | (exception Not_found) -> ()

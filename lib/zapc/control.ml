(* Reliable control channels between the Manager and its Agents.

   The paper runs these over TCP connections kept open for the whole
   operation; what the protocol needs from them is ordered reliable delivery
   and prompt breakage detection.  Both are modelled here: messages are
   delivered after latency + size/bandwidth, and [break] fires the
   registered failure callbacks on both sides so either party can abort
   gracefully (paper section 4).

   A channel can additionally be [pause]d: messages still arrive but queue
   up un-delivered, in both directions, until [resume] — a hung peer
   process whose TCP connection stays healthy.  This is the failure mode a
   broken-channel abort does NOT cover, and the one the Manager's per-phase
   timeouts exist for. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine

type ('up, 'down) t = {
  engine : Engine.t;
  latency : Simtime.t;
  bps : float;
  mutable up_handler : 'up -> unit;  (* messages arriving at the Manager *)
  mutable down_handler : 'down -> unit;  (* messages arriving at the Agent *)
  mutable broken : bool;
  mutable paused : bool;
  up_buf : 'up Queue.t;  (* deliveries that arrived while paused *)
  down_buf : 'down Queue.t;
  mutable on_break : (unit -> unit) list;
  mutable up_count : int;
  mutable down_count : int;
}

let create ~engine ~latency ~bps =
  {
    engine;
    latency;
    bps;
    up_handler = (fun _ -> ());
    down_handler = (fun _ -> ());
    broken = false;
    paused = false;
    up_buf = Queue.create ();
    down_buf = Queue.create ();
    on_break = [];
    up_count = 0;
    down_count = 0;
  }

let set_up_handler t fn = t.up_handler <- fn
let set_down_handler t fn = t.down_handler <- fn
let on_break t fn = t.on_break <- fn :: t.on_break

let transfer_delay t bytes =
  Simtime.add t.latency (Simtime.ns (int_of_float (float_of_int bytes /. t.bps *. 1e9)))

let send_up t ~bytes msg =
  if not t.broken then begin
    t.up_count <- t.up_count + 1;
    Engine.schedule t.engine ~label:"ctrl.up" ~delay:(transfer_delay t bytes)
      (fun () ->
        if not t.broken then
          if t.paused then Queue.add msg t.up_buf else t.up_handler msg)
  end

let send_down t ~bytes msg =
  if not t.broken then begin
    t.down_count <- t.down_count + 1;
    Engine.schedule t.engine ~label:"ctrl.down" ~delay:(transfer_delay t bytes)
      (fun () ->
        if not t.broken then
          if t.paused then Queue.add msg t.down_buf else t.down_handler msg)
  end

let pause t = t.paused <- true

(* drain the Manager-bound queue first, then the Agent-bound one *)
let resume t =
  t.paused <- false;
  while (not t.broken) && (not t.paused) && not (Queue.is_empty t.up_buf) do
    t.up_handler (Queue.pop t.up_buf)
  done;
  while (not t.broken) && (not t.paused) && not (Queue.is_empty t.down_buf) do
    t.down_handler (Queue.pop t.down_buf)
  done

let break t =
  if not t.broken then begin
    t.broken <- true;
    Queue.clear t.up_buf;
    Queue.clear t.down_buf;
    (* both endpoints notice the broken connection after one latency *)
    Engine.schedule t.engine ~label:"ctrl.break" ~delay:t.latency (fun () ->
        List.iter (fun fn -> fn ()) (List.rev t.on_break))
  end

let is_broken t = t.broken

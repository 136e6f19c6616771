(* The simulation analogue of Linux Netfilter as ZapC uses it: an Agent
   blocks all network traffic to and from a pod's (real) addresses for the
   duration of a checkpoint, so the network state cannot change while it is
   being saved.  Packets hitting a blocked address are silently dropped, in
   both directions; reliable protocols recover by retransmission after the
   block is lifted (paper section 5, "in-flight data can be safely
   ignored"). *)

type t = {
  blocked : (Addr.ip, unit) Hashtbl.t;
  mutable drops : int;
}

let create () = { blocked = Hashtbl.create 16; drops = 0 }

let block t ip = Hashtbl.replace t.blocked ip ()
let unblock t ip = Hashtbl.remove t.blocked ip
let is_blocked t ip = Hashtbl.mem t.blocked ip
let blocked_count t = Hashtbl.length t.blocked

let permits t (p : Packet.t) =
  let ok = not (is_blocked t p.src.ip || is_blocked t p.dst.ip) in
  if not ok then t.drops <- t.drops + 1;
  ok

let drop_count t = t.drops

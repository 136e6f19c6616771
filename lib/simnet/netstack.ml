(* Per-node network stack: socket creation, binding, port allocation,
   connection demultiplexing, and packet input from the fabric.  The kernel
   (Zapc_simos) calls into this module to implement socket system calls; the
   ZapC Agent calls into it directly when reconstructing connections at
   restart. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Rng = Zapc_sim.Rng

type t = {
  node : int;
  engine : Engine.t;
  fabric : Fabric.t;
  socks : (int, Socket.t) Hashtbl.t;
  estab : (int * int * int * int * int, Socket.t) Hashtbl.t;
  (* derived from [estab]'s keys, for [port_in_use]: how many keys hold
     each local (proto, ip, port), and under [Addr.any] how many hold
     each (proto, port) on any ip *)
  estab_ports : (int * int * int, int) Hashtbl.t;
  listeners : (int * int * int, Socket.t) Hashtbl.t;
  mutable raws : Socket.t list;
  mutable next_id : int;
  mutable next_port : int;
  mutable local_ips : Addr.ip list;
  rng : Rng.t;
  mutable netctx : Socket.netctx option;  (* built once, lazily *)
  mutable gm : (Packet.t -> string -> unit) option;  (* kernel-bypass device *)
}

let proto_num = function Socket.Stream -> 6 | Socket.Dgram -> 17 | Socket.Raw _ -> 255

let estab_key kind (l : Addr.t) (r : Addr.t) = (proto_num kind, l.ip, l.port, r.ip, r.port)

let create ~node fabric =
  {
    node;
    engine = Fabric.engine fabric;
    fabric;
    socks = Hashtbl.create 64;
    estab = Hashtbl.create 64;
    estab_ports = Hashtbl.create 16;
    listeners = Hashtbl.create 16;
    raws = [];
    next_id = 1;
    next_port = 32768;
    local_ips = [];
    rng = Rng.split (Engine.rng (Fabric.engine fabric));
    netctx = None;
    gm = None;
  }

let bump t k d =
  let n = d + Option.value ~default:0 (Hashtbl.find_opt t.estab_ports k) in
  if n = 0 then Hashtbl.remove t.estab_ports k else Hashtbl.replace t.estab_ports k n

(* Count an [estab] key in or out of the port counts.  [register_estab]
   replaces, so only a key new to [estab] counts in. *)
let count_key t (proto, lip, lport, _, _) d =
  bump t (proto, lip, lport) d;
  bump t (proto, Addr.any, lport) d

let register_estab t (s : Socket.t) =
  match (s.local, s.remote) with
  | Some l, Some r ->
    let k = estab_key s.kind l r in
    if not (Hashtbl.mem t.estab k) then count_key t k 1;
    Hashtbl.replace t.estab k s
  | _ -> ()

let unregister t (s : Socket.t) =
  (match (s.local, s.remote) with
   | Some l, Some r ->
     let k = estab_key s.kind l r in
     (match Hashtbl.find_opt t.estab k with
      | Some s' when s' == s ->
        count_key t k (-1);
        Hashtbl.remove t.estab k
      | Some _ | None -> ())
   | _ -> ());
  (match s.local with
   | Some l ->
     let k = (proto_num s.kind, l.ip, l.port) in
     (match Hashtbl.find_opt t.listeners k with
      | Some s' when s' == s -> Hashtbl.remove t.listeners k
      | Some _ | None -> ())
   | None -> ());
  (match s.kind with
   | Socket.Raw _ -> t.raws <- List.filter (fun s' -> not (s' == s)) t.raws
   | Socket.Stream | Socket.Dgram -> ());
  Hashtbl.remove t.socks s.id

let rec netctx t : Socket.netctx =
  match t.netctx with
  | Some ctx -> ctx
  | None ->
    let ctx =
      {
        Socket.nc_now = (fun () -> Engine.now t.engine);
        nc_schedule = (fun delay fn -> Engine.schedule t.engine ~label:"net.timer" ~delay fn);
        nc_new_timer =
          (fun fn ->
            let tm = Engine.timer ~label:"net.timer" fn in
            {
              Socket.nct_arm_in = (fun delay -> Engine.timer_arm_in t.engine tm ~delay);
              nct_cancel = (fun () -> Engine.timer_cancel tm);
            });
        nc_tx = (fun p -> Fabric.send t.fabric p);
        nc_new_socket = (fun kind -> new_socket t kind);
        nc_register_estab = (fun s -> register_estab t s);
        nc_unregister = (fun s -> unregister t s);
        nc_rng = t.rng;
        nc_stats = { Socket.ns_retransmits = 0; ns_window_stalls = 0 };
      }
    in
    t.netctx <- Some ctx;
    ctx

and new_socket t kind =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let s = Socket.create ~id ~kind ~netctx:(netctx t) in
  Hashtbl.replace t.socks s.Socket.id s;
  (match kind with
   | Socket.Raw _ -> t.raws <- s :: t.raws
   | Socket.Stream | Socket.Dgram -> ());
  s

(* --- packet input --- *)

let deliver_dgram (s : Socket.t) (src : Addr.t) data =
  if s.dgram_bytes + String.length data <= Socket.rcvbuf s then begin
    Queue.add (src, data) s.dgrams;
    s.dgram_bytes <- s.dgram_bytes + String.length data;
    Socket.wake_readers s
  end
(* else: receive buffer full -> datagram silently dropped (UDP semantics) *)

let find_receiver t proto (dst : Addr.t) (src : Addr.t) =
  match Hashtbl.find_opt t.estab (proto, dst.ip, dst.port, src.ip, src.port) with
  | Some s -> Some s
  | None ->
    (match Hashtbl.find_opt t.listeners (proto, dst.ip, dst.port) with
     | Some s -> Some s
     | None -> Hashtbl.find_opt t.listeners (proto, Addr.any, dst.port))

let rst_for (p : Packet.t) (seg : Packet.tcp_seg) =
  let flags = { Packet.no_flags with rst = true; ack = true } in
  let ack_no = seg.seq + String.length seg.payload + (if seg.flags.syn then 1 else 0) in
  {
    Packet.src = p.dst;
    dst = p.src;
    body =
      Packet.Tcp_seg
        { seq = seg.ack_no; ack_no; flags; window = 0; urg_ptr = 0; payload = "" };
  }

let on_packet t (p : Packet.t) =
  match p.body with
  | Packet.Tcp_seg seg ->
    (match Hashtbl.find_opt t.estab (6, p.dst.ip, p.dst.port, p.src.ip, p.src.port) with
     | Some s -> Tcp.on_segment s seg
     | None ->
       (match find_receiver t 6 p.dst p.src with
        | Some s when Socket.is_listening s -> Tcp.on_listener_segment s p.src p.dst seg
        | Some s -> Tcp.on_segment s seg
        | None -> if not seg.flags.rst then Fabric.send t.fabric (rst_for p seg)))
  | Packet.Udp_dgram data ->
    (match find_receiver t 17 p.dst p.src with
     | Some s -> deliver_dgram s p.src data
     | None -> ())
  | Packet.Raw_ip (proto, data) when proto = Gmdev.gm_proto && t.gm <> None ->
    (match t.gm with Some h -> h p data | None -> ())
  | Packet.Raw_ip (proto, data) ->
    List.iter
      (fun (s : Socket.t) ->
        match s.kind with
        | Socket.Raw sp when sp = proto ->
          (match s.local with
           | Some l when not (Addr.equal_ip l.ip Addr.any) ->
             if Addr.equal_ip l.ip p.dst.ip then deliver_dgram s p.src data
           | Some _ | None -> deliver_dgram s p.src data)
        | Socket.Raw _ | Socket.Stream | Socket.Dgram -> ())
      t.raws

(* --- address management --- *)

let add_ip t ip =
  if not (List.exists (fun i -> Addr.equal_ip i ip) t.local_ips) then begin
    t.local_ips <- t.local_ips @ [ ip ];
    Fabric.attach t.fabric ~node:t.node ip (fun p -> on_packet t p)
  end

let remove_ip t ip =
  t.local_ips <- List.filter (fun i -> not (Addr.equal_ip i ip)) t.local_ips;
  Fabric.detach t.fabric ip

let default_ip t = match t.local_ips with ip :: _ -> Some ip | [] -> None
let has_ip t ip = List.exists (fun i -> Addr.equal_ip i ip) t.local_ips

(* A port is in use on [ip] when a listener holds it there or on any
   address, or a connection's local end holds it on [ip] (on any ip, for
   [Addr.any]).  The connection half reads the port counts: O(1) however
   many connections the node holds, where a fold over [estab] made every
   ephemeral bind walk them all. *)
let port_in_use t proto ip port =
  Hashtbl.mem t.listeners (proto, ip, port)
  || (not (Addr.equal_ip ip Addr.any)) && Hashtbl.mem t.listeners (proto, Addr.any, port)
  || Hashtbl.mem t.estab_ports (proto, ip, port)

let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
let listener_keys t = keys t.listeners
let estab_keys t = keys t.estab

let alloc_port t proto ip =
  let start = t.next_port in
  let rec go port =
    let next = if port >= 60999 then 32768 else port + 1 in
    if not (port_in_use t proto ip port) then begin
      t.next_port <- next;
      port
    end
    else if next = start then invalid_arg "Netstack: ephemeral ports exhausted"
    else go next
  in
  go start

(* --- socket operations (the syscall back-ends) --- *)

let bind t (s : Socket.t) (addr : Addr.t) : (unit, Errno.t) result =
  if s.local <> None then Error Errno.EINVAL
  else if (not (Addr.equal_ip addr.ip Addr.any)) && not (has_ip t addr.ip) then
    Error Errno.EADDRNOTAVAIL
  else begin
    let proto = proto_num s.kind in
    let port = if addr.port = 0 then alloc_port t proto addr.ip else addr.port in
    let reuse = Sockopt.get s.opts Sockopt.SO_REUSEADDR <> 0 in
    if addr.port <> 0 && port_in_use t proto addr.ip port && not reuse then
      Error Errno.EADDRINUSE
    else begin
      s.local <- Some { addr with port };
      (match s.kind with
       | Socket.Dgram | Socket.Raw _ ->
         Hashtbl.replace t.listeners (proto, addr.ip, port) s
       | Socket.Stream -> ());
      Ok ()
    end
  end

let listen t (s : Socket.t) backlog : (unit, Errno.t) result =
  match s.kind with
  | Socket.Dgram | Socket.Raw _ -> Error Errno.EOPNOTSUPP
  | Socket.Stream ->
    (match s.local with
     | None -> Error Errno.EINVAL
     | Some l ->
       if Socket.is_listening s then begin
         s.backlog <- Stdlib.max 1 backlog;
         Ok ()
       end
       else if s.tcb <> None then Error Errno.EISCONN
       else begin
         Tcp.listen s backlog;
         Hashtbl.replace t.listeners (6, l.ip, l.port) s;
         Ok ()
       end)

let auto_bind t (s : Socket.t) =
  match s.local with
  | Some _ -> Ok ()
  | None ->
    let ip =
      match s.src_hint with
      | Some ip when has_ip t ip -> Some ip
      | Some _ | None -> default_ip t
    in
    (match ip with
     | None -> Error Errno.ENETUNREACH
     | Some ip -> bind t s { Addr.ip; port = 0 })

(* Initiate a stream connect (non-blocking part); completion is observed via
   the socket state.  For datagram sockets, sets the default peer. *)
let connect_start t (s : Socket.t) (dst : Addr.t) : (unit, Errno.t) result =
  match auto_bind t s with
  | Error e -> Error e
  | Ok () ->
    (match s.kind with
     | Socket.Stream ->
       if s.tcb <> None then Error Errno.EISCONN
       else begin
         s.remote <- Some dst;
         register_estab t s;
         Tcp.connect s;
         Ok ()
       end
     | Socket.Dgram | Socket.Raw _ ->
       (* re-register under the connected 4-tuple for focused demux *)
       (match s.local with
        | Some l ->
          let proto = proto_num s.kind in
          (match Hashtbl.find_opt t.listeners (proto, l.ip, l.port) with
           | Some s' when s' == s -> Hashtbl.remove t.listeners (proto, l.ip, l.port)
           | Some _ | None -> ())
        | None -> ());
       s.remote <- Some dst;
       register_estab t s;
       Ok ())

let accept_take (s : Socket.t) : Socket.t option =
  if Queue.is_empty s.accept_q then None
  else begin
    let child = Queue.pop s.accept_q in
    Some child
  end

let sendto t (s : Socket.t) (dst : Addr.t) data : (int, Errno.t) result =
  match auto_bind t s with
  | Error e -> Error e
  | Ok () ->
    let local = Option.get s.local in
    let src =
      if Addr.equal_ip local.ip Addr.any then
        match default_ip t with
        | Some ip -> { local with Addr.ip }
        | None -> local
      else local
    in
    let body =
      match s.kind with
      | Socket.Dgram -> Packet.Udp_dgram data
      | Socket.Raw proto -> Packet.Raw_ip (proto, data)
      | Socket.Stream -> Packet.Udp_dgram data (* unreachable by callers *)
    in
    if String.length data > 65507 then Error Errno.EMSGSIZE
    else begin
      Fabric.send t.fabric { Packet.src; dst; body };
      Ok (String.length data)
    end

let close t (s : Socket.t) =
  if not s.closed then begin
    s.dispatch.d_release s;
    match s.kind with
    | Socket.Stream ->
      s.closed <- true;
      (match s.tcb with
       | Some _ -> Tcp.close s
       | None ->
         s.closed <- true;
         unregister t s)
    | Socket.Dgram | Socket.Raw _ ->
      s.closed <- true;
      unregister t s
  end

(* Freeze/thaw the TCP timers of every socket bound to [ip] (a pod's real
   address).  Pod suspend/resume call these so a checkpoint-frozen pod's
   network state stops and restarts with the pod instead of burning its
   retransmission budget against the netfilter block. *)
let iter_streams_on t ip f =
  Hashtbl.iter
    (fun _ (s : Socket.t) ->
      match (s.kind, s.local) with
      | Socket.Stream, Some l when Addr.equal_ip l.ip ip && s.tcb <> None -> f s
      | (Socket.Stream | Socket.Dgram | Socket.Raw _), (Some _ | None) -> ())
    t.socks

let freeze_ip t ip = iter_streams_on t ip Tcp.net_freeze
let thaw_ip t ip = iter_streams_on t ip Tcp.net_thaw

let set_gm_handler t h = t.gm <- Some h
let send_packet t p = Fabric.send t.fabric p

let socket_count t = Hashtbl.length t.socks

let net_stats t = (netctx t).Socket.nc_stats
let retransmit_count t = (net_stats t).Socket.ns_retransmits
let window_stall_count t = (net_stats t).Socket.ns_window_stalls

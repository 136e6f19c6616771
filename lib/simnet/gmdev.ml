(* A Myrinet/GM-style kernel-bypass messaging device.

   The paper (end of section 5) says the ZapC approach extends to
   OS-bypass interconnects if (1) the communication library is decoupled
   from the device-driver instance by virtualizing its interface, and
   (2) the state the device holds can be extracted and reinstated on
   another device.  This module implements such a device: applications own
   "ports" addressed by (address, port) and exchange datagrams that bypass
   the socket layer entirely — the receive queues live in the device, not
   in sockets.  Ports satisfy both requirements: the syscall interface is
   interposable by the pod layer (virtual addresses), and the driver
   exposes extract/reinstate hooks used by the pod checkpoint.

   GM-style semantics kept deliberately simple: unordered, unreliable
   datagrams (the pod's netfilter drops in-flight messages during a
   checkpoint, like any other traffic; queued ones are checkpointed). *)

module Simtime = Zapc_sim.Simtime

let gm_proto = 199
let default_capacity = 1 lsl 20

type port = {
  gp_addr : Addr.t;  (* real (ip, port) the hardware demuxes on *)
  rxq : (Addr.t * string) Queue.t;  (* (source gm address, payload) *)
  mutable rx_bytes : int;
  capacity : int;
  rd_waiters : Waitq.t;
  mutable closed : bool;
}

type t = {
  node : int;
  ports : (int * int, port) Hashtbl.t;  (* (ip, port) -> port *)
  mutable next_port : int;
  mutable tx : Packet.t -> unit;  (* wired to the fabric by the stack *)
  mutable drops : int;
}

let create ~node = { node; ports = Hashtbl.create 8; next_port = 1; tx = (fun _ -> ()); drops = 0 }

let set_tx t fn = t.tx <- fn

let wake (p : port) = Waitq.wake p.rd_waiters

(* --- the "library" interface (reached through ioctl-like syscalls) --- *)

let open_port t ~(ip : Addr.ip) ~(port : int) : (port, Errno.t) result =
  let port =
    if port <> 0 then port
    else begin
      let rec fresh () =
        let c = t.next_port in
        t.next_port <- t.next_port + 1;
        if Hashtbl.mem t.ports (ip, c) then fresh () else c
      in
      fresh ()
    end
  in
  if Hashtbl.mem t.ports (ip, port) then Error Errno.EADDRINUSE
  else begin
    let p =
      { gp_addr = { Addr.ip; port }; rxq = Queue.create (); rx_bytes = 0;
        capacity = default_capacity; rd_waiters = Waitq.create (); closed = false }
    in
    Hashtbl.replace t.ports (ip, port) p;
    Ok p
  end

let close_port t (p : port) =
  p.closed <- true;
  Queue.clear p.rxq;
  p.rx_bytes <- 0;
  Hashtbl.remove t.ports (p.gp_addr.ip, p.gp_addr.port);
  wake p

(* wire format: u32 src_port, u32 dst_port, payload *)
let encode_msg ~src_port ~dst_port payload =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int src_port);
  Bytes.set_int32_le b 4 (Int32.of_int dst_port);
  Bytes.unsafe_to_string b ^ payload

let send t (p : port) (dst : Addr.t) payload : (unit, Errno.t) result =
  if p.closed then Error Errno.EBADF
  else begin
    t.tx
      {
        Packet.src = { p.gp_addr with Addr.port = 0 };
        dst = { dst with Addr.port = 0 };
        body =
          Packet.Raw_ip
            (gm_proto, encode_msg ~src_port:p.gp_addr.port ~dst_port:dst.port payload);
      };
    Ok ()
  end

type rres = Gdata of Addr.t * string | Gblock | Gclosed

let recv (p : port) : rres =
  if Queue.is_empty p.rxq then if p.closed then Gclosed else Gblock
  else begin
    let src, payload = Queue.pop p.rxq in
    p.rx_bytes <- p.rx_bytes - String.length payload;
    Gdata (src, payload)
  end

let wait_readable (p : port) w = Waitq.add p.rd_waiters w

(* --- hardware receive path (called from the network stack's demux) --- *)

let on_packet t (pkt : Packet.t) data =
  if String.length data >= 8 then begin
    let src_port = Int32.to_int (String.get_int32_le data 0) in
    let dst_port = Int32.to_int (String.get_int32_le data 4) in
    let payload = String.sub data 8 (String.length data - 8) in
    match Hashtbl.find_opt t.ports (pkt.dst.ip, dst_port) with
    | Some p when (not p.closed) && p.rx_bytes + String.length payload <= p.capacity ->
      Queue.add ({ Addr.ip = pkt.src.ip; port = src_port }, payload) p.rxq;
      p.rx_bytes <- p.rx_bytes + String.length payload;
      wake p
    | Some _ | None -> t.drops <- t.drops + 1
  end

(* --- the driver's extract/reinstate hooks (requirement (2)) --- *)

module Value = Zapc_codec.Value

let extract_port (p : port) ~virt : Value.t
  =
  (* [virt] maps real addresses back to the pod's virtual ones so the saved
     state stays location-independent *)
  Value.assoc
    [ ("addr", Addr.to_value (virt p.gp_addr));
      ("msgs",
       Value.list
         (fun (src, d) -> Value.List [ Addr.to_value (virt src); Value.Str d ])
         (List.of_seq (Queue.to_seq p.rxq))) ]

let reinstate_port t (v : Value.t) ~real : (port, Errno.t) result =
  let addr = real (Addr.of_value (Value.field "addr" v)) in
  match open_port t ~ip:addr.Addr.ip ~port:addr.Addr.port with
  | Error e -> Error e
  | Ok p ->
    List.iter
      (fun m ->
        match m with
        | Value.List [ src; Value.Str d ] ->
          Queue.add (Addr.of_value src, d) p.rxq;
          p.rx_bytes <- p.rx_bytes + String.length d
        | _ -> Value.decode_error "gm msg")
      (Value.to_list (fun x -> x) (Value.field "msgs" v));
    Ok p

let port_count t = Hashtbl.length t.ports
let drop_count t = t.drops

(* Tests for the simulated network stack: socket buffers, TCP state machine
   and reliability, urgent data, UDP, netfilter semantics, and the
   alternate-receive-queue interposition that network-state restore uses. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Addr = Zapc_simnet.Addr
module Packet = Zapc_simnet.Packet
module Fabric = Zapc_simnet.Fabric
module Netfilter = Zapc_simnet.Netfilter
module Netstack = Zapc_simnet.Netstack
module Socket = Zapc_simnet.Socket
module Sockbuf = Zapc_simnet.Sockbuf
module Sockopt = Zapc_simnet.Sockopt
module Tcp = Zapc_simnet.Tcp
module Errno = Zapc_simnet.Errno
module Gmdev = Zapc_simnet.Gmdev
module Waitq = Zapc_simnet.Waitq
module Value = Zapc_codec.Value

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

type env = {
  engine : Engine.t;
  fabric : Fabric.t;
  ns0 : Netstack.t;
  ns1 : Netstack.t;
  ip0 : Addr.ip;
  ip1 : Addr.ip;
}

let setup ?config ?(seed = 11) () =
  let engine = Engine.create ~seed () in
  let fabric = Fabric.create ?config engine in
  let ns0 = Netstack.create ~node:0 fabric in
  let ns1 = Netstack.create ~node:1 fabric in
  let ip0 = Addr.make_ip 10 0 0 1 and ip1 = Addr.make_ip 10 0 0 2 in
  Netstack.add_ip ns0 ip0;
  Netstack.add_ip ns1 ip1;
  { engine; fabric; ns0; ns1; ip0; ip1 }

let run env = Engine.run ~max_events:200000 env.engine
let run_for env d = Engine.run ~until:(Simtime.add (Engine.now env.engine) d) ~max_events:200000 env.engine

(* Establish a TCP connection: returns (client, server) sockets. *)
let establish ?(port = 7000) env =
  let listener = Netstack.new_socket env.ns1 Socket.Stream in
  (match Netstack.bind env.ns1 listener { Addr.ip = env.ip1; port } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e));
  (match Netstack.listen env.ns1 listener 8 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "listen: %s" (Errno.to_string e));
  let client = Netstack.new_socket env.ns0 Socket.Stream in
  (match Netstack.connect_start env.ns0 client { Addr.ip = env.ip1; port } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "connect: %s" (Errno.to_string e));
  run env;
  check tbool "client established" true (Socket.tcp_state client = Socket.St_established);
  let server =
    match Netstack.accept_take listener with
    | Some s -> s
    | None -> Alcotest.fail "no connection in accept queue"
  in
  (listener, client, server)

let send_all s data =
  match Tcp.send_data s data with
  | Ok n when n = String.length data -> ()
  | Ok n -> Alcotest.failf "short send %d/%d" n (String.length data)
  | Error e -> Alcotest.failf "send: %s" (Errno.to_string e)

let recv_str ?(n = 1 lsl 20) s =
  match s.Socket.dispatch.d_recvmsg s Socket.plain_recv n with
  | Socket.Rv_data d -> d
  | Socket.Rv_eof -> ""
  | Socket.Rv_block -> "<block>"
  | Socket.Rv_err e -> "<err:" ^ Errno.to_string e ^ ">"
  | Socket.Rv_from (_, d) -> d

(* --- sockbuf --- *)

let test_sockbuf_basic () =
  let b = Sockbuf.create () in
  Sockbuf.push b "hello ";
  Sockbuf.push b "world";
  check tint "len" 11 (Sockbuf.length b);
  check tstr "peek" "hello" (Sockbuf.peek b 5);
  check tint "peek non-destructive" 11 (Sockbuf.length b);
  check tstr "pop" "hello " (Sockbuf.pop b 6);
  check tstr "pop across chunks" "world" (Sockbuf.pop b 100);
  check tbool "empty" true (Sockbuf.is_empty b)

let test_sockbuf_partial_chunks () =
  let b = Sockbuf.create () in
  Sockbuf.push b "abcdef";
  check tstr "pop2" "ab" (Sockbuf.pop b 2);
  Sockbuf.push b "ghi";
  check tstr "contents" "cdefghi" (Sockbuf.contents b);
  Sockbuf.drop b 3;
  check tstr "after drop" "fghi" (Sockbuf.contents b)

let prop_sockbuf_fifo =
  QCheck.Test.make ~name:"sockbuf is a byte FIFO" ~count:200
    QCheck.(list (string_of_size Gen.(int_bound 20)))
    (fun chunks ->
      let b = Sockbuf.create () in
      List.iter (Sockbuf.push b) chunks;
      let all = String.concat "" chunks in
      let got = Buffer.create 64 in
      while not (Sockbuf.is_empty b) do
        Buffer.add_string got (Sockbuf.pop b 3)
      done;
      String.equal all (Buffer.contents got))

(* --- TCP --- *)

let test_tcp_handshake () =
  let env = setup () in
  let _, client, server = establish env in
  check tbool "server established" true (Socket.tcp_state server = Socket.St_established);
  check tbool "client bound" true (client.Socket.local <> None);
  check tbool "server remote is client" true
    (Addr.equal (Option.get server.Socket.remote) (Option.get client.Socket.local))

let test_tcp_data_transfer () =
  let env = setup () in
  let _, client, server = establish env in
  send_all client "hello over tcp";
  run env;
  check tstr "payload" "hello over tcp" (recv_str server);
  (* and the reverse direction *)
  send_all server "reply";
  run env;
  check tstr "reply" "reply" (recv_str client)

let test_tcp_large_transfer () =
  let env = setup () in
  let _, client, server = establish env in
  (* larger than both MSS and the congestion window *)
  let data = String.init 300_000 (fun i -> Char.chr (i land 0xff)) in
  let sent = ref 0 in
  let received = Buffer.create (String.length data) in
  let rec pump () =
    (* send what fits, drain receiver, repeat *)
    if !sent < String.length data then begin
      match Tcp.send_data client (String.sub data !sent (String.length data - !sent)) with
      | Ok n -> sent := !sent + n
      | Error e -> Alcotest.failf "send: %s" (Errno.to_string e)
    end;
    run_for env (Simtime.ms 50);
    let chunk = recv_str server in
    if chunk <> "<block>" then Buffer.add_string received chunk;
    Tcp.after_app_read server;
    if Buffer.length received < String.length data then pump ()
  in
  pump ();
  check tbool "all bytes in order" true (String.equal data (Buffer.contents received))

let test_tcp_loss_recovery () =
  let env = setup () in
  let _, client, server = establish env in
  (* heavy loss; retransmission must still deliver everything in order *)
  Fabric.set_loss_prob env.fabric 0.2;
  let data = String.init 60_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let sent = ref 0 in
  let received = Buffer.create (String.length data) in
  let guard = ref 0 in
  while Buffer.length received < String.length data && !guard < 2000 do
    incr guard;
    (if !sent < String.length data then
       match Tcp.send_data client (String.sub data !sent (String.length data - !sent)) with
       | Ok n -> sent := !sent + n
       | Error e -> Alcotest.failf "send: %s" (Errno.to_string e));
    run_for env (Simtime.ms 100);
    let chunk = recv_str server in
    if chunk <> "<block>" then Buffer.add_string received chunk;
    Tcp.after_app_read server
  done;
  Fabric.set_loss_prob env.fabric 0.0;
  check tbool "lossy link delivered everything in order" true
    (String.equal data (Buffer.contents received))

(* A checkpoint-image-sized stream over a link with 5% packet loss — the
   condition the restart protocol relies on when images are streamed
   between Agents.  Retransmission must deliver the image intact, and the
   whole exchange must be a pure function of the engine seed: two runs with
   the same seed produce byte-identical images on identical timelines. *)
let stream_image_under_loss ~seed =
  let config = { Fabric.default_config with loss_prob = 0.05 } in
  let env = setup ~config ~seed () in
  let _, client, server = establish env in
  (* synthetic image: header + sections with varied byte patterns *)
  let image =
    String.concat ""
      ("ZAPC-IMG\x01"
       :: List.init 40 (fun s ->
              String.init 2048 (fun i -> Char.chr ((s * 131 + i * 7 + (i lsr 5)) land 0xff))))
  in
  let sent = ref 0 in
  let received = Buffer.create (String.length image) in
  let guard = ref 0 in
  while Buffer.length received < String.length image && !guard < 4000 do
    incr guard;
    (if !sent < String.length image then
       match Tcp.send_data client (String.sub image !sent (String.length image - !sent)) with
       | Ok n -> sent := !sent + n
       | Error e -> Alcotest.failf "send: %s" (Errno.to_string e));
    run_for env (Simtime.ms 50);
    let chunk = recv_str server in
    if chunk <> "<block>" then Buffer.add_string received chunk;
    Tcp.after_app_read server
  done;
  (image, Buffer.contents received, Engine.now env.engine,
   Fabric.packets_delivered env.fabric, Fabric.packets_dropped env.fabric)

let test_tcp_image_stream_lossy_deterministic () =
  let image, got, t1, delivered1, dropped1 = stream_image_under_loss ~seed:23 in
  check tbool "image intact under 5% loss" true (String.equal image got);
  check tbool "loss actually happened" true (dropped1 > 0);
  (* same seed: bit-identical delivery on an identical timeline *)
  let _, got2, t2, delivered2, dropped2 = stream_image_under_loss ~seed:23 in
  check tstr "byte-identical images across runs" got got2;
  check tbool "identical finish time" true (Simtime.compare t1 t2 = 0);
  check tint "identical delivered count" delivered1 delivered2;
  check tint "identical dropped count" dropped1 dropped2;
  (* a different seed draws a different loss pattern (sanity: the RNG is
     actually in the loop) but still delivers the image *)
  let _, got3, _, _, dropped3 = stream_image_under_loss ~seed:24 in
  check tbool "other seed still intact" true (String.equal image got3);
  check tbool "other seed, other loss pattern" true (dropped3 <> dropped1)

let test_tcp_fin_eof () =
  let env = setup () in
  let _, client, server = establish env in
  send_all client "last words";
  Tcp.shutdown_write client;
  run env;
  check tstr "data before fin" "last words" (recv_str server);
  check tstr "eof" "" (recv_str server);
  (* server can still write (half duplex) *)
  send_all server "still open";
  run env;
  check tstr "half duplex" "still open" (recv_str client)

let test_tcp_full_close () =
  let env = setup () in
  let _, client, server = establish env in
  Tcp.close client;
  Tcp.close server;
  run env;
  (* both sides wind down to Closed (via TIME_WAIT) *)
  run_for env (Simtime.sec 2.0);
  check tbool "client closed" true
    (match Socket.tcp_state client with Socket.St_closed | Socket.St_time_wait -> true | _ -> false);
  check tbool "server closed" true
    (match Socket.tcp_state server with Socket.St_closed | Socket.St_time_wait -> true | _ -> false)

let test_tcp_connection_refused () =
  let env = setup () in
  let client = Netstack.new_socket env.ns0 Socket.Stream in
  (match Netstack.connect_start env.ns0 client { Addr.ip = env.ip1; port = 9999 } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "connect: %s" (Errno.to_string e));
  run env;
  check tbool "refused" true
    (Socket.tcp_state client = Socket.St_closed && client.Socket.err = Some Errno.ECONNREFUSED)

let test_tcp_oob () =
  let env = setup () in
  let _, client, server = establish env in
  send_all client "normal";
  (match Tcp.send_oob client '!' with
   | Ok () -> ()
   | Error e -> Alcotest.failf "oob: %s" (Errno.to_string e));
  run env;
  (* urgent byte is out of band: not in the stream *)
  check tstr "stream data" "normal" (recv_str server);
  check tbool "oob byte present" true (server.Socket.oob_byte = Some '!');
  (match server.Socket.dispatch.d_recvmsg server { Socket.peek = false; oob = true; dontwait = false } 1 with
   | Socket.Rv_data "!" -> ()
   | _ -> Alcotest.fail "MSG_OOB read failed");
  check tbool "oob consumed" true (server.Socket.oob_byte = None)

let test_tcp_peek () =
  let env = setup () in
  let _, client, server = establish env in
  send_all client "peekable";
  run env;
  (match server.Socket.dispatch.d_recvmsg server { Socket.peek = true; oob = false; dontwait = false } 4 with
   | Socket.Rv_data "peek" -> ()
   | _ -> Alcotest.fail "peek failed");
  check tstr "data still there" "peekable" (recv_str server)

let test_tcp_zero_window_flow_control () =
  let env = setup () in
  let _, client, server = establish env in
  (* tiny receive buffer on the server: sender must stall, then resume *)
  Sockopt.set server.Socket.opts Sockopt.SO_RCVBUF 4096;
  let data = String.init 40_000 (fun i -> Char.chr (i land 0xff)) in
  let sent = ref 0 in
  let received = Buffer.create 40_000 in
  let guard = ref 0 in
  while Buffer.length received < String.length data && !guard < 500 do
    incr guard;
    (if !sent < String.length data then
       match Tcp.send_data client (String.sub data !sent (String.length data - !sent)) with
       | Ok n -> sent := !sent + n
       | Error _ -> ());
    run_for env (Simtime.ms 30);
    (* receiver drains slowly *)
    let chunk =
      match server.Socket.dispatch.d_recvmsg server Socket.plain_recv 2048 with
      | Socket.Rv_data d -> d
      | _ -> ""
    in
    Buffer.add_string received chunk;
    Tcp.after_app_read server;
    run_for env (Simtime.ms 5)
  done;
  check tbool "flow controlled transfer completes in order" true
    (String.equal data (Buffer.contents received));
  check tbool "receive queue never blew past rcvbuf" true
    (Sockbuf.length server.Socket.recvq <= 3 * 4096)

(* netfilter blocks both directions; in-flight data is dropped and
   retransmission recovers it after unblocking (the checkpoint scenario) *)
let test_netfilter_block_and_recover () =
  let env = setup () in
  let _, client, server = establish env in
  let nf = Fabric.netfilter env.fabric in
  send_all client "before-block ";
  run env;
  check tstr "pre" "before-block " (recv_str server);
  (* block the server's address, then send: data must NOT arrive *)
  Netfilter.block nf env.ip1;
  send_all client "during-block ";
  run_for env (Simtime.ms 50);
  check tstr "blocked" "<block>" (recv_str server);
  (* unblock; RTO-based retransmission delivers it *)
  Netfilter.unblock nf env.ip1;
  run_for env (Simtime.sec 8.0);
  check tstr "recovered after unblock" "during-block " (recv_str server)

let test_altqueue_interposition () =
  let env = setup () in
  let _, client, server = establish env in
  (* park restored data in the alternate queue, then deliver new data *)
  Socket.install_altqueue server "RESTORED.";
  check tbool "interposed" true server.Socket.dispatch.interposed;
  send_all client "FRESH";
  run env;
  (* restored data must be consumed before anything newer *)
  check tstr "altq first" "RESTORED." (recv_str server ~n:9);
  check tstr "then fresh data" "FRESH" (recv_str server);
  check tbool "uninstalled after depletion" true (not server.Socket.dispatch.interposed)

let test_altqueue_poll_and_release () =
  let env = setup () in
  let _, _, server = establish env in
  Socket.install_altqueue server "x";
  let ev = server.Socket.dispatch.d_poll server in
  check tbool "readable via altq" true ev.Socket.readable;
  server.Socket.dispatch.d_release server;
  check tbool "released" true (Sockbuf.is_empty server.Socket.altq);
  check tbool "uninstalled" true (not server.Socket.dispatch.interposed)

(* --- UDP --- *)

let test_udp_basic () =
  let env = setup () in
  let a = Netstack.new_socket env.ns0 Socket.Dgram in
  let b = Netstack.new_socket env.ns1 Socket.Dgram in
  (match Netstack.bind env.ns1 b { Addr.ip = env.ip1; port = 5353 } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e));
  (match Netstack.sendto env.ns0 a { Addr.ip = env.ip1; port = 5353 } "ping" with
   | Ok 4 -> ()
   | _ -> Alcotest.fail "sendto");
  run env;
  (match b.Socket.dispatch.d_recvmsg b Socket.plain_recv 100 with
   | Socket.Rv_from (from, "ping") ->
     check tbool "source ip" true (Addr.equal_ip from.Addr.ip env.ip0)
   | _ -> Alcotest.fail "recvfrom");
  (* datagram boundaries preserved *)
  ignore (Netstack.sendto env.ns0 a { Addr.ip = env.ip1; port = 5353 } "one");
  ignore (Netstack.sendto env.ns0 a { Addr.ip = env.ip1; port = 5353 } "two");
  run env;
  (match b.Socket.dispatch.d_recvmsg b Socket.plain_recv 100 with
   | Socket.Rv_from (_, "one") -> ()
   | _ -> Alcotest.fail "boundary 1");
  (match b.Socket.dispatch.d_recvmsg b Socket.plain_recv 100 with
   | Socket.Rv_from (_, "two") -> ()
   | _ -> Alcotest.fail "boundary 2")

let test_udp_connected_demux () =
  let env = setup () in
  let b = Netstack.new_socket env.ns1 Socket.Dgram in
  (match Netstack.bind env.ns1 b { Addr.ip = env.ip1; port = 6000 } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e));
  let a = Netstack.new_socket env.ns0 Socket.Dgram in
  (match Netstack.bind env.ns0 a { Addr.ip = env.ip0; port = 6001 } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e));
  (match Netstack.connect_start env.ns0 a { Addr.ip = env.ip1; port = 6000 } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "connect: %s" (Errno.to_string e));
  (match
     Netstack.sendto env.ns0 a (Option.get a.Socket.remote) "via-connected"
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "send: %s" (Errno.to_string e));
  run env;
  (match b.Socket.dispatch.d_recvmsg b Socket.plain_recv 100 with
   | Socket.Rv_from (_, "via-connected") -> ()
   | _ -> Alcotest.fail "recv at bound socket")

let test_udp_buffer_overflow_drops () =
  let env = setup () in
  let b = Netstack.new_socket env.ns1 Socket.Dgram in
  Sockopt.set b.Socket.opts Sockopt.SO_RCVBUF 1000;
  (match Netstack.bind env.ns1 b { Addr.ip = env.ip1; port = 6100 } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e));
  let a = Netstack.new_socket env.ns0 Socket.Dgram in
  for _ = 1 to 10 do
    ignore (Netstack.sendto env.ns0 a { Addr.ip = env.ip1; port = 6100 } (String.make 300 'd'))
  done;
  run env;
  (* only 3 * 300 = 900 bytes fit *)
  check tint "drops beyond rcvbuf" 3 (Queue.length b.Socket.dgrams)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"ip dotted-quad roundtrip" ~count:200
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let ip = Addr.make_ip a b c d in
      Addr.ip_of_string (Addr.ip_to_string ip) = ip)

let test_sockopt_defaults_and_save () =
  let t = Sockopt.create () in
  check tint "rcvbuf default" 262144 (Sockopt.get t Sockopt.SO_RCVBUF);
  Sockopt.set t Sockopt.TCP_NODELAY 1;
  let v = Sockopt.to_value t in
  let t2 = Sockopt.of_value v in
  check tint "nodelay restored" 1 (Sockopt.get t2 Sockopt.TCP_NODELAY);
  check tint "mss restored" 1448 (Sockopt.get t2 Sockopt.TCP_MAXSEG)

(* The options table against the generic hashtable it replaced, kept here
   as the reference model: a key reads its default until set, [copy_into]
   copies only the keys the source set explicitly, [of_value] sets every
   key it names. *)
module Hashtbl_model = struct
  type t = (Sockopt.key, int) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let get (t : t) k = match Hashtbl.find_opt t k with Some v -> v | None -> Sockopt.default k
  let set (t : t) k v = Hashtbl.replace t k v

  let to_value t =
    Value.Assoc (List.map (fun k -> (Sockopt.key_name k, Value.Int (get t k))) Sockopt.all_keys)

  let of_value v =
    let t = create () in
    List.iter
      (fun (name, v) -> set t (Sockopt.key_of_name name) (Value.to_int v))
      (Value.to_assoc v);
    t

  let copy_into ~(src : t) ~(dst : t) = Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src
end

let n_tables = 3
let key_array = Array.of_list Sockopt.all_keys

type opt_op =
  | O_set of int * int * int  (* table, key index, value *)
  | O_get of int * int
  | O_copy of int * int  (* src, dst *)
  | O_to_value of int
  | O_roundtrip of int * int  (* dst := of_value (to_value src) *)
  | O_of_partial of int * (int * int) list  (* dst := of_value of these keys *)
  | O_fresh of int

let pp_opt_op =
  let k i = Sockopt.key_name key_array.(i) in
  function
  | O_set (t, i, v) -> Printf.sprintf "set t%d %s %d" t (k i) v
  | O_get (t, i) -> Printf.sprintf "get t%d %s" t (k i)
  | O_copy (a, b) -> Printf.sprintf "copy t%d -> t%d" a b
  | O_to_value t -> Printf.sprintf "to_value t%d" t
  | O_roundtrip (a, b) -> Printf.sprintf "t%d := of_value (to_value t%d)" b a
  | O_of_partial (t, kvs) ->
    Printf.sprintf "t%d := of_value [%s]" t
      (String.concat "; " (List.map (fun (i, v) -> Printf.sprintf "%s=%d" (k i) v) kvs))
  | O_fresh t -> Printf.sprintf "t%d := create" t

(* Values are often the key's default, so a table that confused "set" with
   "differs from the default" would copy the wrong keys. *)
let gen_opt_ops =
  let open QCheck.Gen in
  let tbl = int_bound (n_tables - 1) in
  let key = int_bound (Array.length key_array - 1) in
  let kv =
    key >>= fun i ->
    map (fun v -> (i, v)) (oneof [ return (Sockopt.default key_array.(i)); int_range 0 4 ])
  in
  let op =
    frequency
      [ (5, map2 (fun t (i, v) -> O_set (t, i, v)) tbl kv);
        (3, map2 (fun t i -> O_get (t, i)) tbl key);
        (3, map2 (fun a b -> O_copy (a, b)) tbl tbl);
        (1, map (fun t -> O_to_value t) tbl);
        (1, map2 (fun a b -> O_roundtrip (a, b)) tbl tbl);
        (1, map2 (fun t kvs -> O_of_partial (t, kvs)) tbl (list_size (int_bound 4) kv));
        (1, map (fun t -> O_fresh t) tbl) ]
  in
  list_size (int_range 1 40) op

let prop_sockopt_matches_hashtbl_model =
  QCheck.Test.make ~name:"options table matches the hashtable model" ~count:2000
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat ", " (List.map pp_opt_op ops))
       gen_opt_ops)
    (fun ops ->
      let real = Array.init n_tables (fun _ -> Sockopt.create ()) in
      let model = Array.init n_tables (fun _ -> Hashtbl_model.create ()) in
      let agree t = Sockopt.to_value real.(t) = Hashtbl_model.to_value model.(t) in
      let step = function
        | O_set (t, i, v) ->
          Sockopt.set real.(t) key_array.(i) v;
          Hashtbl_model.set model.(t) key_array.(i) v;
          true
        | O_get (t, i) ->
          Sockopt.get real.(t) key_array.(i) = Hashtbl_model.get model.(t) key_array.(i)
        | O_copy (a, b) ->
          Sockopt.copy_into ~src:real.(a) ~dst:real.(b);
          Hashtbl_model.copy_into ~src:model.(a) ~dst:model.(b);
          true
        | O_to_value t -> agree t
        | O_roundtrip (a, b) ->
          real.(b) <- Sockopt.of_value (Sockopt.to_value real.(a));
          model.(b) <- Hashtbl_model.of_value (Hashtbl_model.to_value model.(a));
          true
        | O_of_partial (t, kvs) ->
          let v =
            Value.Assoc
              (List.map (fun (i, v) -> (Sockopt.key_name key_array.(i), Value.Int v)) kvs)
          in
          real.(t) <- Sockopt.of_value v;
          model.(t) <- Hashtbl_model.of_value v;
          true
        | O_fresh t ->
          real.(t) <- Sockopt.create ();
          model.(t) <- Hashtbl_model.create ();
          true
      in
      List.for_all step ops && List.for_all agree (List.init n_tables Fun.id))

(* --- wait queues --- *)

(* A closure queued twice runs once, at its first registration's place. *)
let test_waitq_dedupe () =
  let env = setup () in
  let s = Netstack.new_socket env.ns0 Socket.Stream in
  let ran = ref [] in
  let w1 _ = ran := "w1" :: !ran and w2 _ = ran := "w2" :: !ran in
  Socket.wait_readable s w1;
  Socket.wait_readable s w2;
  Socket.wait_readable s w1;
  Socket.wake_readers s;
  check (Alcotest.list tstr) "w1, w2, each once" [ "w1"; "w2" ] (List.rev !ran);
  check tint "queue emptied" 0 (Waitq.length s.Socket.rd_waiters);
  (* the same on a gm port, woken by its close *)
  let gm = Gmdev.create ~node:0 in
  let port = Result.get_ok (Gmdev.open_port gm ~ip:env.ip0 ~port:0) in
  ran := [];
  Gmdev.wait_readable port w2;
  Gmdev.wait_readable port w1;
  Gmdev.wait_readable port w2;
  Gmdev.close_port gm port;
  check (Alcotest.list tstr) "gm port: w2, w1, each once" [ "w2"; "w1" ] (List.rev !ran)

(* A wake runs the batch it emptied; what its closures queue waits for the
   next wake. *)
let test_waitq_add_during_wake () =
  let q = Waitq.create () in
  let ran = ref [] in
  let rec w1 qid =
    ran := Printf.sprintf "w1 from %b" (qid = Waitq.id q) :: !ran;
    Waitq.add q w1;
    Waitq.add q w3
  and w3 _ = ran := "w3" :: !ran in
  Waitq.add q w1;
  Waitq.wake q;
  check (Alcotest.list tstr) "first batch: w1 only, given the queue's id" [ "w1 from true" ]
    (List.rev !ran);
  check tint "re-queued for the next batch" 2 (Waitq.length q);
  ran := [];
  Waitq.add q w3;
  Waitq.wake q;
  check (Alcotest.list tstr) "next batch in registration order" [ "w1 from true"; "w3" ]
    (List.rev !ran)

let test_ephemeral_ports_distinct () =
  let env = setup () in
  let mk () =
    let s = Netstack.new_socket env.ns0 Socket.Stream in
    (match Netstack.bind env.ns0 s { Addr.ip = env.ip0; port = 0 } with
     | Ok () -> ()
     | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e));
    (Option.get s.Socket.local).Addr.port
  in
  let ports = List.init 50 (fun _ -> mk ()) in
  check tint "all distinct" 50 (List.length (List.sort_uniq Int.compare ports))

(* --- port_in_use against a scan of the tables ---

   [Netstack.port_in_use] answers its connection half from per-port
   counts that [register_estab] and [unregister] keep.  The reference is
   the scan it replaced: a listener on the ip or on any address, or a
   connection key whose local end holds the port on the ip (on any ip,
   for [Addr.any]).  Random binds (ephemeral and explicit, on any or one
   ip, with and without SO_REUSEADDR), connects, closes, direct
   unregisters and re-registrations over streams and datagrams, and
   datagram twins that take over a connected socket's key, with the
   engine run now and then; after every op both stacks must answer as
   the scan for every protocol, ip and port the run can touch. *)

type port_op =
  | P_bind of bool * bool * int * bool  (* stream, on any ip, port (0: ephemeral), reuse *)
  | P_connect of int * int  (* socket, remote port *)
  | P_close of int
  | P_unregister of int
  | P_reregister of int
  | P_twin of int  (* a datagram socket on the same 4-tuple, replacing its key *)
  | P_run

let show_port_op = function
  | P_bind (st, any, port, reuse) ->
    Printf.sprintf "bind %s %s:%d%s" (if st then "stream" else "dgram")
      (if any then "any" else "ip0") port (if reuse then " reuse" else "")
  | P_connect (i, port) -> Printf.sprintf "connect s%d :%d" i port
  | P_close i -> Printf.sprintf "close s%d" i
  | P_unregister i -> Printf.sprintf "unregister s%d" i
  | P_reregister i -> Printf.sprintf "reregister s%d" i
  | P_twin i -> Printf.sprintf "twin s%d" i
  | P_run -> "run"

(* explicit ports collide with the first ephemeral ones and each other *)
let port_window = [ 32768; 32769; 32770; 32771; 7000; 7001 ]

let gen_port_op =
  let open QCheck.Gen in
  let sock = int_bound 15 in
  frequency
    [ ( 6,
        map3
          (fun (st, any) port reuse -> P_bind (st, any, port, reuse))
          (pair bool bool)
          (frequency [ (2, return 0); (3, oneofl port_window) ])
          (frequency [ (3, return false); (1, return true) ]) );
      (5, map2 (fun i port -> P_connect (i, port)) sock (oneofl [ 7000; 7001; 9 ]));
      (2, map (fun i -> P_close i) sock);
      (1, map (fun i -> P_unregister i) sock);
      (1, map (fun i -> P_reregister i) sock);
      (2, map (fun i -> P_twin i) sock);
      (2, return P_run) ]

let scan_port_in_use ns proto ip port =
  let any = Addr.equal_ip ip Addr.any in
  List.exists
    (fun (pr, lip, lport) ->
      pr = proto && lport = port
      && (Addr.equal_ip lip ip || ((not any) && Addr.equal_ip lip Addr.any)))
    (Netstack.listener_keys ns)
  || List.exists
       (fun (pr, lip, lport, _, _) -> pr = proto && lport = port && (any || Addr.equal_ip lip ip))
       (Netstack.estab_keys ns)

let prop_port_in_use_matches_scan =
  QCheck.Test.make ~name:"port_in_use matches a scan of the tables" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_port_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) gen_port_op))
    (fun ops ->
      let env = setup () in
      (* listeners on ns1 that stream connects reach; port 9 refuses *)
      List.iter
        (fun port ->
          let l = Netstack.new_socket env.ns1 Socket.Stream in
          ignore (Netstack.bind env.ns1 l { Addr.ip = env.ip1; port });
          ignore (Netstack.listen env.ns1 l 16);
          let u = Netstack.new_socket env.ns1 Socket.Dgram in
          ignore (Netstack.bind env.ns1 u { Addr.ip = env.ip1; port }))
        [ 7000; 7001 ];
      let socks = ref [||] in
      let sock i =
        let n = Array.length !socks in
        if n = 0 then None else Some !socks.(i mod n)
      in
      let agree () =
        List.for_all
          (fun (ns, ips) ->
            let ports =
              List.sort_uniq Int.compare
                (port_window
                @ List.map (fun (_, _, p, _, _) -> p) (Netstack.estab_keys ns)
                @ List.map (fun (_, _, p) -> p) (Netstack.listener_keys ns))
            in
            List.for_all
              (fun proto ->
                List.for_all
                  (fun ip ->
                    List.for_all
                      (fun port ->
                        Netstack.port_in_use ns proto ip port = scan_port_in_use ns proto ip port)
                      ports)
                  (Addr.any :: ips))
              [ 6; 17 ])
          [ (env.ns0, [ env.ip0 ]); (env.ns1, [ env.ip1 ]) ]
      in
      List.for_all
        (fun op ->
          (match op with
           | P_bind (stream, any, port, reuse) ->
             let s = Netstack.new_socket env.ns0 (if stream then Socket.Stream else Socket.Dgram) in
             if reuse then Sockopt.set s.Socket.opts Sockopt.SO_REUSEADDR 1;
             let ip = if any then Addr.any else env.ip0 in
             ignore (Netstack.bind env.ns0 s { Addr.ip; port });
             socks := Array.append !socks [| s |]
           | P_connect (i, port) ->
             Option.iter
               (fun s -> ignore (Netstack.connect_start env.ns0 s { Addr.ip = env.ip1; port }))
               (sock i)
           | P_close i -> Option.iter (Netstack.close env.ns0) (sock i)
           | P_unregister i -> Option.iter (fun (s : Socket.t) -> s.netctx.nc_unregister s) (sock i)
           | P_reregister i ->
             Option.iter (fun (s : Socket.t) -> s.netctx.nc_register_estab s) (sock i)
           | P_twin i ->
             (match sock i with
              | Some ({ Socket.kind = Socket.Dgram; local = Some l; remote = Some r; _ } : Socket.t)
                ->
                let s = Netstack.new_socket env.ns0 Socket.Dgram in
                Sockopt.set s.Socket.opts Sockopt.SO_REUSEADDR 1;
                ignore (Netstack.bind env.ns0 s l);
                ignore (Netstack.connect_start env.ns0 s r);
                socks := Array.append !socks [| s |]
              | Some _ | None -> ())
           | P_run -> run_for env (Simtime.ms 50));
          agree ())
        ops)

(* Every ephemeral port held by a connection: the next ephemeral bind
   raises, and closing one frees exactly that port. *)
let test_ephemeral_ports_exhausted () =
  let env = setup () in
  let peer = { Addr.ip = env.ip1; port = 9 } in
  let socks =
    Array.init (60999 - 32768 + 1) (fun i ->
        let s = Netstack.new_socket env.ns0 Socket.Dgram in
        (match Netstack.bind env.ns0 s { Addr.ip = env.ip0; port = 32768 + i } with
         | Ok () -> ()
         | Error e -> Alcotest.failf "bind %d: %s" (32768 + i) (Errno.to_string e));
        ignore (Netstack.connect_start env.ns0 s peer);
        s)
  in
  check tint "no listener left" 0 (List.length (Netstack.listener_keys env.ns0));
  let ephemeral ip =
    let s = Netstack.new_socket env.ns0 Socket.Dgram in
    match Netstack.bind env.ns0 s { Addr.ip; port = 0 } with
    | Ok () -> Some (Option.get s.Socket.local).Addr.port
    | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e)
    | exception Invalid_argument _ -> None
  in
  check tbool "exhausted on the ip" true (ephemeral env.ip0 = None);
  check tbool "exhausted on any ip" true (ephemeral Addr.any = None);
  Netstack.close env.ns0 socks.(4321);
  check tbool "the freed port comes back" true (ephemeral env.ip0 = Some (32768 + 4321))

let test_bind_conflict () =
  let env = setup () in
  let s1 = Netstack.new_socket env.ns0 Socket.Stream in
  (match Netstack.bind env.ns0 s1 { Addr.ip = env.ip0; port = 8080 } with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bind: %s" (Errno.to_string e));
  (match Netstack.listen env.ns0 s1 4 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "listen: %s" (Errno.to_string e));
  let s2 = Netstack.new_socket env.ns0 Socket.Stream in
  (match Netstack.bind env.ns0 s2 { Addr.ip = env.ip0; port = 8080 } with
   | Error Errno.EADDRINUSE -> ()
   | Ok () -> Alcotest.fail "expected EADDRINUSE"
   | Error e -> Alcotest.failf "unexpected: %s" (Errno.to_string e))

let test_raw_ip () =
  let env = setup () in
  let a = Netstack.new_socket env.ns0 (Socket.Raw 89) in
  let b = Netstack.new_socket env.ns1 (Socket.Raw 89) in
  ignore b;
  (match Netstack.sendto env.ns0 a { Addr.ip = env.ip1; port = 0 } "ospf-hello" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "raw send: %s" (Errno.to_string e));
  run env;
  (match b.Socket.dispatch.d_recvmsg b Socket.plain_recv 100 with
   | Socket.Rv_from (_, "ospf-hello") -> ()
   | _ -> Alcotest.fail "raw recv")

(* property: whatever the seed, loss rate and write pattern, TCP delivers
   exactly the sent byte stream, in order *)
let prop_tcp_integrity =
  QCheck.Test.make ~name:"tcp delivers the exact byte stream under loss" ~count:25
    QCheck.(triple small_int (int_range 0 25) (list_of_size Gen.(int_range 1 12) (int_range 1 5000)))
    (fun (seed, loss_pct, writes) ->
      let env = setup ~seed:(seed + 1) () in
      let _, client, server = establish env in
      Fabric.set_loss_prob env.fabric (float_of_int loss_pct /. 100.0);
      let data =
        String.concat ""
          (List.mapi (fun i n -> String.make n (Char.chr ((i + 65) land 0xff))) writes)
      in
      let sent = ref 0 in
      let received = Buffer.create (String.length data) in
      let guard = ref 0 in
      while Buffer.length received < String.length data && !guard < 3000 do
        incr guard;
        (if !sent < String.length data then
           match Tcp.send_data client (String.sub data !sent (String.length data - !sent)) with
           | Ok n -> sent := !sent + n
           | Error _ -> ());
        run_for env (Simtime.ms 120);
        (match server.Socket.dispatch.d_recvmsg server Socket.plain_recv (1 lsl 20) with
         | Socket.Rv_data d -> Buffer.add_string received d
         | _ -> ());
        Tcp.after_app_read server
      done;
      String.equal data (Buffer.contents received))

let test_keepalive_detects_dead_peer () =
  let env = setup () in
  let _, client, server = establish env in
  (* aggressive keepalive so the test is quick: 1s idle, 1s interval, 2 probes *)
  Sockopt.set client.Socket.opts Sockopt.SO_KEEPALIVE 1;
  Sockopt.set client.Socket.opts Sockopt.TCP_KEEPIDLE 1;
  Sockopt.set client.Socket.opts Sockopt.TCP_KEEPINTVL 1;
  Sockopt.set client.Socket.opts Sockopt.TCP_KEEPCNT 2;
  Tcp.refresh_keepalive client;
  (* a healthy idle peer answers the probes: connection stays up *)
  run_for env (Simtime.sec 6.0);
  check tbool "alive while peer answers" true
    (Socket.tcp_state client = Socket.St_established);
  (* now the peer dies silently (all its traffic blackholed) *)
  Netfilter.block (Fabric.netfilter env.fabric) env.ip1;
  run_for env (Simtime.sec 8.0);
  check tbool "dead peer detected" true (Socket.tcp_state client = Socket.St_closed);
  check tbool "etimedout" true (client.Socket.err = Some Errno.ETIMEDOUT);
  ignore server

let test_keepalive_off_no_probes () =
  let env = setup () in
  let _, client, _server = establish env in
  (* keepalive NOT set: a silently dead peer goes unnoticed on an idle
     connection (classic TCP semantics) *)
  Netfilter.block (Fabric.netfilter env.fabric) env.ip1;
  run_for env (Simtime.sec 10.0);
  check tbool "still nominally established" true
    (Socket.tcp_state client = Socket.St_established)

(* PCB invariant under load: recv1 >= acked2 (paper Figure 4) *)
let test_pcb_invariant () =
  let env = setup () in
  let _, client, server = establish env in
  for i = 1 to 20 do
    send_all client (Printf.sprintf "chunk-%03d." i);
    run_for env (Simtime.ms 2)
  done;
  run env;
  let ct = Option.get client.Socket.tcb and st = Option.get server.Socket.tcb in
  check tbool "recv1 >= acked2" true (st.Socket.rcv_nxt >= ct.Socket.snd_una);
  check tbool "acked <= sent" true (ct.Socket.snd_una <= ct.Socket.snd_nxt)

(* --- poll readiness without the event record ---

   [Socket.poll_relevant] must answer exactly what the [d_poll] record
   says, for every socket state a random mix of TCP and UDP traffic
   reaches: listeners with queued children, refused and reset connections,
   half and full closes, loss, and a zero window that fills the sender's
   queue. *)

let relevant_of_record s ~want_read ~want_write =
  let ev = s.Socket.dispatch.d_poll s in
  (ev.Socket.readable && want_read) || (ev.writable && want_write) || ev.pollerr || ev.hangup

let poll_relevant_agrees s =
  List.for_all
    (fun (want_read, want_write) ->
      Socket.poll_relevant s ~want_read ~want_write
      = relevant_of_record s ~want_read ~want_write)
    [ (false, false); (true, false); (false, true); (true, true) ]

type rd_op =
  | R_listen
  | R_connect of int  (* target port offset; some have no listener *)
  | R_accept of int
  | R_send of int * int  (* socket, bytes *)
  | R_recv of int * int
  | R_shutdown of int * bool  (* socket, write side? *)
  | R_close of int
  | R_loss of bool
  | R_rst of int
  | R_udp of bool  (* on the second stack? *)
  | R_sendto of int * int * int  (* from, to, bytes *)

let show_rd_op = function
  | R_listen -> "listen"
  | R_connect j -> Printf.sprintf "connect :%d" (7000 + j)
  | R_accept i -> Printf.sprintf "accept s%d" i
  | R_send (i, n) -> Printf.sprintf "send s%d %dB" i n
  | R_recv (i, n) -> Printf.sprintf "recv s%d %dB" i n
  | R_shutdown (i, wr) -> Printf.sprintf "shutdown s%d %s" i (if wr then "wr" else "rd")
  | R_close i -> Printf.sprintf "close s%d" i
  | R_loss on -> Printf.sprintf "loss %b" on
  | R_rst i -> Printf.sprintf "rst s%d" i
  | R_udp second -> Printf.sprintf "udp ns%d" (if second then 1 else 0)
  | R_sendto (i, j, n) -> Printf.sprintf "sendto s%d s%d %dB" i j n

let gen_rd_op =
  let open QCheck.Gen in
  let sock = int_bound 63 and bytes = int_range 1 20_000 in
  frequency
    [ (2, return R_listen);
      (6, map (fun j -> R_connect j) (frequency [ (3, return 0); (3, return 1); (1, return 2); (1, return 3) ]));
      (3, map (fun i -> R_accept i) sock);
      (5, map2 (fun i n -> R_send (i, n)) sock bytes);
      (4, map2 (fun i n -> R_recv (i, n)) sock bytes);
      (1, map2 (fun i wr -> R_shutdown (i, wr)) sock bool);
      (1, map (fun i -> R_close i) sock);
      (1, map (fun on -> R_loss on) bool);
      (1, map (fun i -> R_rst i) sock);
      (2, map (fun second -> R_udp second) bool);
      (2, map3 (fun i j n -> R_sendto (i, j, n)) sock sock (int_range 1 3000)) ]

let prop_poll_relevant_matches_record =
  QCheck.Test.make ~name:"poll_relevant matches the d_poll record" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_rd_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) gen_rd_op))
    (fun ops ->
      let env = setup () in
      (* every socket made so far, with its stack, oldest first *)
      let socks = ref [||] in
      let listeners = ref 0 and udp_ports = ref 0 in
      let push ns s = socks := Array.append !socks [| (ns, s) |] in
      let apply_listen () =
        let l = Netstack.new_socket env.ns1 Socket.Stream in
        ignore (Netstack.bind env.ns1 l { Addr.ip = env.ip1; port = 7000 + !listeners });
        ignore (Netstack.listen env.ns1 l 4);
        incr listeners;
        push env.ns1 l;
        l
      in
      ignore (apply_listen ());
      (* connections to :7001 advertise a zero window from the start, and
         their clients get a small send buffer, so a send fills it *)
      Sockopt.set (apply_listen ()).Socket.opts Sockopt.SO_RCVBUF 0;
      let pick i = if !socks = [||] then None else Some !socks.(i mod Array.length !socks) in
      let all_agree () =
        Array.for_all
          (fun (_, s) ->
            poll_relevant_agrees s
            && Queue.fold (fun ok c -> ok && poll_relevant_agrees c) true s.Socket.accept_q
            && List.for_all poll_relevant_agrees s.Socket.synq)
          !socks
      in
      let apply = function
        | R_listen -> ignore (apply_listen ())
        | R_connect j ->
          let c = Netstack.new_socket env.ns0 Socket.Stream in
          if j = 1 then Sockopt.set c.Socket.opts Sockopt.SO_SNDBUF 4096;
          ignore (Netstack.connect_start env.ns0 c { Addr.ip = env.ip1; port = 7000 + j });
          push env.ns0 c
        | R_accept i ->
          (match pick i with
           | Some (ns, l) when Socket.is_listening l ->
             Option.iter (push ns) (Netstack.accept_take l)
           | Some _ | None -> ())
        | R_send (i, n) ->
          Option.iter
            (fun (_, s) ->
              if s.Socket.kind = Socket.Stream then ignore (Tcp.send_data s (String.make n 'd')))
            (pick i)
        | R_recv (i, n) ->
          Option.iter
            (fun (_, s) ->
              match s.Socket.dispatch.d_recvmsg s Socket.plain_recv n with
              | Socket.Rv_data _ when s.Socket.kind = Socket.Stream -> Tcp.after_app_read s
              | _ -> ())
            (pick i)
        | R_shutdown (i, wr) ->
          Option.iter
            (fun (_, s) ->
              if wr then Tcp.shutdown_write s
              else begin
                s.Socket.shut_rd <- true;
                Socket.wake_readers s
              end)
            (pick i)
        | R_close i ->
          Option.iter (fun (ns, s) -> if not s.Socket.closed then Netstack.close ns s) (pick i)
        | R_loss on -> Fabric.set_loss_prob env.fabric (if on then 0.3 else 0.0)
        | R_rst i ->
          (match pick i with
           | Some (_, ({ Socket.local = Some dst; remote = Some src; kind = Socket.Stream; _ } as s))
             when s.Socket.tcb <> None ->
             let flags = { Packet.no_flags with rst = true } in
             Fabric.send env.fabric
               { Packet.src; dst;
                 body =
                   Packet.Tcp_seg
                     { seq = 0; ack_no = 0; flags; window = 0; urg_ptr = 0; payload = "" } }
           | Some _ | None -> ())
        | R_udp second ->
          let ns, ip = if second then (env.ns1, env.ip1) else (env.ns0, env.ip0) in
          let u = Netstack.new_socket ns Socket.Dgram in
          ignore (Netstack.bind ns u { Addr.ip; port = 9000 + !udp_ports });
          incr udp_ports;
          push ns u
        | R_sendto (i, j, n) ->
          (match (pick i, pick j) with
           | Some (ns, ({ Socket.kind = Socket.Dgram; _ } as u)), Some (_, { Socket.local = Some dst; _ }) ->
             ignore (Netstack.sendto ns u dst (String.make n 'u'))
           | _ -> ())
      in
      List.for_all
        (fun op ->
          apply op;
          let ok = ref (all_agree ()) and steps = ref 0 in
          while !ok && !steps < 40 && Engine.pending env.engine > 0 do
            Engine.run ~max_events:1 env.engine;
            incr steps;
            ok := all_agree ()
          done;
          !ok)
        ops)

(* An interposed socket answers from its poll method: restored data in the
   alternate queue makes it readable though its receive queue is empty. *)
let test_poll_relevant_interposed () =
  let env = setup () in
  let _, _, server = establish env in
  check tbool "idle: not readable" false
    (Socket.poll_relevant server ~want_read:true ~want_write:false);
  Socket.install_altqueue server "restored";
  check tbool "empty receive queue" true (Sockbuf.is_empty server.Socket.recvq);
  check tbool "readable via altq" true
    (Socket.poll_relevant server ~want_read:true ~want_write:false);
  check tbool "agrees with d_poll" true (poll_relevant_agrees server);
  ignore (recv_str server);
  check tbool "drained: uninstalled" false server.Socket.dispatch.interposed;
  check tbool "drained: not readable" false
    (Socket.poll_relevant server ~want_read:true ~want_write:false);
  check tbool "drained: agrees with d_poll" true (poll_relevant_agrees server)

let () =
  Alcotest.run "simnet"
    [ ( "sockbuf",
        [ Alcotest.test_case "basic" `Quick test_sockbuf_basic;
          Alcotest.test_case "partial chunks" `Quick test_sockbuf_partial_chunks;
          QCheck_alcotest.to_alcotest prop_sockbuf_fifo ] );
      ( "tcp",
        [ Alcotest.test_case "handshake" `Quick test_tcp_handshake;
          Alcotest.test_case "data transfer" `Quick test_tcp_data_transfer;
          Alcotest.test_case "large transfer" `Quick test_tcp_large_transfer;
          Alcotest.test_case "loss recovery" `Quick test_tcp_loss_recovery;
          Alcotest.test_case "image stream under loss is deterministic" `Quick
            test_tcp_image_stream_lossy_deterministic;
          Alcotest.test_case "fin/eof" `Quick test_tcp_fin_eof;
          Alcotest.test_case "full close" `Quick test_tcp_full_close;
          Alcotest.test_case "connection refused" `Quick test_tcp_connection_refused;
          Alcotest.test_case "urgent data (oob)" `Quick test_tcp_oob;
          Alcotest.test_case "peek" `Quick test_tcp_peek;
          Alcotest.test_case "zero-window flow control" `Quick test_tcp_zero_window_flow_control;
          Alcotest.test_case "keepalive detects dead peer" `Quick
            test_keepalive_detects_dead_peer;
          Alcotest.test_case "keepalive off: no probes" `Quick test_keepalive_off_no_probes;
          Alcotest.test_case "pcb invariant" `Quick test_pcb_invariant;
          QCheck_alcotest.to_alcotest prop_tcp_integrity ] );
      ( "netfilter",
        [ Alcotest.test_case "block + retransmit recovery" `Quick
            test_netfilter_block_and_recover ] );
      ( "altqueue",
        [ Alcotest.test_case "interposition order" `Quick test_altqueue_interposition;
          Alcotest.test_case "poll/release" `Quick test_altqueue_poll_and_release ] );
      ( "udp",
        [ Alcotest.test_case "basic + boundaries" `Quick test_udp_basic;
          Alcotest.test_case "connected demux" `Quick test_udp_connected_demux;
          Alcotest.test_case "overflow drops" `Quick test_udp_buffer_overflow_drops ] );
      ( "misc",
        [ QCheck_alcotest.to_alcotest prop_addr_roundtrip;
          Alcotest.test_case "sockopt save/restore" `Quick test_sockopt_defaults_and_save;
          Alcotest.test_case "ephemeral ports" `Quick test_ephemeral_ports_distinct;
          QCheck_alcotest.to_alcotest prop_port_in_use_matches_scan;
          Alcotest.test_case "ephemeral ports exhausted" `Quick test_ephemeral_ports_exhausted;
          Alcotest.test_case "bind conflict" `Quick test_bind_conflict;
          Alcotest.test_case "raw ip" `Quick test_raw_ip;
          QCheck_alcotest.to_alcotest prop_sockopt_matches_hashtbl_model ] );
      ( "waitq",
        [ Alcotest.test_case "dedupe, first-registration order" `Quick test_waitq_dedupe;
          Alcotest.test_case "add during wake: next batch" `Quick test_waitq_add_during_wake ] );
      ( "poll",
        [ QCheck_alcotest.to_alcotest prop_poll_relevant_matches_record;
          Alcotest.test_case "interposed socket asks d_poll" `Quick
            test_poll_relevant_interposed ] ) ]

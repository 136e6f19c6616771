(* Purpose-built micro-workloads for the ablation experiments: a bulk
   transfer that leaves large send/receive queues at checkpoint time
   (exercising the send-queue redirection optimization) and an
   urgent-data exchange (exercising the peek-mode capture flaw). *)

module Simtime = Zapc_sim.Simtime
module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Socket = Zapc_simnet.Socket
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall

let u32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

(* Sink: accepts one connection and reads slowly (2 KB every 5 ms), so the
   sender's queues stay full; logs total bytes and a checksum at EOF. *)
module Bulk_sink = struct
  type state = {
    port : int;
    mutable ph : int;  (* 0 socket,1 bind,2 listen,3 accept,4 sleep,5 read *)
    mutable lfd : int;
    mutable cfd : int;
    mutable total : int;
    mutable digest : int;
  }

  let name = "bench.bulk_sink"

  let start args =
    { port = Value.to_int args; ph = 0; lfd = -1; cfd = -1; total = 0; digest = 0 }

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ ->
      s.ph <- 1;
      (s, Program.Sys (Syscall.Sock_create Socket.Stream))
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      s.lfd <- fd;
      s.ph <- 2;
      (s, Program.Sys (Syscall.Bind (fd, { Addr.ip = Addr.any; port = s.port })))
    | 2, _ ->
      s.ph <- 3;
      (s, Program.Sys (Syscall.Listen (s.lfd, 4)))
    | 3, Syscall.Ret (Syscall.Raccept (fd, _)) ->
      s.cfd <- fd;
      s.ph <- 4;
      (s, Program.Sys (Syscall.Nanosleep (Simtime.ms 1)))
    | 3, Syscall.Err _ -> (s, Program.Exit 1)
    | 3, _ -> (s, Program.Sys (Syscall.Accept s.lfd))
    | 4, _ ->
      s.ph <- 5;
      (s, Program.Sys (Syscall.Recv (s.cfd, 2048, Socket.plain_recv)))
    | 5, Syscall.Ret (Syscall.Rdata "") ->
      s.ph <- 6;
      ( s,
        Program.Sys
          (Syscall.Log (Printf.sprintf "sink done total=%d digest=%06x" s.total s.digest)) )
    | 5, Syscall.Ret (Syscall.Rdata d) ->
      s.total <- s.total + String.length d;
      String.iter (fun c -> s.digest <- (s.digest + Char.code c) land 0xFFFFFF) d;
      s.ph <- 4;
      (s, Program.Sys (Syscall.Nanosleep (Simtime.ms 5)))
    | 6, _ -> (s, Program.Exit 0)
    | _, _ -> (s, Program.Exit 2)

  let to_value s =
    Value.assoc
      [ ("port", Value.int s.port); ("ph", Value.int s.ph); ("lfd", Value.int s.lfd);
        ("cfd", Value.int s.cfd); ("total", Value.int s.total);
        ("digest", Value.int s.digest) ]

  let of_value v =
    {
      port = Value.to_int (Value.field "port" v);
      ph = Value.to_int (Value.field "ph" v);
      lfd = Value.to_int (Value.field "lfd" v);
      cfd = Value.to_int (Value.field "cfd" v);
      total = Value.to_int (Value.field "total" v);
      digest = Value.to_int (Value.field "digest" v);
    }
end

(* Sender: connects to the sink and pushes [chunks] x 8 KB as fast as the
   socket accepts, then shuts down. *)
module Bulk_sender = struct
  type state = {
    dst : int;  (* sink vip *)
    port : int;
    chunks : int;
    mutable ph : int;  (* 0 socket,1 connect,2 send,3 shutdown *)
    mutable fd : int;
    mutable sent_chunks : int;
    mutable rem : string;
  }

  let name = "bench.bulk_sender"

  let start args =
    {
      dst = Value.to_int (Value.field "dst" args);
      port = Value.to_int (Value.field "port" args);
      chunks = Value.to_int (Value.field "chunks" args);
      ph = 0;
      fd = -1;
      sent_chunks = 0;
      rem = "";
    }

  let chunk i = String.init 8192 (fun j -> Char.chr ((i + (j * 7)) land 0xff))

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ ->
      s.ph <- 1;
      (s, Program.Sys (Syscall.Sock_create Socket.Stream))
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      s.fd <- fd;
      (s, Program.Sys (Syscall.Connect (fd, { Addr.ip = s.dst; port = s.port })))
    | 1, Syscall.Ret Syscall.Rnone ->
      s.ph <- 2;
      s.rem <- chunk 0;
      (s, Program.Sys (Syscall.Send (s.fd, s.rem)))
    | 1, Syscall.Err _ ->
      (* retry until the sink listens: close, back off, reconnect *)
      s.ph <- 10;
      (s, Program.Sys (Syscall.Close s.fd))
    | 10, _ ->
      s.ph <- 11;
      (s, Program.Sys (Syscall.Nanosleep (Simtime.ms 10)))
    | 11, _ ->
      s.ph <- 1;
      (s, Program.Sys (Syscall.Sock_create Socket.Stream))
    | 2, Syscall.Ret (Syscall.Rint n) ->
      s.rem <- String.sub s.rem n (String.length s.rem - n);
      if String.length s.rem > 0 then (s, Program.Sys (Syscall.Send (s.fd, s.rem)))
      else begin
        s.sent_chunks <- s.sent_chunks + 1;
        if s.sent_chunks >= s.chunks then begin
          s.ph <- 3;
          (s, Program.Sys (Syscall.Shutdown (s.fd, Syscall.Shut_wr)))
        end
        else begin
          s.rem <- chunk s.sent_chunks;
          (s, Program.Sys (Syscall.Send (s.fd, s.rem)))
        end
      end
    | 3, _ -> (s, Program.Sys (Syscall.Log "sender done"))
    | 4, _ -> (s, Program.Exit 0)
    | _, Syscall.Err _ -> (s, Program.Exit 1)
    | _, _ ->
      if s.ph = 3 then begin
        s.ph <- 4;
        (s, Program.Sys (Syscall.Log "sender done"))
      end
      else (s, Program.Exit 2)

  let to_value s =
    Value.assoc
      [ ("dst", Value.int s.dst); ("port", Value.int s.port);
        ("chunks", Value.int s.chunks); ("ph", Value.int s.ph); ("fd", Value.int s.fd);
        ("sent_chunks", Value.int s.sent_chunks); ("rem", Value.str s.rem) ]

  let of_value v =
    {
      dst = Value.to_int (Value.field "dst" v);
      port = Value.to_int (Value.field "port" v);
      chunks = Value.to_int (Value.field "chunks" v);
      ph = Value.to_int (Value.field "ph" v);
      fd = Value.to_int (Value.field "fd" v);
      sent_chunks = Value.to_int (Value.field "sent_chunks" v);
      rem = Value.to_str (Value.field "rem" v);
    }
end

(* OOB scenario: the sender transmits stream data plus an urgent byte, the
   receiver deliberately sleeps through the checkpoint, then reads both and
   reports whether the urgent byte survived. *)
module Oob_recv = struct
  type state = {
    port : int;
    mutable ph : int;  (* 0..3 setup, 4 sleep, 5 read stream, 6 read oob *)
    mutable lfd : int;
    mutable cfd : int;
    mutable got : string;
  }

  let name = "bench.oob_recv"
  let start args = { port = Value.to_int args; ph = 0; lfd = -1; cfd = -1; got = "" }

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ ->
      s.ph <- 1;
      (s, Program.Sys (Syscall.Sock_create Socket.Stream))
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      s.lfd <- fd;
      s.ph <- 2;
      (s, Program.Sys (Syscall.Bind (fd, { Addr.ip = Addr.any; port = s.port })))
    | 2, _ ->
      s.ph <- 3;
      (s, Program.Sys (Syscall.Listen (s.lfd, 2)))
    | 3, Syscall.Ret (Syscall.Raccept (fd, _)) ->
      s.cfd <- fd;
      s.ph <- 4;
      (* sleep long enough for the checkpoint to land while the queue and
         the urgent byte are still pending *)
      (s, Program.Sys (Syscall.Nanosleep (Simtime.ms 200)))
    | 3, _ -> (s, Program.Sys (Syscall.Accept s.lfd))
    | 4, _ ->
      s.ph <- 5;
      (s, Program.Sys (Syscall.Recv (s.cfd, 1024, Socket.plain_recv)))
    | 5, Syscall.Ret (Syscall.Rdata d) ->
      s.got <- s.got ^ d;
      s.ph <- 6;
      ( s,
        Program.Sys
          (Syscall.Recv (s.cfd, 1, { Socket.peek = false; oob = true; dontwait = true })) )
    | 6, Syscall.Ret (Syscall.Rdata oob) ->
      s.ph <- 7;
      (s, Program.Sys (Syscall.Log (Printf.sprintf "oob got=[%s] oob=[%s]" s.got oob)))
    | 6, Syscall.Err _ ->
      s.ph <- 7;
      (s, Program.Sys (Syscall.Log (Printf.sprintf "oob got=[%s] oob=[LOST]" s.got)))
    | 7, _ -> (s, Program.Exit 0)
    | _, _ -> (s, Program.Exit 1)

  let to_value s =
    Value.assoc
      [ ("port", Value.int s.port); ("ph", Value.int s.ph); ("lfd", Value.int s.lfd);
        ("cfd", Value.int s.cfd); ("got", Value.str s.got) ]

  let of_value v =
    {
      port = Value.to_int (Value.field "port" v);
      ph = Value.to_int (Value.field "ph" v);
      lfd = Value.to_int (Value.field "lfd" v);
      cfd = Value.to_int (Value.field "cfd" v);
      got = Value.to_str (Value.field "got" v);
    }
end

module Oob_send = struct
  type state = { dst : int; port : int; mutable ph : int; mutable fd : int }

  let name = "bench.oob_send"

  let start args =
    { dst = Value.to_int (Value.field "dst" args);
      port = Value.to_int (Value.field "port" args); ph = 0; fd = -1 }

  let step s (outcome : Syscall.outcome) =
    match (s.ph, outcome) with
    | 0, _ ->
      s.ph <- 1;
      (s, Program.Sys (Syscall.Sock_create Socket.Stream))
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      s.fd <- fd;
      (s, Program.Sys (Syscall.Connect (fd, { Addr.ip = s.dst; port = s.port })))
    | 1, Syscall.Ret Syscall.Rnone ->
      s.ph <- 2;
      (s, Program.Sys (Syscall.Send (s.fd, "stream-data")))
    | 1, Syscall.Err _ ->
      s.ph <- 10;
      (s, Program.Sys (Syscall.Close s.fd))
    | 10, _ ->
      s.ph <- 11;
      (s, Program.Sys (Syscall.Nanosleep (Simtime.ms 10)))
    | 11, _ ->
      s.ph <- 1;
      (s, Program.Sys (Syscall.Sock_create Socket.Stream))
    | 2, _ ->
      s.ph <- 3;
      (s, Program.Sys (Syscall.Send_oob (s.fd, '!')))
    | 3, _ ->
      s.ph <- 4;
      (s, Program.Sys (Syscall.Nanosleep (Simtime.sec 2.0)))
    | 4, _ -> (s, Program.Exit 0)
    | _, _ -> (s, Program.Exit 1)

  let to_value s =
    Value.assoc
      [ ("dst", Value.int s.dst); ("port", Value.int s.port); ("ph", Value.int s.ph);
        ("fd", Value.int s.fd) ]

  let of_value v =
    {
      dst = Value.to_int (Value.field "dst" v);
      port = Value.to_int (Value.field "port" v);
      ph = Value.to_int (Value.field "ph" v);
      fd = Value.to_int (Value.field "fd" v);
    }
end

let register () =
  Program.register_if_absent (module Bulk_sink);
  Program.register_if_absent (module Bulk_sender);
  Program.register_if_absent (module Oob_recv);
  Program.register_if_absent (module Oob_send)

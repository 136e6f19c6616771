(* Tests for the message-passing library: framing, float packing, and the
   MPI-style operations (point-to-point and binomial-tree collectives)
   running over the full simulated stack. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Value = Zapc_codec.Value
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Mpi = Zapc_msg.Mpi
module Frame = Zapc_msg.Frame
module Floats = Zapc_msg.Floats

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- frame / floats --- *)

let test_frame_roundtrip () =
  let f1 = Frame.encode ~src:3 ~tag:7 "payload one" in
  let f2 = Frame.encode ~src:1 ~tag:9 "" in
  let frames, rest = Frame.parse (f1 ^ f2) in
  check tint "two frames" 2 (List.length frames);
  check tbool "first" true (List.nth frames 0 = (3, 7, "payload one"));
  check tbool "second" true (List.nth frames 1 = (1, 9, ""));
  check tstr "no rest" "" rest

let test_frame_partial () =
  let f = Frame.encode ~src:2 ~tag:5 "abcdefgh" in
  for cut = 0 to String.length f - 1 do
    let frames, rest = Frame.parse (String.sub f 0 cut) in
    check tint "no frame yet" 0 (List.length frames);
    let frames2, rest2 = Frame.parse (rest ^ String.sub f cut (String.length f - cut)) in
    check tint "completed" 1 (List.length frames2);
    check tstr "empty rest" "" rest2
  done

let prop_frame_stream =
  QCheck.Test.make ~name:"frames survive arbitrary re-chunking" ~count:100
    QCheck.(pair (list (pair small_nat string_small)) (int_range 1 7))
    (fun (msgs, chunk) ->
      let stream =
        String.concat "" (List.map (fun (tag, p) -> Frame.encode ~src:0 ~tag p) msgs)
      in
      (* feed the stream in [chunk]-byte pieces through parse *)
      let collected = ref [] in
      let buf = ref "" in
      let i = ref 0 in
      while !i < String.length stream do
        let n = min chunk (String.length stream - !i) in
        buf := !buf ^ String.sub stream !i n;
        i := !i + n;
        let frames, rest = Frame.parse !buf in
        collected := !collected @ frames;
        buf := rest
      done;
      List.map (fun (_, tag, p) -> (tag, p)) !collected = msgs)

let prop_floats_roundtrip =
  QCheck.Test.make ~name:"float packing roundtrip" ~count:200
    QCheck.(triple (list float) small_nat small_nat)
    (fun (fs, p, l) ->
      let a = Array.of_list fs in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      let a' = Floats.unpack (Floats.pack a) in
      (* a sub-range [pos, pos + len) packs as the copied-out row did, and
         unpacks into place as a blit of the unpacked row would *)
      let n = Array.length a in
      let pos = if n = 0 then 0 else p mod (n + 1) in
      let len = if n - pos = 0 then 0 else l mod (n - pos + 1) in
      let sub = Floats.pack_sub a ~pos ~len in
      let into = Array.make (n + 3) 1.5 in
      Floats.unpack_into sub into ~pos:(pos + 1);
      let want = Array.make (n + 3) 1.5 in
      Array.blit (Floats.unpack sub) 0 want (pos + 1) len;
      Array.length a = Array.length a'
      && Array.for_all2 same a a'
      && String.equal sub (Floats.pack (Array.sub a pos len))
      && Array.for_all2 same into want
      && (try ignore (Floats.pack_sub a ~pos ~len:(n - pos + 1)); false
          with Invalid_argument _ -> true)
      && (try Floats.unpack_into sub into ~pos:(n + 4 - len); false
          with Invalid_argument _ -> true))

(* --- collective machinery over the real stack --- *)

(* one program that runs init + the whole collective suite and logs results *)
module Coll_tester = struct
  type op_phase = Ph_init | Ph_allreduce | Ph_gather | Ph_bcast | Ph_scatter
               | Ph_reduce | Ph_barrier | Ph_p2p_send | Ph_p2p_recv | Ph_done

  type state = {
    comm : Mpi.comm;
    mutable ph : op_phase;
    mutable mpi : Mpi.pending option;
    mutable to_log : string list;
  }

  let name = "msgtest.coll"

  let start args =
    let rank, size, vips, port, _ = Mpi.parse_args args in
    { comm = Mpi.make ~rank ~size ~vips ~port; ph = Ph_init; mpi = None; to_log = [] }

  let enter s (p, act) =
    s.mpi <- Some p;
    act

  let log_str s str = s.to_log <- s.to_log @ [ str ]

  let rank s = s.comm.Mpi.rank
  let size s = s.comm.Mpi.size

  let continue s (r : Mpi.result) : Program.action =
    match (s.ph, r) with
    | _, Mpi.R_fail m ->
      s.ph <- Ph_done;
      Program.Sys (Syscall.Log ("FAIL " ^ m))
    | Ph_init, _ ->
      s.ph <- Ph_allreduce;
      enter s (Mpi.allreduce_sum s.comm [| float_of_int (rank s + 1); 1.0 |])
    | Ph_allreduce, Mpi.R_floats a ->
      log_str s (Printf.sprintf "allreduce=%g,%g" a.(0) a.(1));
      s.ph <- Ph_gather;
      enter s (Mpi.gather s.comm ~root:0 (Printf.sprintf "r%d" (rank s)))
    | Ph_gather, Mpi.R_gather pieces ->
      log_str s
        ("gather=" ^ String.concat "+" (List.map (fun (r, d) -> Printf.sprintf "%d:%s" r d) pieces));
      s.ph <- Ph_bcast;
      let root = min 1 (size s - 1) in
      enter s (Mpi.bcast s.comm ~root (if rank s = root then "broadcasted" else ""))
    | Ph_gather, Mpi.R_ok ->
      (* non-root *)
      s.ph <- Ph_bcast;
      let root = min 1 (size s - 1) in
      enter s (Mpi.bcast s.comm ~root (if rank s = root then "broadcasted" else ""))
    | Ph_bcast, Mpi.R_msg { data; _ } ->
      log_str s ("bcast=" ^ data);
      s.ph <- Ph_scatter;
      let pieces = List.init (size s) (fun i -> Printf.sprintf "piece%d" i) in
      enter s (Mpi.scatter s.comm ~root:0 (if rank s = 0 then pieces else []))
    | Ph_scatter, Mpi.R_msg { data; _ } ->
      log_str s ("scatter=" ^ data);
      s.ph <- Ph_reduce;
      enter s (Mpi.reduce_sum s.comm ~root:(size s - 1) [| float_of_int (rank s * rank s) |])
    | Ph_reduce, Mpi.R_floats a ->
      log_str s (Printf.sprintf "reduce=%g" a.(0));
      s.ph <- Ph_barrier;
      enter s (Mpi.barrier s.comm)
    | Ph_reduce, Mpi.R_ok ->
      s.ph <- Ph_barrier;
      enter s (Mpi.barrier s.comm)
    | Ph_barrier, _ ->
      (* p2p ordering: rank 0 sends two tagged messages to last rank *)
      if size s = 1 then begin
        s.ph <- Ph_done;
        Program.Sys (Syscall.Log (String.concat ";" s.to_log))
      end
      else if rank s = 0 then begin
        s.ph <- Ph_p2p_send;
        enter s (Mpi.send s.comm ~peer:(size s - 1) ~tag:5 "first")
      end
      else if rank s = size s - 1 then begin
        s.ph <- Ph_p2p_recv;
        (* deliberately wait for tag 6 first: tag matching must pick the
           right message even though tag 5 arrives first *)
        enter s (Mpi.recv s.comm ~src:0 ~tag:6)
      end
      else begin
        s.ph <- Ph_done;
        Program.Sys (Syscall.Log (String.concat ";" s.to_log))
      end
    | Ph_p2p_send, _ ->
      (match s.mpi with
       | None when s.ph = Ph_p2p_send ->
         s.ph <- Ph_done;
         enter s (Mpi.send s.comm ~peer:(size s - 1) ~tag:6 "second")
       | _ ->
         s.ph <- Ph_done;
         enter s (Mpi.send s.comm ~peer:(size s - 1) ~tag:6 "second"))
    | Ph_p2p_recv, Mpi.R_msg { tag = 6; data; _ } ->
      log_str s ("tag6=" ^ data);
      s.ph <- Ph_done;
      enter s (Mpi.recv s.comm ~src:0 ~tag:5)
    | Ph_done, Mpi.R_msg { tag = 5; data; _ } ->
      log_str s ("tag5=" ^ data);
      Program.Sys (Syscall.Log (String.concat ";" s.to_log))
    | Ph_done, _ -> Program.Sys (Syscall.Log (String.concat ";" s.to_log))
    | _, _ -> Program.Sys (Syscall.Log "FAIL unexpected result")

  let step s (outcome : Syscall.outcome) =
    match s.mpi with
    | Some pending ->
      (match Mpi.step s.comm pending outcome with
       | `Again (p, act) ->
         s.mpi <- Some p;
         (s, act)
       | `Done r ->
         s.mpi <- None;
         (s, continue s r))
    | None ->
      (match s.ph with
       | Ph_init ->
         (match outcome with
          | Syscall.Started -> (s, enter s (Mpi.init s.comm))
          | _ -> (s, continue s Mpi.R_ok))
       | Ph_p2p_send ->
         s.ph <- Ph_done;
         (s, enter s (Mpi.send s.comm ~peer:(size s - 1) ~tag:6 "second"))
       | _ -> (s, Program.Exit 0))

  (* this program is not checkpointed in these tests *)
  let to_value _ = Value.Unit
  let of_value _ = failwith "msgtest.coll is not restorable"
end

let () = Program.register_if_absent (module Coll_tester : Program.S)

let logged : string list ref = ref []

let run_coll_suite size =
  Zapc_apps.Registry.register_all ();
  let nodes = max 2 (min size 4) in
  let cluster = Cluster.make ~seed:17 ~params:Zapc.Params.default ~node_count:nodes () in
  logged := [];
  for i = 0 to nodes - 1 do
    Kernel.set_logger (Cluster.node cluster i).Cluster.n_kernel (fun _ _ m ->
        logged := m :: !logged)
  done;
  let pods =
    List.init size (fun r ->
        Cluster.create_pod cluster ~node_idx:(r mod nodes) ~name:(Printf.sprintf "coll-%d" r))
  in
  Cluster.link_pods pods;
  let vips = Array.of_list (List.map (fun (p : Pod.t) -> p.vip) pods) in
  let procs =
    List.mapi
      (fun r pod ->
        Pod.spawn pod ~program:"msgtest.coll"
          ~args:(Mpi.std_args ~rank:r ~size ~vips ~port:5600 ~app:Value.Unit))
      pods
  in
  Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () ->
      List.for_all (fun (p : Proc.t) -> p.Proc.exit_code <> None) procs);
  !logged

let expect_log logs sub =
  check tbool (Printf.sprintf "log contains %s" sub) true
    (List.exists
       (fun s ->
         let n = String.length sub in
         let rec at i = i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1)) in
         at 0)
       logs)

let test_collectives size () =
  let logs = run_coll_suite size in
  check tbool "no failures" true
    (not (List.exists (fun s -> String.length s >= 4 && String.equal (String.sub s 0 4) "FAIL") logs));
  (* allreduce of rank+1 = size*(size+1)/2, and of 1.0 = size *)
  let expected_sum = size * (size + 1) / 2 in
  expect_log logs (Printf.sprintf "allreduce=%d,%d" expected_sum size);
  (* gather at root 0 collects all pieces in rank order *)
  let gather_str =
    "gather=" ^ String.concat "+" (List.init size (fun r -> Printf.sprintf "%d:r%d" r r))
  in
  expect_log logs gather_str;
  expect_log logs "bcast=broadcasted";
  (* each rank got its own scatter piece *)
  for r = 0 to size - 1 do
    expect_log logs (Printf.sprintf "scatter=piece%d" r)
  done;
  (* reduce of rank^2 at the last rank *)
  let sq = List.fold_left ( + ) 0 (List.init size (fun r -> r * r)) in
  expect_log logs (Printf.sprintf "reduce=%d" sq);
  if size > 1 then begin
    expect_log logs "tag6=second";
    expect_log logs "tag5=first"
  end

(* --- serialization --- *)

let test_comm_roundtrip () =
  let c = Mpi.make ~rank:2 ~size:4 ~vips:[| 10; 11; 12; 13 |] ~port:9 in
  c.Mpi.listen_fd <- 3;
  c.Mpi.fds.(0) <- 4;
  c.Mpi.rxbuf.(1) <- "partial";
  c.Mpi.inbox <- [ (1, 5, "msg") ];
  let v = Mpi.comm_to_value c in
  let c' = Mpi.comm_of_value v in
  check tbool "roundtrip" true (Value.equal v (Mpi.comm_to_value c'))

let test_pending_roundtrip () =
  let c = Mpi.make ~rank:1 ~size:4 ~vips:[| 10; 11; 12; 13 |] ~port:9 in
  Array.iteri (fun i _ -> c.Mpi.fds.(i) <- i + 3) c.Mpi.fds;
  let ps =
    [ fst (Mpi.send c ~peer:0 ~tag:7 "payload");
      fst (Mpi.recv c ~src:Mpi.any_src ~tag:3);
      fst (Mpi.init c);
      fst (Mpi.allreduce_sum c [| 1.0; 2.0 |]);
      fst (Mpi.gather c ~root:0 "piece");
      fst (Mpi.bcast c ~root:2 "data");
      fst (Mpi.barrier c) ]
  in
  List.iter
    (fun p ->
      let v = Mpi.pending_to_value p in
      let p' = Mpi.pending_of_value v in
      check tbool "pending roundtrip" true (Value.equal v (Mpi.pending_to_value p')))
    ps

let () =
  Alcotest.run "msg"
    [ ( "framing",
        [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "partial frames" `Quick test_frame_partial;
          QCheck_alcotest.to_alcotest prop_frame_stream;
          QCheck_alcotest.to_alcotest prop_floats_roundtrip ] );
      ( "collectives",
        [ Alcotest.test_case "size 1" `Quick (test_collectives 1);
          Alcotest.test_case "size 2" `Quick (test_collectives 2);
          Alcotest.test_case "size 3" `Quick (test_collectives 3);
          Alcotest.test_case "size 4" `Quick (test_collectives 4);
          Alcotest.test_case "size 5" `Quick (test_collectives 5);
          Alcotest.test_case "size 8" `Quick (test_collectives 8) ] );
      ( "serialization",
        [ Alcotest.test_case "comm" `Quick test_comm_roundtrip;
          Alcotest.test_case "pending" `Quick test_pending_roundtrip ] ) ]

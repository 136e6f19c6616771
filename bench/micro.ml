(* Wall-clock microbenchmarks (Bechamel) of the core operations the
   simulator and the checkpoint path are built from. *)

open Bechamel
open Toolkit
module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Value = Zapc_codec.Value
module Wire = Zapc_codec.Wire
module Sockbuf = Zapc_simnet.Sockbuf
module Pheap = Zapc_sim.Pheap
module Calq = Zapc_sim.Calq

let sample_value =
  Value.assoc
    [ ("grid", Value.F64s (Array.init 512 float_of_int));
      ("meta", Value.List (List.init 32 (fun i -> Value.Int i)));
      ("name", Value.Str "pod-image-sample");
      ("nested", Value.Assoc [ ("a", Value.Tag ("x", Value.Int 1)) ]) ]

let encoded_sample = Wire.encode sample_value

let t_encode =
  Test.make ~name:"wire.encode" (Staged.stage (fun () -> ignore (Wire.encode sample_value)))

let t_decode =
  Test.make ~name:"wire.decode" (Staged.stage (fun () -> ignore (Wire.decode encoded_sample)))

let t_sockbuf =
  Test.make ~name:"sockbuf.push/pop-1KB"
    (Staged.stage (fun () ->
         let b = Sockbuf.create () in
         for _ = 1 to 8 do
           Sockbuf.push b (String.make 128 'x')
         done;
         while not (Sockbuf.is_empty b) do
           ignore (Sockbuf.pop b 100)
         done))

let t_heap =
  Test.make ~name:"pheap.push/pop-64"
    (Staged.stage (fun () ->
         let h = Pheap.create () in
         for i = 63 downto 0 do
           Pheap.push h ~key:i i
         done;
         let rec drain () = match Pheap.pop h with Some _ -> drain () | None -> () in
         drain ()))

let t_engine =
  Test.make ~name:"engine.1000-events"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         for i = 1 to 1000 do
           Engine.schedule e ~delay:(Simtime.ns i) (fun () -> ())
         done;
         Engine.run e))

(* one full simulated TCP echo: handshake, payload both ways, teardown *)
let t_tcp =
  Test.make ~name:"sim.tcp-echo"
    (Staged.stage (fun () ->
         let engine = Engine.create () in
         let fabric = Zapc_simnet.Fabric.create engine in
         let ns0 = Zapc_simnet.Netstack.create ~node:0 fabric in
         let ns1 = Zapc_simnet.Netstack.create ~node:1 fabric in
         let ip0 = Zapc_simnet.Addr.make_ip 10 0 0 1 in
         let ip1 = Zapc_simnet.Addr.make_ip 10 0 0 2 in
         Zapc_simnet.Netstack.add_ip ns0 ip0;
         Zapc_simnet.Netstack.add_ip ns1 ip1;
         let listener = Zapc_simnet.Netstack.new_socket ns1 Zapc_simnet.Socket.Stream in
         ignore (Zapc_simnet.Netstack.bind ns1 listener { Zapc_simnet.Addr.ip = ip1; port = 80 });
         ignore (Zapc_simnet.Netstack.listen ns1 listener 4);
         let client = Zapc_simnet.Netstack.new_socket ns0 Zapc_simnet.Socket.Stream in
         ignore (Zapc_simnet.Netstack.connect_start ns0 client { Zapc_simnet.Addr.ip = ip1; port = 80 });
         Engine.run engine;
         ignore (Zapc_simnet.Tcp.send_data client "ping");
         Engine.run engine))

(* The recorder's open spans sit in a table keyed by (pod, phase), each a
   newest-first stack: closing by name reads one stack's head, and closing
   by handle walks only the stack of its own (pod, phase), however many
   spans are concurrently open (the serve runs hold hundreds).  The asserts pin the semantics the tracing layer
   depends on: every close resolves, and the set drains to empty. *)
module Span = Zapc_obs.Span

let t_span =
  Test.make ~name:"span.256-open/close"
    (Staged.stage (fun () ->
         let r = Span.create () in
         let handles =
           List.init 256 (fun i ->
               Span.begin_span r ~time:(Simtime.ns i) ~pod:(i mod 16) ~node:0
                 Zapc_obs.Phase.Standalone)
         in
         List.iter (fun sp -> Span.end_span r ~time:(Simtime.ns 1000) sp) handles;
         assert (Span.open_count r = 0)))

let t_span_named =
  Test.make ~name:"span.end_named-64-open"
    (Staged.stage (fun () ->
         let r = Span.create () in
         for i = 0 to 63 do
           ignore (Span.begin_span r ~time:(Simtime.ns i) ~pod:i ~node:0 Zapc_obs.Phase.Suspend)
         done;
         for i = 63 downto 0 do
           assert (Span.end_named r ~time:(Simtime.ns 100) ~pod:i Zapc_obs.Phase.Suspend)
         done;
         assert (Span.open_count r = 0)))

(* The pod address map.  A restart re-announces each restored vip to every
   live namespace, whose maps carry an entry per pod of the application:
   neither the rebind nor the lookup that reads it may cost the map's
   length.  The 16-entry lookups (all 16 vips out, all 16 rips back in)
   are what each Connect, Sendto, Recvfrom and Accept of a 16-rank
   application pays. *)
module Namespace = Zapc_pod.Namespace
module Addr = Zapc_simnet.Addr

let ns_fixture ?table n =
  let map =
    List.init n (fun i ->
        ( Addr.make_ip 10 1 (i lsr 8) (i land 255),
          Addr.make_ip 172 16 (i land 255) (11 + (i lsr 8)) ))
  in
  let ns = Namespace.create ?table () in
  Namespace.set_vip_map ns map;
  (* the first lookup indexes the map; the timed runs start after it *)
  ignore (Namespace.rip_of_vip ns Addr.any);
  (ns, Array.of_list (List.map fst map), Array.of_list (List.map snd map))

(* A table rebind, then the lookup that reads it. *)
let t_ns_rebind =
  let table = Namespace.table () in
  let ns, vips, _ = ns_fixture ~table 512 in
  let k = ref 0 in
  Test.make ~name:"ns.rebind-512"
    (Staged.stage (fun () ->
         (* each vip alternates between two fresh rips *)
         k := (!k + 1) land 1023;
         let vip = vips.(!k land 511) in
         Namespace.rebind table ~vip ~rip:(Addr.make_ip 192 168 0 0 + !k);
         ignore (Sys.opaque_identity (Namespace.rip_of_vip ns vip))))

let t_ns_lookup =
  let ns, vips, rips = ns_fixture 16 in
  Test.make ~name:"ns.lookup-16"
    (Staged.stage (fun () ->
         for i = 0 to 15 do
           ignore (Sys.opaque_identity (Namespace.rip_of_vip ns vips.(i)));
           ignore (Sys.opaque_identity (Namespace.vip_of_rip ns rips.(i)))
         done))

(* A process polling 400 TCP sockets, with its request list built once in
   its state.  poll.block-400: all idle, so it blocks; each run fires one
   of them without data (rotating), so the process wakes, polls again and
   blocks again — what a server holding many idle client connections does
   per request.  Its poll set re-checks only the socket that fired, and
   the block re-queues the waker only on that socket.  poll.scan-400: one
   socket holds unread data, so every poll returns at once and never
   blocks; a poll set that never blocked knows no queue holds the waker,
   so each run is one poll over all 400 (dispatch, scan, syscall
   return). *)
module Kernel = Zapc_simos.Kernel
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Fdtable = Zapc_simos.Fdtable
module Netstack = Zapc_simnet.Netstack
module Socket = Zapc_simnet.Socket
module Sockopt = Zapc_simnet.Sockopt

module Poller = struct
  type state = Syscall.poll_req list

  let name = "bench.poller"

  let start v =
    List.map
      (fun pfd -> { Syscall.pfd; want_read = true; want_write = false })
      (Value.to_list Value.to_int v)

  let step reqs (_ : Syscall.outcome) = (reqs, Program.Sys (Syscall.Poll (reqs, None)))
  let to_value reqs = Value.list (fun (r : Syscall.poll_req) -> Value.int r.pfd) reqs
  let of_value = start
end

(* [n] established connections; with [~ready], the peer has sent one byte
   on one of them.  Returns the kernel, its engine, the sockets, an fd
   table holding them and their fds. *)
let socket_fixture ~ready n =
  let engine = Engine.create () in
  let fabric = Zapc_simnet.Fabric.create engine in
  let k = Kernel.create ~node_id:0 fabric in
  let net = Kernel.netstack k and peer = Netstack.create ~node:1 fabric in
  let ip0 = Addr.make_ip 10 0 0 1 and ip1 = Addr.make_ip 10 0 0 2 in
  Netstack.add_ip net ip0;
  Netstack.add_ip peer ip1;
  let listener = Netstack.new_socket peer Socket.Stream in
  ignore (Netstack.bind peer listener { Addr.ip = ip1; port = 80 });
  ignore (Netstack.listen peer listener n);
  let socks =
    Array.init n (fun _ ->
        let s = Netstack.new_socket net Socket.Stream in
        ignore (Netstack.connect_start net s { Addr.ip = ip1; port = 80 });
        s)
  in
  Engine.run engine;
  if ready then
    ignore (Zapc_simnet.Tcp.send_data (Option.get (Netstack.accept_take listener)) "x");
  Engine.run engine;
  let fds = Fdtable.create () in
  let fd_list = Array.to_list (Array.map (fun s -> Fdtable.add fds (Fdtable.Fsock s)) socks) in
  Array.iter (Kernel.ref_socket k) socks;
  (k, engine, socks, fds, fd_list)

let poll_fixture ~ready n =
  Program.register_if_absent (module Poller);
  let k, engine, socks, fds, fd_list = socket_fixture ~ready n in
  let p = Kernel.create_proc k (Program.spawn "bench.poller" (Value.list Value.int fd_list)) in
  p.Zapc_simos.Proc.fds <- fds;
  Kernel.enqueue k p;
  (engine, socks, p)

let t_poll_block =
  let fixture =
    lazy
      (let engine, socks, p = poll_fixture ~ready:false 400 in
       Engine.run engine;
       assert (p.Zapc_simos.Proc.rstate = Zapc_simos.Proc.Blocked);
       (engine, socks))
  in
  let i = ref 0 in
  Test.make ~name:"poll.block-400"
    (Staged.stage (fun () ->
         let engine, socks = Lazy.force fixture in
         i := if !i = Array.length socks - 1 then 0 else !i + 1;
         Socket.wake_readers socks.(!i);
         Engine.run engine))

let t_poll_scan =
  let fixture =
    lazy
      (let engine, _, p = poll_fixture ~ready:true 400 in
       Engine.run ~max_events:2 engine;
       assert (p.Zapc_simos.Proc.rstate <> Zapc_simos.Proc.Blocked);
       engine)
  in
  Test.make ~name:"poll.scan-400"
    (Staged.stage (fun () -> Engine.run ~max_events:2 (Lazy.force fixture)))

let t_fdtable_find =
  let fixture =
    lazy
      (let _, _, _, fds, fd_list = socket_fixture ~ready:false 400 in
       (fds, Array.of_list fd_list))
  in
  Test.make ~name:"fdtable.find-400"
    (Staged.stage (fun () ->
         let fds, fd_array = Lazy.force fixture in
         for i = 0 to Array.length fd_array - 1 do
           ignore (Sys.opaque_identity (Fdtable.find fds (Array.unsafe_get fd_array i)))
         done))

(* The four option reads on the hot paths: the poll scan's send-buffer
   size, TCP's per-segment MSS and receive buffer, the nonblocking flag. *)
let t_sockopt_get =
  let t = Sockopt.create () in
  Sockopt.set t Sockopt.SO_NONBLOCK 1;
  Sockopt.set t Sockopt.TCP_NODELAY 1;
  Test.make ~name:"sockopt.get"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (Sockopt.get t Sockopt.SO_SNDBUF + Sockopt.get t Sockopt.TCP_MAXSEG
              + Sockopt.get t Sockopt.SO_RCVBUF + Sockopt.get t Sockopt.SO_NONBLOCK))))

(* The paper applications' kernels, one unit of paper-fig6 work each: a
   480x6 block of the fixed scene, a BT sweep of a nine-rank rank's 96x11
   slab, a Bratu sweep of the whole 64x64 grid.  Divide by 2880, 1056 and
   4096 for ns per pixel or cell. *)
let t_render_block =
  Test.make ~name:"scene.render_block-480x6"
    (Staged.stage (fun () ->
         ignore
           (Zapc_apps.Scene.render_block Zapc_apps.Scene.default ~width:480 ~height:360
              ~y0:180 ~rows:6)))

let t_bt_sweep =
  let g = 96 and rows = 11 in
  let init = Array.init ((rows + 2) * g) (fun i -> sin (float_of_int i /. 31.0)) in
  let u = Array.copy init in
  Test.make ~name:"bt.sweep-96x11"
    (Staged.stage (fun () ->
         (* from the same grid each run: repeated sweeps decay to subnormals *)
         Array.blit init 0 u 0 (Array.length init);
         Zapc_apps.Bt_nas.sweep ~g ~rows u))

let t_bratu_sweep =
  let g = 64 and rows = 64 in
  let src = Array.init ((rows + 2) * g) (fun i -> 0.1 *. sin (float_of_int i /. 17.0)) in
  let dst = Array.make (Array.length src) 0.0 in
  Test.make ~name:"bratu.sweep-64x64"
    (Staged.stage (fun () -> ignore (Zapc_apps.Bratu.sweep ~g ~rows ~lambda:6.0 ~src ~dst)))

(* The registry-wide rebind a restored pod announces (gratuitous ARP),
   with [n] registered pods that each hold the full map, then one pod's
   lookup that reads it: what a fleet pays per restored pod.  The rebind
   is recorded once in the table, not applied to [n] namespaces, so the
   rows grow with log n, not with n. *)
module Pod = Zapc_pod.Pod

let t_pod_rebind n =
  let allocate () =
    let k = Kernel.create ~node_id:0 (Zapc_simnet.Fabric.create (Engine.create ())) in
    let pods =
      Array.init n (fun i ->
          Pod.create ~pod_id:(1_000_000 + i) ~name:"rebind"
            ~vip:(Addr.make_ip 10 1 (i lsr 8) (i land 255))
            ~rip:(Addr.make_ip 172 16 (i land 255) (11 + (i lsr 8)))
            k)
    in
    let map = Array.to_list (Array.map (fun (p : Pod.t) -> (p.vip, p.rip)) pods) in
    Array.iter (fun p -> Pod.set_vip_map p map) pods;
    (Array.map (fun (p : Pod.t) -> p.vip) pods, ref 0, pods)
  in
  Test.make_with_resource ~name:(Printf.sprintf "pod.rebind-%d" n) Test.uniq ~allocate
    ~free:(fun (_, _, pods) -> Array.iter Pod.destroy pods)
    (Staged.stage (fun (vips, k, (pods : Pod.t array)) ->
         (* each vip alternates between two fresh rips *)
         k := (!k + 1) land ((2 * n) - 1);
         let vip = vips.(!k land (n - 1)) in
         Pod.rebind_vip ~vip ~rip:(Addr.make_ip 192 168 0 0 + !k);
         ignore (Sys.opaque_identity (Namespace.rip_of_vip pods.(0).ns vip))))

(* Storage's per-image work on the dedup backend, over images shaped like
   one rank of a 16-rank BT/NAS: a 192x14 grid of state and a 40 MB
   "bt.rss" region (611 region chunks).  put-dedup-bt: the rank's next
   epoch, whose region is already interned, overwrites its key — the
   steady state of a periodic run, where a repeated region tag costs one
   table hit.  restart-reads: the three reads of one restart key (the
   pre-flight check, the Manager's facts, the restoring Agent's [take])
   over a base and four deltas; the first resolves the chain, the other
   two are served from the read memo. *)
module Storage = Zapc.Storage
module Image = Zapc_ckpt.Image
module Delta = Zapc_ckpt.Delta

let bt_image step =
  let g = 192 and rows = 12 and mem = 20_000_000 + (320_000_000 / 16) in
  Value.assoc
    [ ("pod_id", Value.int 1); ("name", Value.str "bt.rank0"); ("vip", Value.int 0);
      ("clock", Value.int step); ("next_vpid", Value.int 2); ("memory_bytes", Value.int mem);
      ("sockets", Value.List []); ("meta", Value.Unit); ("pipes", Value.List []);
      ("gm_ports", Value.List []);
      ( "procs",
        Value.List
          [ Value.assoc
              [ ("vpid", Value.int 1);
                ("mem", Value.assoc [ ("bt.rss", Value.List [ Value.Int mem; Value.Int 1 ]) ]);
                ( "u",
                  Value.F64s
                    (Array.init ((rows + 2) * g) (fun i -> sin (float_of_int (i + step))))
                ) ] ] ) ]

let dedup_storage () =
  Storage.create ~trace:(Zapc.Trace.create ()) ~backend:Zapc.Params.Sb_dedup ~compress:true
    (Engine.create ())

let put_exn st key v =
  match Storage.put st key (Image.of_pod_image v) with
  | Ok () -> ()
  | Error e -> failwith e

let t_put_dedup =
  let fixture =
    lazy
      (let st = dedup_storage () in
       let images = Array.init 2 (fun i -> Image.of_pod_image (bt_image i)) in
       ignore (Storage.put st "bt.pod1" images.(1));
       (st, images))
  in
  let k = ref 0 in
  Test.make ~name:"storage.put-dedup-bt"
    (Staged.stage (fun () ->
         let st, images = Lazy.force fixture in
         k := 1 - !k;
         ignore (Storage.put st "bt.pod1" images.(!k))))

let t_restart_reads =
  let fixture =
    lazy
      (let st = dedup_storage () in
       put_exn st "e0" (bt_image 0);
       for e = 1 to 4 do
         put_exn st (Printf.sprintf "e%d" e)
           (Delta.make ~base_key:(Printf.sprintf "e%d" (e - 1)) ~base:(bt_image (e - 1))
              ~full:(bt_image e) ~dirty_bytes:65536)
       done;
       assert (Storage.get st "e4" <> None);
       st)
  in
  Test.make ~name:"storage.restart-reads"
    (Staged.stage (fun () ->
         let st = Lazy.force fixture in
         ignore (Sys.opaque_identity (Storage.get st "e4"));
         ignore (Sys.opaque_identity (Storage.get st "e4"));
         ignore (Sys.opaque_identity (Storage.take st "e4"))))

(* A 400-connection kv client between requests: every connection open
   and idle, its next send far off.  One run is a poll wake and the clock
   tick after it, which acts on no connection and polls again with the
   kept request list: the tick's timer pass and the poll's timeout. *)
module Kv_client = Zapc_apps.Kv_client

let t_kv_tick =
  let fixture =
    lazy
      (let cfg = Zapc_apps.Serve.default_cfg in
       let vips = Array.make cfg.nshards (Addr.make_ip 10 0 0 1) in
       let s = Kv_client.start (Zapc_apps.Serve.client_args cfg vips ~n:400 ~base:0 ~seed:1) in
       s.started <- true;
       s.polling <- true;
       Array.iter
         (fun (c : Kv_client.conn) ->
           c.fd <- 3 + c.ix;
           c.cst <- 2;
           c.next_send <- Simtime.sec 100.0 + c.ix)
         s.conns;
       (* the derived state, rebuilt from the edited fields *)
       Kv_client.of_value (Kv_client.to_value s))
  in
  Test.make ~name:"kv.tick+poll-400"
    (Staged.stage (fun () ->
         let s = Lazy.force fixture in
         ignore (Kv_client.step s (Syscall.Ret (Syscall.Rpoll [])));
         ignore (Kv_client.step s (Syscall.Ret (Syscall.Rtime (Simtime.ms 1))))))

(* An ephemeral bind on a node holding 1,000 established connections,
   then the close of the bound socket. *)
let t_bind_ephemeral =
  let fixture =
    lazy
      (let k, _, _, _, _ = socket_fixture ~ready:false 1000 in
       Kernel.netstack k)
  in
  Test.make ~name:"netstack.bind-eph-1000"
    (Staged.stage (fun () ->
         let net = Lazy.force fixture in
         let s = Netstack.new_socket net Socket.Stream in
         ignore (Netstack.bind net s { Addr.ip = Addr.make_ip 10 0 0 1; port = 0 });
         Netstack.close net s))

let tests =
  [ t_encode; t_decode; t_sockbuf; t_heap; t_engine; t_tcp; t_span; t_span_named; t_ns_rebind;
    t_ns_lookup; t_pod_rebind 64; t_pod_rebind 1024; t_poll_block; t_poll_scan; t_fdtable_find;
    t_sockopt_get; t_kv_tick; t_bind_ephemeral; t_render_block; t_bt_sweep; t_bratu_sweep;
    t_put_dedup; t_restart_reads ]

(* --- event-queue throughput (events/s), heap vs calendar -------------

   Steady-state churn, not build-then-drain: a standing population of
   events where every pop re-pushes one at a horizon past the popped key.
   Two shapes.  Dense: a deep population at mixed horizons — the shape of
   a big cluster's event queue (per-connection TCP timers plus heartbeats
   plus phase timeouts).  The depth is what separates the two queues: the
   binary heap ([Pheap]) pays a sift per operation, the calendar queue
   ([Calq], the engine's queue) appends in O(1) and sorts each fine
   bucket once.  Sparse: a handful of timers rescheduling themselves
   0.8us-5ms out, the shape of the paper's section-6 runs, where a heap of
   sixteen is cheap and the calendar must cross hundreds of empty fine
   buckets per pop without stepping through them.  Deterministic event
   counts, wall-clock rates — these numbers are host facts and must stay
   under "host" keys in any gated artifact. *)

type churn = { events : int; standing : int; delays : int array Lazy.t }

let churn ~events ~standing delay =
  { events; standing; delays = lazy (Array.init events delay) }

(* mixed horizons: mostly sub-60us, a band of sub-60ms, a tail out to
   ~20 virtual seconds (coarse ring + overflow territory) *)
let churn_delay i =
  match i mod 8 with
  | 0 | 1 | 2 -> Simtime.ns (i mod 60_000)
  | 3 | 4 | 5 -> Simtime.us (i mod 60_000)
  | 6 -> Simtime.ms (i mod 500)
  | _ -> Simtime.sec (float_of_int (i mod 20))

let dense = churn ~events:1_000_000 ~standing:300_000 churn_delay

(* 0.8us-5ms, scattered by a multiplicative hash so consecutive delays
   are unrelated *)
let sparse_delay i = Simtime.ns (800 + (i * 2_654_435_761 mod 4_999_200))

let sparse = churn ~events:2_000_000 ~standing:16 sparse_delay

let churn_events_per_sec c ~push ~pop =
  let delays = Lazy.force c.delays in
  (* whatever ran before this (the scale sweep allocates a thousand
     simulated nodes) must not bleed into the rate via GC state *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  for j = 0 to c.standing - 1 do
    push (Array.unsafe_get delays j)
  done;
  let i = ref 0 in
  for _ = 1 to c.events do
    match pop () with
    | Some (now, ()) ->
      i := if !i = c.events - 1 then 0 else !i + 1;
      push (Simtime.add now (Array.unsafe_get delays !i))
    | None -> ()
  done;
  float_of_int c.events /. (Unix.gettimeofday () -. t0)

let heap_events_per_sec c =
  let q = Pheap.create () in
  churn_events_per_sec c
    ~push:(fun key -> Pheap.push q ~key ())
    ~pop:(fun () -> Pheap.pop q)

let calendar_events_per_sec c =
  let q = Calq.create ~dummy:() () in
  churn_events_per_sec c
    ~push:(fun key -> Calq.push q ~key ())
    ~pop:(fun () -> Calq.pop q)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host speed drifts on a shared machine, so the two queues are timed in
   five alternating heap/calendar pairs and each pair yields one ratio.
   Returns the median heap and calendar rates and the per-pair ratios —
   the scale experiment embeds these in BENCH_scale.json and enforces its
   floors on the median ratio. *)
let engine_throughput c =
  let runs =
    List.init 5 (fun _ ->
        let h = heap_events_per_sec c in
        let cal = calendar_events_per_sec c in
        (h, cal))
  in
  ( median (List.map fst runs),
    median (List.map snd runs),
    List.map (fun (h, cal) -> cal /. h) runs )

let run () =
  Driver.section "MICRO  Wall-clock microbenchmarks of core operations (Bechamel)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* no collection before every sample: after a [Gc.compact] a fixture with
     a large heap runs cold, and the few runs a sample then holds measure
     the cache refill instead of the operation *)
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ~stabilize:false ()
  in
  Printf.printf "%-24s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some (est :: _) -> Printf.printf "%-24s %16.1f\n" name est
          | Some [] | None -> Printf.printf "%-24s %16s\n" name "n/a")
        results)
    tests

(* Reproduction of every table and figure in the paper's evaluation
   (section 6), plus the ablations called out in DESIGN.md.  Each function
   prints the same rows/series the paper reports; shapes (who wins, how
   things scale) are the claim, not absolute numbers. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Stats = Zapc_sim.Stats
module Value = Zapc_codec.Value
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Protocol = Zapc.Protocol
module Params = Zapc.Params
module Launch = Zapc_msg.Launch
open Driver

(* ------------------------------------------------------------------ *)
(* Figure 5: application completion times, Base vs ZapC                *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section
    "FIG-5  Application completion times: vanilla (Base) vs ZapC pods\n\
    \       (paper: ZapC is almost indistinguishable from vanilla Linux)";
  row "%-12s %6s %12s %12s %10s\n" "app" "nodes" "base (s)" "zapc (s)" "overhead";
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let base = completion_run kind n Base in
          let zapc = completion_run kind n Zapc_mode in
          row "%-12s %6d %12.2f %12.2f %9.2f%%\n" (app_label kind) n base zapc
            ((zapc -. base) /. base *. 100.0))
        (node_counts kind);
      print_newline ())
    all_apps

(* variance over seeds (paper section 6.1: std-dev grows to ~5%) *)
let fig5_variance () =
  section "TXT-VAR  Completion-time variance across runs (5 seeds, ZapC)";
  row "%-12s %6s %12s %10s\n" "app" "nodes" "mean (s)" "stddev";
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let st = Stats.create () in
          for seed = 1 to 5 do
            Stats.add st (completion_run ~seed:(42 + (seed * 1000)) kind n Zapc_mode)
          done;
          row "%-12s %6d %12.2f %9.2f%%\n" (app_label kind) n (Stats.mean st)
            (Stats.stddev st /. Stats.mean st *. 100.0))
        [ List.hd (node_counts kind); List.hd (List.rev (node_counts kind)) ])
    [ Cpi; Bt ]

(* ------------------------------------------------------------------ *)
(* Figure 6: checkpoint-restart measurements                           *)
(* ------------------------------------------------------------------ *)

let fig6_series : (app_kind * int * ckpt_series) list ref = ref []

let collect_fig6 () =
  if !fig6_series = [] then
    fig6_series :=
      List.concat_map
        (fun kind ->
          List.map (fun n -> (kind, n, checkpoint_run kind n)) (node_counts kind))
        all_apps

let fig6a () =
  collect_fig6 ();
  section
    "FIG-6a  Average checkpoint time (Manager invocation -> all pods done)\n\
    \        (paper: subsecond, 100-300 ms across apps; includes writing the\n\
    \        image to memory, excludes the flush to disk)";
  row "%-12s %6s %14s %10s %10s\n" "app" "nodes" "ckpt avg (ms)" "stddev" "max";
  List.iter
    (fun (kind, n, s) ->
      row "%-12s %6d %14.1f %10.1f %10.1f\n" (app_label kind) n (Stats.mean s.ckpt_times)
        (Stats.stddev s.ckpt_times) (Stats.max s.ckpt_times))
    !fig6_series

let fig6b () =
  collect_fig6 ();
  section
    "FIG-6b  Restart time from the mid-run checkpoint (image preloaded)\n\
    \        (paper: subsecond, 200-700 ms; restart > checkpoint because the\n\
    \        network connections must be re-established)";
  row "%-12s %6s %14s %12s %12s\n" "app" "nodes" "restart (ms)" "conn (ms)" "net (ms)";
  List.iter
    (fun (kind, n, s) ->
      row "%-12s %6d %14.1f %12.1f %12.1f\n" (app_label kind) n s.restart_time
        (Stats.max s.restart_conn) (Stats.max s.restart_net))
    !fig6_series

let fig6c () =
  collect_fig6 ();
  section
    "FIG-6c  Checkpoint image size: largest pod, averaged over 10 checkpoints\n\
    \        (paper: CPI 16->7 MB, PETSc 145->24 MB, BT 340->35 MB as nodes\n\
    \        grow; POV-Ray roughly constant ~10 MB)";
  row "%-12s %6s %16s\n" "app" "nodes" "image (MB)";
  List.iter
    (fun (kind, n, s) ->
      row "%-12s %6d %16.1f\n" (app_label kind) n (Stats.mean s.max_image))
    !fig6_series

let netstate () =
  collect_fig6 ();
  section
    "TXT-NET  Network-state share of the checkpoint\n\
    \         (paper: network-state checkpoint < 10 ms -- 3-10%% of the total;\n\
    \         network-state data only 100s of bytes to a few KB per pod)";
  row "%-12s %6s %14s %12s %16s\n" "app" "nodes" "net ckpt (ms)" "of total" "net bytes avg";
  List.iter
    (fun (kind, n, s) ->
      let frac =
        if Stats.mean s.ckpt_times > 0.0 then
          Stats.mean s.net_ckpt_times /. Stats.mean s.ckpt_times *. 100.0
        else 0.0
      in
      row "%-12s %6d %14.3f %11.1f%% %16.0f\n" (app_label kind) n
        (Stats.mean s.net_ckpt_times) frac (Stats.mean s.net_bytes))
    !fig6_series

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* ABL-1: the single-synchronization design.  ZapC overlaps the standalone
   checkpoint with the Manager round-trip; the serial variant waits for
   'continue' first. *)
let ablation_serial () =
  section
    "ABL-1  Network-state-first + overlapped standalone checkpoint vs a\n\
    \       serial barrier before the standalone checkpoint (paper section 4).\n\
    \       The overlap hides the Manager synchronization round-trip, so the\n\
    \       saving equals roughly the control-plane RTT; shown for the\n\
    \       cluster-local Manager and for a distant/loaded one.";
  row "%-12s %6s %12s %16s %14s %10s\n" "app" "nodes" "ctrl RTT" "overlapped (ms)"
    "serial (ms)" "saving";
  List.iter
    (fun (kind, n, ctrl_latency, label) ->
      let measure serial =
        let params =
          { Params.default with Params.serial_ckpt = serial; ctrl_latency;
            cost_jitter = 0.0 }
        in
        let env = launch_app ~params kind n in
        Cluster.run env.cluster ~until:(Simtime.sec 2.0) ();
        let r =
          Cluster.checkpoint_sync env.cluster
            ~items:(items_for env.cluster env.app ~prefix:"abl1")
            ~resume:true
        in
        if r.Manager.r_ok then Simtime.to_ms r.Manager.r_duration else nan
      in
      let fast = measure false in
      let slow = measure true in
      row "%-12s %6d %12s %16.1f %14.1f %7.1fms\n" (app_label kind) n label fast slow
        (slow -. fast))
    [ (Cpi, 4, Simtime.us 120, "120us"); (Bt, 4, Simtime.us 120, "120us");
      (Cpi, 8, Simtime.ms 5, "5ms"); (Bt, 4, Simtime.ms 5, "5ms");
      (Bratu, 8, Simtime.ms 20, "20ms") ]

(* ABL-2: send-queue redirection during migration (paper section 5): the
   queue travels once, inside the peer's checkpoint stream, instead of being
   retransmitted after restart. *)
let ablation_redirect () =
  Workloads.register ();
  section
    "ABL-2  Send-queue redirection on migration (paper section 5 optimization)\n\
    \       bulk transfer with ~deep queues, checkpointed mid-stream";
  row "%-18s %14s %18s\n" "mode" "restart (ms)" "bytes re-sent";
  let run_case redirect =
    let params = { Params.default with Params.redirect_sendq = redirect } in
    Zapc_apps.Registry.register_all ();
    let cluster = Cluster.make ~seed:7 ~params ~node_count:4 () in
    let sink_pod = Cluster.create_pod cluster ~node_idx:0 ~name:"sink" in
    let sender_pod = Cluster.create_pod cluster ~node_idx:1 ~name:"sender" in
    Cluster.link_pods [ sink_pod; sender_pod ];
    let _sink = Pod.spawn sink_pod ~program:"bench.bulk_sink" ~args:(Value.Int 6200) in
    let _sender =
      Pod.spawn sender_pod ~program:"bench.bulk_sender"
        ~args:
          (Value.assoc
             [ ("dst", Value.int sink_pod.Pod.vip); ("port", Value.int 6200);
               ("chunks", Value.int 64) ])
    in
    (* sender floods; sink drains slowly: big queues by 100 ms *)
    Cluster.run cluster ~until:(Simtime.ms 100) ();
    let r =
      Cluster.checkpoint_sync cluster
        ~items:
          [ { Manager.ci_node = 0; ci_pod = sink_pod.Pod.pod_id;
              ci_dest = Protocol.U_storage "abl2.sink" };
            { Manager.ci_node = 1; ci_pod = sender_pod.Pod.pod_id;
              ci_dest = Protocol.U_storage "abl2.sender" } ]
        ~resume:false
    in
    assert r.Manager.r_ok;
    let bytes_before = Zapc_simnet.Fabric.bytes_delivered (Cluster.fabric cluster) in
    let rr =
      Cluster.restart_sync cluster
        ~items:
          [ { Manager.ri_node = 2; ri_pod = sink_pod.Pod.pod_id;
              ri_uri = Protocol.U_storage "abl2.sink" };
            { Manager.ri_node = 3; ri_pod = sender_pod.Pod.pod_id;
              ri_uri = Protocol.U_storage "abl2.sender" } ]
    in
    let bytes_after = Zapc_simnet.Fabric.bytes_delivered (Cluster.fabric cluster) in
    ( (if rr.Manager.r_ok then Simtime.to_ms rr.Manager.r_duration else nan),
      bytes_after - bytes_before )
  in
  let t_off, b_off = run_case false in
  let t_on, b_on = run_case true in
  row "%-18s %14.1f %18d\n" "resend (baseline)" t_off b_off;
  row "%-18s %14.1f %18d\n" "redirected" t_on b_on;
  row "-> the redirected variant moves %.0f%% fewer bytes during restart\n"
    ((1.0 -. (float_of_int b_on /. float_of_int b_off)) *. 100.0)

(* ABL-2b: the same choice while the application is a live service under
   outside traffic.  The kv shards replicate to each other over an in-set
   connection whose send queues are deep while 800 clients keep both pods
   loaded; the whole service is migrated ZapC-style (coordinated suspend,
   restart on new nodes) with redirection on and off.  Client connections
   terminate outside the checkpoint set, so only the replication stream is
   redirected — the win is smaller than ABL-2's bulk pair, but it is the
   serving-path number: bytes the fabric moves again while clients are
   already retrying into the restart. *)
let ablation_redirect_traffic () =
  section
    "ABL-2b Send-queue redirection while migrating a live service\n\
    \       (kv shards + replication stream under 800 client connections)";
  row "%-18s %14s %18s\n" "mode" "restart (ms)" "bytes re-sent";
  let module Serve = Zapc_apps.Serve in
  let run_case redirect =
    let params = { Serve.serve_params with Params.redirect_sendq = redirect } in
    let cfg =
      { Serve.default_cfg with
        n_conns = 800; reqs_per_conn = 8; period = Simtime.ms 60 }
    in
    let t = Serve.setup ~nodes:4 ~seed:7 ~params ~cfg () in
    let cluster = t.Serve.cluster in
    (* peak load: every connection established, replication in flight *)
    Cluster.run cluster ~until:(Simtime.ms 120) ();
    (* a drop window on the mirror backs the owner's replication send
       queue up with unacked frames — the deep-queue regime the
       redirection decides; without it both shards' queues are drained at
       any instant a healthy service is suspended *)
    let nf = Zapc_simnet.Fabric.netfilter (Cluster.fabric cluster) in
    let mirror = List.nth t.Serve.servers 1 in
    Zapc_simnet.Netfilter.block nf mirror.Pod.rip;
    Zapc_simnet.Netfilter.block nf mirror.Pod.vip;
    Cluster.run cluster ~until:(Simtime.ms 170) ();
    let items = Serve.ckpt_items t ~prefix:"abl2kv" in
    let r = Cluster.checkpoint_sync cluster ~items ~resume:false in
    assert r.Manager.r_ok;
    Zapc_simnet.Netfilter.unblock nf mirror.Pod.rip;
    Zapc_simnet.Netfilter.unblock nf mirror.Pod.vip;
    let bytes_before = Zapc_simnet.Fabric.bytes_delivered (Cluster.fabric cluster) in
    let rr =
      Cluster.restart_app cluster
        ~pod_ids:(List.map (fun (p : Pod.t) -> p.Pod.pod_id) t.Serve.servers)
        ~target_nodes:[ 2; 3 ] ~key_prefix:"abl2kv"
    in
    assert rr.Manager.r_ok;
    let bytes_after = Zapc_simnet.Fabric.bytes_delivered (Cluster.fabric cluster) in
    (Simtime.to_ms rr.Manager.r_duration, bytes_after - bytes_before)
  in
  let t_off, b_off = run_case false in
  let t_on, b_on = run_case true in
  row "%-18s %14.1f %18d\n" "resend (baseline)" t_off b_off;
  row "%-18s %14.1f %18d\n" "redirected" t_on b_on;
  if b_off > 0 then
    row "-> redirection saves %.0f%% of the restart-window fabric traffic\n"
      ((1.0 -. (float_of_int b_on /. float_of_int b_off)) *. 100.0)

(* ABL-3: peek-based receive-queue capture (the Cruz-style approach the
   paper criticises) silently loses the urgent byte; ZapC's read-inject
   extraction does not. *)
let ablation_peek () =
  Workloads.register ();
  section
    "ABL-3  Receive-queue capture method: ZapC read-inject vs peek (Cruz-style)\n\
    \       checkpoint taken with stream data + an urgent byte pending";
  row "%-18s %-40s\n" "mode" "receiver observation after restart";
  let logged = ref [] in
  let run_case peek =
    logged := [];
    let params = { Params.default with Params.peek_mode = peek } in
    Zapc_apps.Registry.register_all ();
    let cluster = Cluster.make ~seed:5 ~params ~node_count:4 () in
    for i = 0 to 3 do
      Kernel.set_logger (Cluster.node cluster i).Cluster.n_kernel (fun _ _ m ->
          logged := m :: !logged)
    done;
    let rpod = Cluster.create_pod cluster ~node_idx:0 ~name:"oobr" in
    let spod = Cluster.create_pod cluster ~node_idx:1 ~name:"oobs" in
    Cluster.link_pods [ rpod; spod ];
    let _r = Pod.spawn rpod ~program:"bench.oob_recv" ~args:(Value.Int 6300) in
    let _s =
      Pod.spawn spod ~program:"bench.oob_send"
        ~args:(Value.assoc [ ("dst", Value.int rpod.Pod.vip); ("port", Value.int 6300) ])
    in
    (* data + urgent byte are queued at the receiver while it sleeps *)
    Cluster.run cluster ~until:(Simtime.ms 60) ();
    let r =
      Cluster.checkpoint_sync cluster
        ~items:
          [ { Manager.ci_node = 0; ci_pod = rpod.Pod.pod_id;
              ci_dest = Protocol.U_storage "abl3.r" };
            { Manager.ci_node = 1; ci_pod = spod.Pod.pod_id;
              ci_dest = Protocol.U_storage "abl3.s" } ]
        ~resume:false
    in
    assert r.Manager.r_ok;
    let rr =
      Cluster.restart_sync cluster
        ~items:
          [ { Manager.ri_node = 2; ri_pod = rpod.Pod.pod_id;
              ri_uri = Protocol.U_storage "abl3.r" };
            { Manager.ri_node = 3; ri_pod = spod.Pod.pod_id;
              ri_uri = Protocol.U_storage "abl3.s" } ]
    in
    assert rr.Manager.r_ok;
    Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
        List.exists
          (fun m -> String.length m >= 7 && String.equal (String.sub m 0 7) "oob got")
          !logged);
    List.find
      (fun m -> String.length m >= 7 && String.equal (String.sub m 0 7) "oob got")
      !logged
  in
  let proper = run_case false in
  let peeked = run_case true in
  row "%-18s %-40s\n" "read-inject (ZapC)" proper;
  row "%-18s %-40s\n" "peek (Cruz-style)" peeked

let ablations () =
  ablation_serial ();
  ablation_redirect ();
  ablation_redirect_traffic ();
  ablation_peek ()

(* ------------------------------------------------------------------ *)
(* Storage-flush methodology                                          *)
(* ------------------------------------------------------------------ *)

let storage_flush () =
  section
    "STORAGE  Image flush to shared storage (excluded from checkpoint time,\n\
    \         per the paper's methodology; shown here for completeness at the\n\
    \         SAN's 180 MB/s)";
  row "%-12s %6s %12s %14s\n" "app" "nodes" "image (MB)" "flush (ms)";
  List.iter
    (fun (kind, n) ->
      let env = launch_app kind n in
      Cluster.run env.cluster ~until:(Simtime.sec 2.0) ();
      let prefix = "flush" in
      let r =
        Cluster.checkpoint_sync env.cluster ~items:(items_for env.cluster env.app ~prefix)
          ~resume:true
      in
      if r.Manager.r_ok then begin
        let storage = Cluster.storage env.cluster in
        let largest_key, largest =
          List.fold_left
            (fun (bk, bs) (pod, st) ->
              if st.Protocol.st_image_bytes > bs then
                (Printf.sprintf "%s.pod%d" prefix pod, st.Protocol.st_image_bytes)
              else (bk, bs))
            ("", 0) r.Manager.r_stats
        in
        let t = Zapc.Storage.flush_time storage largest_key in
        row "%-12s %6d %12.1f %14.1f\n" (app_label kind) n
          (float_of_int largest /. 1e6) (Simtime.to_ms t)
      end)
    [ (Cpi, 4); (Bt, 1); (Bt, 4); (Bratu, 4); (Povray, 4) ]

(* ------------------------------------------------------------------ *)
(* Storage backends: compression + dedup + buddy RAM (@store alias)    *)
(* ------------------------------------------------------------------ *)

(* Not in the paper (its images always land on the shared SAN): sweeps the
   three storage backends of DESIGN.md section 14 over a 16-rank BT/NAS
   epoch series and a checkpointed kv service, and enforces the claims
   that justify them:
     - content-addressed dedup collapses the cross-rank/cross-epoch
       redundancy of the BT images by more than 2x;
     - buddy (partner-RAM) flushes beat the serialized shared-SAN flush
       makespan at fleet scale;
     - whatever the backend does to the stored bytes, the images read
       back for restart are checksum-identical.
   All quantities are virtual and deterministic; dumped to
   BENCH_storage.json and regression-gated against
   bench/baselines/storage.json by the @store alias. *)

let st_epochs = 4
let st_ranks = 16

type st_row = {
  st_label : string;
  st_written_mb : float;  (* storage.bytes_written over all epochs *)
  st_dedup : float;       (* logical/unique bytes; 1.0 off the dedup path *)
  st_comp : float;        (* compress_in/compress_out; 1.0 uncompressed *)
  st_flush_ms : float;    (* makespan, all last-epoch images, contended *)
  st_sums : (string * int) list array;  (* per-epoch key -> image checksum *)
}

(* Checkpoint epochs land at fixed virtual times, so every backend that
   charges the same checkpoint cost captures bit-identical application
   states.  Compression charges extra virtual CPU, which shifts the
   post-resume execution — only its epoch-0 images (taken before any
   backend-dependent cost was paid) are comparable across the sweep. *)
let st_case ?traced (label, sbackend, scompress) =
  let params =
    { Params.default with
      Params.storage_backend = sbackend; compress = scompress }
  in
  let env = launch_app ~params Bt st_ranks in
  let cluster = env.cluster in
  let storage = Cluster.storage cluster in
  let metrics = Cluster.metrics cluster in
  let sums = Array.make st_epochs [] in
  for e = 0 to st_epochs - 1 do
    (if e = st_epochs - 1 then
       match traced with
       | Some _ -> ignore (Cluster.enable_trace cluster)
       | None -> ());
    Cluster.run cluster ~until:(Simtime.sec (0.4 *. float_of_int (e + 1))) ();
    let prefix = Printf.sprintf "e%d" e in
    let r =
      Cluster.checkpoint_sync cluster
        ~items:(items_for cluster env.app ~prefix) ~resume:true
    in
    if not r.Manager.r_ok then
      failwith
        (Printf.sprintf "storage: %s epoch %d failed: %s" label e
           r.Manager.r_detail);
    sums.(e) <-
      List.map
        (fun (p : Pod.t) ->
          let key = Printf.sprintf "%s.pod%d" prefix p.Pod.pod_id in
          match Zapc.Storage.get storage key with
          | Some v -> (key, Zapc_ckpt.Image.(checksum (of_pod_image v)))
          | None ->
            failwith
              (Printf.sprintf "storage: %s lost %s right after writing it"
                 label key))
        env.app.Launch.pods
  done;
  (match traced with
   | Some path ->
     (match Cluster.trace cluster with
      | Some tr ->
        Zapc.Trace.dump_chrome tr path;
        Zapc_obs.Metrics.dump metrics "BENCH_storage_metrics.json"
      | None -> ())
   | None -> ());
  let counter = Zapc_obs.Metrics.counter metrics in
  let dl = counter "storage.dedup_bytes_logical" in
  let du = counter "storage.dedup_bytes_unique" in
  let ci = counter "storage.compress_in_bytes" in
  let co = counter "storage.compress_out_bytes" in
  (* contended flush of the freshest epoch: all ranks push at once, the
     SAN serializes them behind one shared link while buddy rides the
     per-owner links in parallel *)
  let keys = List.map fst sums.(st_epochs - 1) in
  let t0 = Cluster.now cluster in
  let pending = ref (List.length keys) in
  let finish = ref t0 in
  List.iter
    (fun k ->
      Zapc.Storage.flush storage k ~on_done:(fun () ->
          decr pending;
          finish := Simtime.max !finish (Cluster.now cluster)))
    keys;
  Cluster.run_until cluster ~timeout:(Simtime.sec 600.0) (fun () ->
      !pending = 0);
  if !pending > 0 then
    failwith (Printf.sprintf "storage: %s flushes never completed" label);
  { st_label = label;
    st_written_mb = float_of_int (counter "storage.bytes_written") /. 1e6;
    st_dedup =
      (if du > 0 then float_of_int dl /. float_of_int du else 1.0);
    st_comp = (if co > 0 then float_of_int ci /. float_of_int co else 1.0);
    st_flush_ms = Simtime.to_ms (Simtime.sub !finish t0);
    st_sums = sums }

(* The kv-service leg: one checkpoint of the sharded service under load,
   taken at the same instant for every backend — written bytes differ,
   the images must not. *)
let st_kv_case (label, sbackend, scompress) =
  let module Serve = Zapc_apps.Serve in
  let params =
    { Serve.serve_params with
      Params.storage_backend = sbackend; compress = scompress }
  in
  let cfg =
    { Serve.default_cfg with Serve.n_conns = 200; reqs_per_conn = 4 }
  in
  let t = Serve.setup ~nodes:4 ~seed:7 ~params ~cfg () in
  let cluster = t.Serve.cluster in
  Cluster.run cluster ~until:(Simtime.ms 150) ();
  let r =
    Cluster.checkpoint_sync cluster
      ~items:(Serve.ckpt_items t ~prefix:"kv") ~resume:false
  in
  if not r.Manager.r_ok then
    failwith ("storage/kv: " ^ label ^ ": " ^ r.Manager.r_detail);
  let storage = Cluster.storage cluster in
  let sums =
    List.map
      (fun (p : Pod.t) ->
        let key = Printf.sprintf "kv.pod%d" p.Pod.pod_id in
        match Zapc.Storage.get storage key with
        | Some v -> (key, Zapc_ckpt.Image.(checksum (of_pod_image v)))
        | None -> failwith ("storage/kv: " ^ label ^ " lost " ^ key))
      t.Serve.servers
  in
  let counter = Zapc_obs.Metrics.counter (Cluster.metrics cluster) in
  let dl = counter "storage.dedup_bytes_logical" in
  let du = counter "storage.dedup_bytes_unique" in
  ( label,
    float_of_int (counter "storage.bytes_written") /. 1e6,
    (if du > 0 then float_of_int dl /. float_of_int du else 1.0),
    sums )

let st_json path rows kv_rows =
  let oc = open_out path in
  let field r =
    Printf.sprintf
      "    {\"label\": \"%s\", \"written_mb\": %.1f, \"dedup_factor\": %.2f, \
       \"compress_ratio\": %.2f, \"flush_makespan_ms\": %.1f}"
      r.st_label r.st_written_mb r.st_dedup r.st_comp r.st_flush_ms
  in
  let kv_field (label, mb, dd, _) =
    Printf.sprintf
      "    {\"label\": \"%s\", \"written_mb\": %.1f, \"dedup_factor\": %.2f}"
      label mb dd
  in
  let find l = List.find (fun r -> String.equal r.st_label l) rows in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"storage\",\n\
    \  \"scenario\": \"%d BT/NAS ranks, %d full checkpoint epochs, then a \
     contended flush of the last epoch; plus one checkpoint of the sharded \
     kv service under 200 connections\",\n\
    \  \"source\": \"storage.* counters (see doc/OBSERVABILITY.md)\",\n\
    \  \"bt_sweep\": [\n%s\n  ],\n\
    \  \"kv_sweep\": [\n%s\n  ],\n\
    \  \"dedup_factor_floor\": 2.0,\n\
    \  \"buddy_vs_san_flush_speedup\": %.2f,\n\
    \  \"restart_checksums_equal\": 1\n\
     }\n"
    st_ranks st_epochs
    (String.concat ",\n" (List.map field rows))
    (String.concat ",\n" (List.map kv_field kv_rows))
    ((find "plain").st_flush_ms /. (find "buddy").st_flush_ms);
  close_out oc

let storage_backends () =
  section
    "STORAGE-B  Image storage backends: plain SAN vs compressed vs\n\
    \           content-addressed dedup vs partner-RAM buddy\n\
    \           (16-rank BT/NAS, 4 full epochs + contended flush; kv leg)";
  row "%-12s %12s %8s %10s %12s\n" "backend" "written (MB)" "dedup"
    "compress" "flush (ms)";
  let cases =
    [ ("plain", Params.Sb_plain, false);
      ("plain+comp", Params.Sb_plain, true);
      ("dedup", Params.Sb_dedup, false);
      ("dedup+comp", Params.Sb_dedup, true);
      ("buddy", Params.Sb_buddy, false) ]
  in
  let rows =
    List.map
      (fun ((label, _, _) as case) ->
        let traced =
          if String.equal label "dedup" then Some "BENCH_storage_trace.json"
          else None
        in
        let r = st_case ?traced case in
        row "%-12s %12.1f %7.2fx %9.2fx %12.1f\n" r.st_label r.st_written_mb
          r.st_dedup r.st_comp r.st_flush_ms;
        r)
      cases
  in
  let find l = List.find (fun r -> String.equal r.st_label l) rows in
  let plain = find "plain" and dedup = find "dedup" and buddy = find "buddy" in
  (* claim 1: cross-rank + cross-epoch dedup beats 2x on the BT sweep *)
  if dedup.st_dedup < 2.0 then
    failwith
      (Printf.sprintf "storage: dedup factor %.2fx under the 2x floor"
         dedup.st_dedup);
  (* claim 2: buddy flushes in parallel across partner links, under the
     serialized SAN makespan *)
  if buddy.st_flush_ms >= plain.st_flush_ms then
    failwith
      (Printf.sprintf
         "storage: buddy flush %.1fms not under the SAN's %.1fms"
         buddy.st_flush_ms plain.st_flush_ms);
  (* claim 3: the bytes a restart reads are backend-independent — every
     epoch for the equal-cost backends, epoch 0 for the compressed ones
     (their extra virtual CPU shifts post-resume application state) *)
  let check_sums ~epochs other =
    for e = 0 to epochs - 1 do
      if other.st_sums.(e) <> plain.st_sums.(e) then
        failwith
          (Printf.sprintf
             "storage: %s epoch-%d images differ from plain's" other.st_label
             e)
    done
  in
  check_sums ~epochs:st_epochs dedup;
  check_sums ~epochs:st_epochs buddy;
  check_sums ~epochs:1 (find "plain+comp");
  check_sums ~epochs:1 (find "dedup+comp");
  row "-> dedup %.2fx over the 2x floor; buddy flush %.1fx under the SAN\n"
    dedup.st_dedup
    (plain.st_flush_ms /. buddy.st_flush_ms);
  let kv_cases =
    [ ("kv-plain", Params.Sb_plain, false);
      ("kv-dedup", Params.Sb_dedup, false);
      ("kv-buddy", Params.Sb_buddy, false) ]
  in
  let kv_rows = List.map st_kv_case kv_cases in
  List.iter
    (fun (label, mb, dd, _) ->
      row "%-12s %12.1f %7.2fx\n" label mb dd)
    kv_rows;
  (match kv_rows with
   | (_, _, _, ref_sums) :: rest ->
     List.iter
       (fun (label, _, _, sums) ->
         if sums <> ref_sums then
           failwith ("storage/kv: " ^ label ^ " images differ from plain's"))
       rest
   | [] -> ());
  let path = "BENCH_storage.json" in
  st_json path rows kv_rows;
  Printf.printf
    "\nwrote %s BENCH_storage_trace.json BENCH_storage_metrics.json\n" path

(* ------------------------------------------------------------------ *)
(* Availability: supervisor detection latency and MTTR                 *)
(* ------------------------------------------------------------------ *)

(* Not in the paper (its recovery is operator-driven); this measures the
   self-healing supervisor added on top: a node crashes mid-run, the
   missed-heartbeat detector fires, and the service restarts from the last
   good epoch on the survivors.  Reported per seed: detection latency
   (crash -> declared dead) and MTTR (crash -> app running again).  The
   same numbers are dumped to BENCH_availability.json for CI trending. *)

module Faultsim = Zapc_faultsim.Faultsim
module Periodic = Zapc.Periodic
module Supervisor = Zapc.Supervisor
module Storage = Zapc.Storage

let avail_params =
  { Params.default with
    Params.phase_timeout = Simtime.ms 400;
    heartbeat_period = Simtime.ms 20;
    heartbeat_misses = 3;
    recover_backoff = Simtime.ms 40;
    recover_backoff_max = Simtime.ms 400;
    recover_retries = 5;
    ckpt_fixed = Simtime.ms 20;
    restore_fixed = Simtime.ms 60;
    cost_jitter = 0.2 }

type avail_sample = {
  av_seed : int;
  av_detect_ms : float;  (* crash -> supervisor declares the node dead *)
  av_mttr_ms : float;  (* crash -> recovery checkpoint restored, app running *)
  av_attempts : int;
  av_repair_ms : float;  (* declaration -> recovered (sup.mttr_ms histogram) *)
}

(* One seeded crash-recovery run (mirrors the chaos harness's acceptance
   scenario): BT/NAS on two of four nodes, periodic service at 50 ms,
   supervisor watching; node 1 loses power after two good epochs.
   Detection latency, MTTR and the attempt count are read back from the
   cluster's metrics registry (sup.* instruments) rather than re-derived
   from raw trace events. *)
let avail_run seed =
  Zapc_apps.Registry.register_all ();
  let cluster = Cluster.make ~seed ~params:avail_params ~node_count:4 () in
  let fs = Faultsim.create cluster in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:
        (Zapc_apps.Bt_nas.params_to_value
           { Zapc_apps.Bt_nas.default_params with
                   g = 96; iters = 400; ns_per_cell = 2_700 })
      ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let svc =
    Periodic.start cluster ~pods:app.Launch.pods ~prefix:"avail"
      ~period:(Simtime.ms 50) ~keep:2 ()
  in
  let sup = Supervisor.start ~trace:(Faultsim.trace fs) cluster svc in
  Cluster.run_until cluster ~timeout:(Simtime.sec 30.0) (fun () ->
      Periodic.last_good svc >= 2 && not (Manager.busy (Cluster.manager cluster)));
  let crash_time = Cluster.now cluster in
  Faultsim.install fs
    { Faultsim.fault = Faultsim.Crash_node { node = 1 }; trigger = Faultsim.Now };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  let reg = Cluster.metrics cluster in
  let sample =
    if Zapc_obs.Metrics.counter reg "sup.recoveries" >= 1 then begin
      let crash_ms = Simtime.to_ms crash_time in
      Some
        { av_seed = seed;
          av_detect_ms = Zapc_obs.Metrics.gauge reg "sup.last_detect_ms" -. crash_ms;
          av_mttr_ms =
            Zapc_obs.Metrics.gauge reg "sup.last_recovered_ms" -. crash_ms;
          av_attempts = Zapc_obs.Metrics.counter reg "sup.attempts";
          av_repair_ms = Zapc_obs.Metrics.p50 reg "sup.mttr_ms" }
    end
    else None
  in
  Supervisor.stop sup;
  Periodic.stop svc;
  sample

let avail_json path samples detect mttr =
  let oc = open_out path in
  let field s =
    Printf.sprintf
      "    {\"seed\": %d, \"detect_ms\": %.3f, \"mttr_ms\": %.3f, \
       \"attempts\": %d, \"repair_ms\": %.3f}"
      s.av_seed s.av_detect_ms s.av_mttr_ms s.av_attempts s.av_repair_ms
  in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"availability\",\n\
    \  \"scenario\": \"crash one of two BT/NAS nodes mid-run\",\n\
    \  \"source\": \"sup.* metrics registry (see doc/OBSERVABILITY.md)\",\n\
    \  \"detect_ms\": {\"mean\": %.3f, \"stddev\": %.3f, \"max\": %.3f},\n\
    \  \"mttr_ms\": {\"mean\": %.3f, \"stddev\": %.3f, \"max\": %.3f},\n\
    \  \"runs\": [\n%s\n  ]\n}\n"
    (Stats.mean detect) (Stats.stddev detect) (Stats.max detect)
    (Stats.mean mttr) (Stats.stddev mttr) (Stats.max mttr)
    (String.concat ",\n" (List.map field samples));
  close_out oc

let availability () =
  section
    "AVAIL  Self-healing supervisor: heartbeat detection latency and MTTR\n\
    \       (node crash mid-run; recovery from the last good periodic epoch\n\
    \       on the surviving nodes, zero manual intervention)";
  row "%6s %14s %12s %12s %10s\n" "seed" "detect (ms)" "mttr (ms)" "repair (ms)"
    "attempts";
  let seeds = List.init 8 (fun i -> 42 + (i * 1000)) in
  let samples = List.filter_map avail_run seeds in
  let detect = Stats.create () and mttr = Stats.create () in
  List.iter
    (fun s ->
      Stats.add detect s.av_detect_ms;
      Stats.add mttr s.av_mttr_ms;
      row "%6d %14.1f %12.1f %12.1f %10d\n" s.av_seed s.av_detect_ms s.av_mttr_ms
        s.av_repair_ms s.av_attempts)
    samples;
  if List.length samples < List.length seeds then
    failwith
      (Printf.sprintf "availability: %d/%d runs did not recover"
         (List.length seeds - List.length samples)
         (List.length seeds));
  row "%6s %14.1f %12.1f\n" "mean" (Stats.mean detect) (Stats.mean mttr);
  let path = "BENCH_availability.json" in
  avail_json path samples detect mttr;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Incremental (delta) checkpointing: full vs delta epoch cost         *)
(* ------------------------------------------------------------------ *)

(* Not in the paper (ZapC always writes full images); this measures the
   delta-checkpoint extension: periodic epochs where each Agent writes only
   the dirty memory regions and changed per-process state against its last
   stored image, with a forced full every (max_delta_chain + 1)-th epoch.
   Two workloads bracket the win: BT/NAS allocates its working set once at
   boot (deltas are nearly free), while the pipeline pod's state churns
   every epoch.  The run ends by restarting the app from the newest epoch
   — in incremental mode that materializes the whole delta chain, so a
   passing restart attests that chain resolution reproduces a loadable
   full image.  Dumped to BENCH_incremental.json for CI trending. *)

type inc_epoch = {
  ie_epoch : int;
  ie_written : int;  (* bytes actually stored this epoch, all pods *)
  ie_full_cost : int;  (* what full images at the same instant would cost *)
  ie_deltas : int;  (* pods written as deltas (0 on a full epoch) *)
  ie_dur_ms : float;
}

type inc_run_result = {
  ir_epochs : inc_epoch list;  (* oldest first *)
  ir_restart_ok : bool;
  ir_restart_ms : float;
  ir_chained : bool;  (* the restarted epoch was a delta over a prior one *)
}

let inc_run ~incremental ~label ~spawn ~target_nodes ~epochs () =
  Zapc_apps.Registry.register_all ();
  let cluster = Cluster.make ~seed:42 ~params:Params.default ~node_count:4 () in
  let pods, procs = spawn cluster in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let prefix = label ^ if incremental then "-inc" else "-full" in
  let svc =
    Periodic.start ~incremental cluster ~pods ~prefix ~period:(Simtime.ms 50)
      ~keep:(epochs + 1) ()
  in
  let eps = ref [] in
  Periodic.set_on_epoch svc (fun e r ->
      if r.Manager.r_ok then begin
        let sum f = List.fold_left (fun a (_, st) -> a + f st) 0 r.Manager.r_stats in
        eps :=
          { ie_epoch = e;
            ie_written = sum (fun st -> st.Protocol.st_image_bytes);
            ie_full_cost =
              sum (fun st ->
                  if st.Protocol.st_full_bytes > 0 then st.Protocol.st_full_bytes
                  else st.Protocol.st_image_bytes);
            ie_deltas =
              List.length
                (List.filter (fun (_, st) -> st.Protocol.st_full_bytes > 0)
                   r.Manager.r_stats);
            ie_dur_ms = Simtime.to_ms r.Manager.r_duration }
          :: !eps
      end);
  Cluster.run_until cluster ~timeout:(Simtime.sec 120.0) (fun () ->
      List.length !eps >= epochs || Cluster.procs_exited procs);
  let good = Periodic.last_good svc in
  let pod_ids = Periodic.pod_ids svc in
  Periodic.stop svc;
  (* drain the in-flight epoch (if any) before restarting *)
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.sec 2.0)) ();
  let epoch_prefix = Printf.sprintf "%s.e%d" prefix good in
  let chained =
    List.exists
      (fun pod_id ->
        Storage.base_key (Cluster.storage cluster)
          (Printf.sprintf "%s.pod%d" epoch_prefix pod_id)
        <> None)
      pod_ids
  in
  let r =
    Cluster.restart_app cluster ~pod_ids ~target_nodes ~key_prefix:epoch_prefix
  in
  { ir_epochs = List.rev !eps;
    ir_restart_ok = r.Manager.r_ok;
    ir_restart_ms = Simtime.to_ms r.Manager.r_duration;
    ir_chained = chained }

(* written/full-cost over the delta epochs only: the per-epoch saving *)
let delta_ratio run =
  let ds = List.filter (fun e -> e.ie_deltas > 0) run.ir_epochs in
  let w = List.fold_left (fun a e -> a + e.ie_written) 0 ds in
  let f = List.fold_left (fun a e -> a + e.ie_full_cost) 0 ds in
  if f = 0 then 1.0 else float_of_int w /. float_of_int f

(* BT/NAS goes through Launch (MPI ranks, one pod per node); the pipeline
   is a single multi-process pod spawned directly — its driver parses raw
   params, not the MPI argument envelope. *)
let inc_workloads =
  [ ( "bt_nas",
      (fun cluster ->
        let app =
          Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
            ~app_args:
              (Zapc_apps.Bt_nas.params_to_value
                 { Zapc_apps.Bt_nas.default_params with
                   g = 96; iters = 400; ns_per_cell = 2_700 })
            ()
        in
        (app.Launch.pods, app.Launch.ranks)),
      [ 2; 3 ] );
    ( "pipeline",
      (fun cluster ->
        let pod = Cluster.create_pod cluster ~node_idx:0 ~name:"pipeline" in
        Cluster.link_pods [ pod ];
        let driver =
          Pod.spawn pod ~program:"pipeline"
            ~args:
              (Zapc_apps.Pipeline.params_to_value
                 { Zapc_apps.Pipeline.default_params with lines = 40_000 })
        in
        ([ pod ], [ driver ])),
      [ 1 ] ) ]

let inc_json path results =
  let oc = open_out path in
  let epoch_row e =
    Printf.sprintf
      "        {\"epoch\": %d, \"written\": %d, \"full_cost\": %d, \
       \"deltas\": %d, \"dur_ms\": %.3f}"
      e.ie_epoch e.ie_written e.ie_full_cost e.ie_deltas e.ie_dur_ms
  in
  let mode_obj run =
    Printf.sprintf
      "{\n\
      \      \"epochs\": [\n%s\n      ],\n\
      \      \"delta_ratio\": %.4f,\n\
      \      \"restart_ok\": %b,\n\
      \      \"restart_chained\": %b,\n\
      \      \"restart_ms\": %.3f\n\
      \    }"
      (String.concat ",\n" (List.map epoch_row run.ir_epochs))
      (delta_ratio run) run.ir_restart_ok run.ir_chained run.ir_restart_ms
  in
  let wl (label, full, inc) =
    Printf.sprintf
      "    {\"app\": \"%s\",\n\
      \     \"full\": %s,\n\
      \     \"incremental\": %s}"
      label (mode_obj full) (mode_obj inc)
  in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"incremental\",\n\
    \  \"scenario\": \"periodic epochs, full vs delta images; restart from \
     the newest (chained) epoch\",\n\
    \  \"workloads\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map wl results));
  close_out oc

let incremental () =
  section
    "INCR   Incremental (delta) checkpoints: per-epoch bytes vs full images\n\
    \       (dirty-region tracking; forced full every max_delta_chain+1\n\
    \       epochs; restart materializes the delta chain)";
  row "%-12s %-12s %8s %14s %14s %10s %12s\n" "app" "mode" "epochs" "written/ep"
    "full-cost/ep" "ratio" "restart";
  let epochs = 8 in
  let results =
    List.map
      (fun (label, spawn, target_nodes) ->
        let run incr =
          inc_run ~incremental:incr ~label ~spawn ~target_nodes ~epochs ()
        in
        let full = run false and inc = run true in
        let report mode r =
          let n = max 1 (List.length r.ir_epochs) in
          let avg f = List.fold_left (fun a e -> a + f e) 0 r.ir_epochs / n in
          row "%-12s %-12s %8d %14d %14d %10.3f %9.1fms\n" label mode
            (List.length r.ir_epochs)
            (avg (fun e -> e.ie_written))
            (avg (fun e -> e.ie_full_cost))
            (delta_ratio r) r.ir_restart_ms;
          if not r.ir_restart_ok then
            failwith
              (Printf.sprintf "incremental: %s/%s: restart from the newest epoch failed"
                 label mode)
        in
        report "full" full;
        report "incremental" inc;
        if not inc.ir_chained then
          failwith
            (Printf.sprintf "incremental: %s: newest incremental epoch was not a delta"
               label);
        (label, full, inc))
      inc_workloads
  in
  (match List.assoc_opt "bt_nas" (List.map (fun (l, _, i) -> (l, i)) results) with
   | Some inc when delta_ratio inc > 0.5 ->
     failwith
       (Printf.sprintf
          "incremental: bt_nas delta epochs cost %.0f%% of full images (expected <= 50%%)"
          (delta_ratio inc *. 100.0))
   | _ -> ());
  (* one traced delta checkpoint for the @incr alias: obs_check validates the
     Figure-2 overlap holds on the delta path too, plus the metrics dump *)
  let cluster = Cluster.make ~seed:42 ~params:Params.default ~node_count:4 () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1 ]
      ~app_args:
        (Zapc_apps.Bt_nas.params_to_value
           { Zapc_apps.Bt_nas.default_params with
                   g = 96; iters = 400; ns_per_cell = 2_700 })
      ()
  in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let base = Cluster.snapshot ~incremental:true cluster ~pods:app.Launch.pods
      ~key_prefix:"inc-trace-base" in
  if not base.Manager.r_ok then
    failwith ("incremental: base checkpoint failed: " ^ base.Manager.r_detail);
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 20)) ();
  let tr = Cluster.enable_trace cluster in
  let r = Cluster.snapshot ~incremental:true cluster ~pods:app.Launch.pods
      ~key_prefix:"inc-trace" in
  if not r.Manager.r_ok then
    failwith ("incremental: traced delta checkpoint failed: " ^ r.Manager.r_detail);
  Zapc.Trace.dump_chrome tr "BENCH_incremental_trace.json";
  Zapc_obs.Metrics.dump (Cluster.metrics cluster) "BENCH_incremental_metrics.json";
  let path = "BENCH_incremental.json" in
  inc_json path results;
  Printf.printf
    "\nwrote %s BENCH_incremental_trace.json BENCH_incremental_metrics.json\n"
    path

(* ------------------------------------------------------------------ *)
(* Quick smoke (also the @obs alias input)                             *)
(* ------------------------------------------------------------------ *)

(* One app, one size, one checkpoint series — plus a traced checkpoint whose
   Chrome trace and metrics snapshot are validated by bench/obs_check.ml. *)
let quick () =
  section "QUICK  smoke run: BT/NAS on 4 nodes";
  let base = completion_run Bt 4 Base in
  let zapc = completion_run Bt 4 Zapc_mode in
  Printf.printf "completion base=%.2fs zapc=%.2fs\n" base zapc;
  let s = checkpoint_run ~count:4 Bt 4 in
  Printf.printf "ckpt avg=%.1fms image=%.1fMB restart=%.1fms\n"
    (Stats.mean s.ckpt_times) (Stats.mean s.max_image) s.restart_time;
  let env = launch_app Bt 4 in
  let tr = Cluster.enable_trace env.cluster in
  Cluster.run env.cluster ~until:(Simtime.sec 2.0) ();
  let r =
    Cluster.checkpoint_sync env.cluster
      ~items:(items_for env.cluster env.app ~prefix:"quick")
      ~resume:true
  in
  if not r.Manager.r_ok then failwith ("quick: traced checkpoint failed: " ^ r.Manager.r_detail);
  Zapc.Trace.dump_chrome tr "BENCH_quick_trace.json";
  Zapc_obs.Metrics.dump (Cluster.metrics env.cluster) "BENCH_quick_metrics.json";
  Printf.printf "wrote BENCH_quick_trace.json BENCH_quick_metrics.json\n"

(* ------------------------------------------------------------------ *)
(* Engine profiler: per-callsite event attribution (@prof alias)       *)
(* ------------------------------------------------------------------ *)

(* Not a paper experiment: runs a checkpointed BT/NAS execution with the
   engine profiler on ([Params.profile_engine]) and attributes every fired
   engine event to a labeled callsite.  Coverage — events under a real
   label over all events — must be >= 90%: an unlabeled hot path would
   silently escape the profile.  Event counts are deterministic for the
   seeded run and regression-gated by obs_diff; host seconds are
   wall-clock and excluded from the gate (obs_diff skips "host" keys).
   The critical-path block repeats the mgr.critpath analysis of the traced
   checkpoint.  Dumped to BENCH_profile.json. *)

let profile () =
  section
    "PROF   Engine profiler: per-callsite event counts (profile_engine on)\n\
    \       coverage = events attributed to labeled callsites, >= 90% enforced";
  Zapc_apps.Registry.register_all ();
  let params = { Params.default with Params.profile_engine = true } in
  let cluster = Cluster.make ~seed:42 ~params ~node_count:4 () in
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement:[ 0; 1; 2; 3 ]
      ~app_args:
        (Zapc_apps.Bt_nas.params_to_value
           { Zapc_apps.Bt_nas.default_params with
             g = 96; iters = 300; ns_per_cell = 2_700 })
      ()
  in
  ignore (Cluster.enable_trace cluster);
  Cluster.run cluster ~until:(Simtime.ms 20) ();
  let r =
    Cluster.checkpoint_sync cluster
      ~items:(items_for cluster app ~prefix:"prof")
      ~resume:true
  in
  if not r.Manager.r_ok then
    failwith ("profile: checkpoint failed: " ^ r.Manager.r_detail);
  ignore (Launch.wait_done cluster app);
  let prof = Engine.profile (Cluster.engine cluster) in
  let total = List.fold_left (fun a (_, n, _) -> a + n) 0 prof in
  let labeled =
    List.fold_left
      (fun a (l, n, _) -> if String.equal l "unlabeled" then a else a + n)
      0 prof
  in
  let coverage =
    if total = 0 then 0.0 else float_of_int labeled /. float_of_int total
  in
  row "%-16s %12s %12s\n" "label" "events" "host (ms)";
  List.iter (fun (l, n, s) -> row "%-16s %12d %12.2f\n" l n (s *. 1000.0)) prof;
  row "%-16s %12d\n" "total" total;
  row "coverage: %.1f%% of %d events attributed to labeled callsites\n"
    (coverage *. 100.0) total;
  if coverage < 0.9 then
    failwith
      (Printf.sprintf
         "profile: only %.1f%% of engine events attributed to labeled \
          callsites (expected >= 90%%)"
         (coverage *. 100.0));
  let critpath =
    match Manager.last_critpath (Cluster.manager cluster) with
    | None ->
      failwith "profile: no critical-path report from the traced checkpoint"
    | Some (op, rep) ->
      let module Critpath = Zapc_obs.Critpath in
      Printf.sprintf
        "{\"op\": \"%s\", \"total_ms\": %.3f, \"dominant\": \"%s\",\n\
        \    \"phases\": [\n%s\n    ]}"
        (Zapc_obs.Phase.to_string op)
        (Simtime.to_ms rep.Critpath.cp_total)
        rep.Critpath.cp_dominant
        (String.concat ",\n"
           (List.map
              (fun (name, d) ->
                Printf.sprintf "      {\"phase\": \"%s\", \"ms\": %.3f}" name
                  (Simtime.to_ms d))
              rep.Critpath.cp_phases))
  in
  let path = "BENCH_profile.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"profile\",\n\
    \  \"scenario\": \"BT/NAS on 4 nodes, one traced coordinated checkpoint, \
     engine profiler on\",\n\
    \  \"total_events\": %d,\n\
    \  \"labeled_events\": %d,\n\
    \  \"coverage\": %.4f,\n\
    \  \"labels\": [\n%s\n  ],\n\
    \  \"critpath\": %s\n\
     }\n"
    total labeled coverage
    (String.concat ",\n"
       (List.map
          (fun (l, n, s) ->
            Printf.sprintf
              "    {\"label\": \"%s\", \"count\": %d, \"host_s\": %.6f}" l n s)
          prof))
    critpath;
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Live migration: pre-copy vs stop-and-copy blackout                  *)
(* ------------------------------------------------------------------ *)

(* Not in the paper (ZapC migrates by full checkpoint-restart); this
   measures the iterative pre-copy extension: the full image travels while
   the pod keeps running, rounds re-ship only what the pod dirtied under
   the previous copy, and the blackout shrinks to the final residue plus
   the fixed stop/resume costs.  A synthetic pod with a steady,
   controllable dirty rate sweeps the regime: at low rates pre-copy must
   cut the blackout below 20% of stop-and-copy (that bound is enforced),
   and past the fabric bandwidth the rounds cannot converge — the cap
   forces the stop and the blackout advantage evaporates, which is the
   expected crossover, not a failure.  Dumped to BENCH_migration.json. *)

module Mighog = struct
  module Program = Zapc_simos.Program
  module Syscall = Zapc_simos.Syscall

  (* allocate [regions] x [size] bytes, log ready, then rewrite [stride]
     regions (rotating) every [period_us] forever; stride 0 just sleeps *)
  type state = {
    regions : int;
    size : int;
    stride : int;
    period_us : int;
    mutable ph : int;
    mutable cursor : int;
    mutable burst : int;  (* 0 = sleep next; else touches left this period *)
  }

  let name = "bench.mighog"

  let start args =
    { regions = Value.to_int (Value.field "regions" args);
      size = Value.to_int (Value.field "size" args);
      stride = Value.to_int (Value.field "stride" args);
      period_us = Value.to_int (Value.field "period_us" args);
      ph = 0; cursor = 0; burst = 0 }

  let region i = Printf.sprintf "mig.%d" i

  let step s (_ : Syscall.outcome) =
    if s.ph < s.regions then begin
      let i = s.ph in
      s.ph <- s.ph + 1;
      (s, Program.Sys (Syscall.Mem_alloc (region i, s.size)))
    end
    else if s.ph = s.regions then begin
      s.ph <- s.ph + 1;
      (s, Program.Sys (Syscall.Log "mighog ready"))
    end
    else if s.stride = 0 || s.burst = 0 then begin
      s.burst <- s.stride;
      (s, Program.Sys (Syscall.Nanosleep
                         (if s.stride = 0 then Simtime.sec 50.0
                          else Simtime.us s.period_us)))
    end
    else begin
      s.burst <- s.burst - 1;
      let i = s.cursor in
      s.cursor <- (s.cursor + 1) mod s.regions;
      (* re-alloc at the same size: marks the region dirty *)
      (s, Program.Sys (Syscall.Mem_alloc (region i, s.size)))
    end

  let to_value s =
    Value.assoc
      [ ("regions", Value.int s.regions); ("size", Value.int s.size);
        ("stride", Value.int s.stride); ("period_us", Value.int s.period_us);
        ("ph", Value.int s.ph); ("cursor", Value.int s.cursor);
        ("burst", Value.int s.burst) ]

  let of_value v =
    { regions = Value.to_int (Value.field "regions" v);
      size = Value.to_int (Value.field "size" v);
      stride = Value.to_int (Value.field "stride" v);
      period_us = Value.to_int (Value.field "period_us" v);
      ph = Value.to_int (Value.field "ph" v);
      cursor = Value.to_int (Value.field "cursor" v);
      burst = Value.to_int (Value.field "burst" v) }
end

(* 128 x 512 KB = 64 MB working set: transfer and restore dominate the
   fixed costs, which is the regime where pre-copy pays *)
let mig_regions = 128
let mig_region_size = 524_288

type mig_sample = {
  ms_blackout_ms : float;
  ms_duration_ms : float;
  ms_rounds : int;
  ms_precopy_bytes : int;
  ms_forced : bool;
}

(* One migration of the hog pod at the given dirty rate; [trace] wires the
   run into the Chrome-trace artifact for the @mig observability check. *)
let mig_run ?(trace = false) ~stride ~period_us ~max_rounds () =
  let module Metrics = Zapc_obs.Metrics in
  Zapc_simos.Program.register_if_absent (module Mighog);
  let cluster = Cluster.make ~seed:42 ~params:Params.default ~node_count:2 () in
  let ready = ref false in
  Kernel.set_logger (Cluster.node cluster 0).Cluster.n_kernel (fun _ _ m ->
      if m = "mighog ready" then ready := true);
  let pod = Cluster.create_pod cluster ~node_idx:0 ~name:"mighog" in
  Cluster.link_pods [ pod ];
  let _proc =
    Pod.spawn pod ~program:"bench.mighog"
      ~args:
        (Value.assoc
           [ ("regions", Value.int mig_regions);
             ("size", Value.int mig_region_size);
             ("stride", Value.int stride); ("period_us", Value.int period_us) ])
  in
  Cluster.run_until cluster ~timeout:(Simtime.sec 5.0) (fun () -> !ready);
  (* let the dirtying loop reach steady state before the first capture *)
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 20)) ();
  let tr = if trace then Some (Cluster.enable_trace cluster) else None in
  let r = Cluster.migrate_sync cluster ~pod ~dest_node:1 ~max_rounds in
  if not r.Manager.r_ok then
    failwith ("migration: migrate failed: " ^ r.Manager.r_detail);
  let m = Cluster.metrics cluster in
  let sample =
    { ms_blackout_ms = Metrics.hist_sum m "mig.blackout_ms";
      ms_duration_ms = Metrics.hist_sum m "mgr.mig.duration_ms";
      ms_rounds = int_of_float (Metrics.hist_sum m "mig.rounds");
      ms_precopy_bytes = int_of_float (Metrics.hist_sum m "mig.precopy_bytes");
      ms_forced = Metrics.counter m "mig.forced_stops" > 0 }
  in
  (match tr with
   | Some tr ->
     Zapc.Trace.dump_chrome tr "BENCH_migration_trace.json";
     Metrics.dump m "BENCH_migration_metrics.json"
   | None -> ());
  sample

(* (label, low_rate, stride, period_us): dirty rate = stride*size/period *)
let mig_rates =
  [ ("quiescent", true, 0, 0);
    ("10 MB/s", true, 1, 50_000);
    ("50 MB/s", false, 1, 10_000);
    ("200 MB/s", false, 4, 10_000);
    ("800 MB/s", false, 16, 10_000) ]

let mig_json path rows =
  let oc = open_out path in
  let sample_obj s =
    Printf.sprintf
      "{\"blackout_ms\": %.3f, \"duration_ms\": %.3f, \"rounds\": %d, \
       \"precopy_bytes\": %d, \"forced\": %b}"
      s.ms_blackout_ms s.ms_duration_ms s.ms_rounds s.ms_precopy_bytes
      s.ms_forced
  in
  let row (label, stride, period_us, sc, pc) =
    Printf.sprintf
      "    {\"rate\": \"%s\", \"stride\": %d, \"period_us\": %d,\n\
      \     \"stop_and_copy\": %s,\n\
      \     \"pre_copy\": %s,\n\
      \     \"blackout_ratio\": %.4f}"
      label stride period_us (sample_obj sc) (sample_obj pc)
      (if sc.ms_blackout_ms > 0.0 then pc.ms_blackout_ms /. sc.ms_blackout_ms
       else 0.0)
  in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"migration\",\n\
    \  \"scenario\": \"64 MB pod, dirty-rate sweep; iterative pre-copy \
     (cap 8, threshold 5%%) vs stop-and-copy blackout\",\n\
    \  \"rates\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map row rows));
  close_out oc

let migration () =
  section
    "MIG    Live migration: blackout vs dirty rate, 64 MB pod\n\
    \       (iterative pre-copy, cap 8 rounds, 5% residue threshold,\n\
    \       vs the same pod stop-and-copied)";
  row "%-12s %14s %14s %8s %8s %12s %8s\n" "dirty rate" "SC blackout"
    "PC blackout" "ratio" "rounds" "precopy MB" "forced";
  let rows =
    List.map
      (fun (label, low, stride, period_us) ->
        let sc = mig_run ~stride ~period_us ~max_rounds:0 () in
        let pc = mig_run ~stride ~period_us ~max_rounds:8 () in
        let ratio =
          if sc.ms_blackout_ms > 0.0 then pc.ms_blackout_ms /. sc.ms_blackout_ms
          else 0.0
        in
        row "%-12s %12.1fms %12.1fms %8.3f %8d %12.1f %8s\n" label
          sc.ms_blackout_ms pc.ms_blackout_ms ratio pc.ms_rounds
          (float_of_int pc.ms_precopy_bytes /. 1048576.0)
          (if pc.ms_forced then "yes" else "no");
        (* the headline claim, enforced: at dirty rates the link can absorb,
           pre-copy blacks out for less than 20% of a stop-and-copy *)
        if low && ratio >= 0.2 then
          failwith
            (Printf.sprintf
               "migration: pre-copy blackout %.1fms is %.0f%% of \
                stop-and-copy %.1fms at %s (expected < 20%%)"
               pc.ms_blackout_ms (ratio *. 100.0) sc.ms_blackout_ms label);
        (label, stride, period_us, sc, pc))
      mig_rates
  in
  (* one traced pre-copy migration for the @mig alias: obs_check validates
     the migrate span and the blackout nested strictly inside it *)
  ignore (mig_run ~trace:true ~stride:1 ~period_us:50_000 ~max_rounds:8 ());
  let path = "BENCH_migration.json" in
  mig_json path rows;
  Printf.printf
    "\nwrote %s BENCH_migration_trace.json BENCH_migration_metrics.json\n" path

(* ------------------------------------------------------------------ *)
(* Served traffic: client-side SLO under the full robustness matrix    *)
(* ------------------------------------------------------------------ *)

module Serve = Zapc_apps.Serve
module Obs = Zapc_obs.Metrics

(* One seeded run of the sharded key-value service under 1000 concurrent
   client connections that sweeps the whole matrix while traffic flows: a
   steady-state window, periodic coordinated checkpoints, a live pre-copy
   migration of the loaded shard-0 pod, and a node crash healed by the
   supervisor from the last epoch.  The client-side latency samples are cut
   into per-phase windows and the p99s become the SLO table of
   BENCH_serve.json; the exactly-once contract (issued == completed, zero
   duplicates) is enforced, not just reported. *)

let serve_cfg =
  { Serve.default_cfg with
    n_conns = 1000;
    reqs_per_conn = 12;
    period = Simtime.ms 100;
    req_timeout = Simtime.ms 150 }

type serve_result = {
  sv_stats : Serve.stats;
  sv_expected : int;
  sv_windows : Serve.window_report list;
  sv_detect_ms : float;
  sv_mttr_ms : float;
}

let serve_run () =
  let t = Serve.setup ~nodes:5 ~seed:42 ~cfg:serve_cfg () in
  let cluster = t.Serve.cluster in
  let tr = Cluster.enable_trace cluster in
  (* phase 1 — steady state, no control plane: 100..300 ms *)
  Cluster.run cluster ~until:(Simtime.ms 300) ();
  (* phase 2 — periodic coordinated checkpoints: 300..550 ms *)
  let per =
    Periodic.start cluster ~pods:t.Serve.servers ~prefix:"slo"
      ~period:(Simtime.ms 80) ~keep:2 ()
  in
  let fs = Faultsim.create cluster in
  let sup = Supervisor.start cluster per in
  Cluster.run cluster ~until:(Simtime.ms 550) ();
  (* phase 3 — live pre-copy migration of the loaded shard-0 pod; let any
     in-flight epoch finish first (the Manager runs one op at a time) *)
  Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () ->
      not (Manager.busy (Cluster.manager cluster)));
  let p0 = List.hd t.Serve.servers in
  let m = Cluster.migrate_sync cluster ~pod:p0 ~dest_node:3 in
  if not m.Manager.r_ok then failwith ("serve: migration failed: " ^ m.Manager.r_detail);
  Cluster.run cluster ~until:(Simtime.ms 750) ();
  (* phase 4 — crash the node hosting shard 1; the supervisor detects the
     missed heartbeats and restores both shards from the last good epoch *)
  if Periodic.last_good per < 1 then failwith "serve: no good epoch before the crash";
  let crash_node =
    match Pod.find (List.nth t.Serve.servers 1).Pod.pod_id with
    | Some p ->
      (match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) p.Pod.rip with
       | Some n -> n
       | None -> failwith "serve: shard 1 has no node")
    | None -> failwith "serve: shard 1 pod vanished before the crash"
  in
  let crash_time = Cluster.now cluster in
  Faultsim.install fs
    { Faultsim.fault = Faultsim.Crash_node { node = crash_node };
      trigger = Faultsim.Now };
  Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
      Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup);
  if Supervisor.gave_up sup then failwith "serve: supervisor gave up";
  Serve.wait_done ~timeout:(Simtime.sec 300.0) t;
  Supervisor.stop sup;
  Periodic.stop per;
  (* drain any epoch still in flight before reading quiescent state *)
  Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) (Simtime.ms 300)) ();
  let reg = Cluster.metrics cluster in
  let s = Serve.feed_metrics t in
  let expected = Serve.total_expected t in
  (* the exactly-once contract is the experiment's precondition: a lost or
     doubled response makes the latency table meaningless *)
  if s.Serve.st_issued <> expected || s.st_completed <> expected then
    failwith
      (Printf.sprintf "serve: issued %d completed %d, expected %d" s.st_issued
         s.st_completed expected);
  if s.st_dups <> 0 then
    failwith (Printf.sprintf "serve: %d duplicate responses" s.st_dups);
  if s.st_inflight <> 0 then
    failwith (Printf.sprintf "serve: %d requests still in flight" s.st_inflight);
  for shard = 0 to serve_cfg.nshards - 1 do
    if Serve.digest t ~shard = 0 then
      failwith (Printf.sprintf "serve: shard %d digest is zero" shard)
  done;
  let nf = Zapc_simnet.Fabric.netfilter (Cluster.fabric cluster) in
  if Zapc_simnet.Netfilter.blocked_count nf <> 0 then
    failwith
      (Printf.sprintf "serve: %d leaked netfilter rule(s)"
         (Zapc_simnet.Netfilter.blocked_count nf));
  let crash_ms = Simtime.to_ms crash_time in
  let detect_ms = Obs.gauge reg "sup.last_detect_ms" -. crash_ms in
  let mttr_ms = Obs.gauge reg "sup.last_recovered_ms" -. crash_ms in
  let crash_end = Simtime.ms (int_of_float (crash_ms +. mttr_ms) + 200) in
  let windows =
    [ { Serve.w_name = "steady"; w_from = Simtime.ms 100; w_until = Simtime.ms 300 };
      { Serve.w_name = "checkpoint"; w_from = Simtime.ms 300; w_until = Simtime.ms 550 };
      { Serve.w_name = "migration"; w_from = Simtime.ms 550; w_until = Simtime.ms 750 };
      { Serve.w_name = "crash"; w_from = crash_time; w_until = crash_end } ]
  in
  let reports = List.map (Serve.window_report s) windows in
  Zapc.Trace.dump_chrome tr "BENCH_serve_trace.json";
  Obs.dump reg "BENCH_serve_metrics.json";
  { sv_stats = s; sv_expected = expected; sv_windows = reports;
    sv_detect_ms = detect_ms; sv_mttr_ms = mttr_ms }

(* Mass-socket restore scaling (the hashtable-index claim): suspend the
   service mid-traffic with every connection established and time the
   host-side restart at two population sizes.  With the per-port and
   per-4-tuple indexes the restore is near-linear in the socket count; the
   old per-socket linear scans made it quadratic.  4x the connections must
   cost clearly less than the quadratic 16x. *)

type mass_sample = { mc_conns : int; mc_sockets : int; mc_host_s : float }

let mass_restore_pairs = 5

(* Bound on the median host-time ratio of the 2000- and 500-connection
   restores.  The indexed restore is linear in sockets, but cache and GC
   costs grow with the heap: on a shared 2-core VM the median ranged
   x8.9-x14.4 over six runs (single pairs x8.1-x21.2).  A per-socket
   rescan multiplies whatever this ratio is by another 4x, so x20 repeats
   and still catches it. *)
let mass_restore_bound = 20.0

let serve_mass_restore n_conns =
  let cfg =
    { serve_cfg with n_conns; reqs_per_conn = 40; period = Simtime.ms 40 }
  in
  let t = Serve.setup ~nodes:4 ~seed:23 ~cfg () in
  let cluster = t.Serve.cluster in
  (* every connection established and mid-flight *)
  Cluster.run cluster ~until:(Simtime.ms 250) ();
  let items = Serve.ckpt_items t ~prefix:"mass" in
  let r = Cluster.checkpoint_sync cluster ~items ~resume:false in
  if not r.Manager.r_ok then failwith ("serve: mass checkpoint failed: " ^ r.r_detail);
  let sockets =
    List.fold_left
      (fun acc (_, (st : Protocol.agent_stats)) -> acc + st.Protocol.st_sockets)
      0 r.Manager.r_stats
  in
  (* the previous sample's cluster must not be collected on this clock *)
  Gc.compact ();
  let t0 = Sys.time () in
  let rr =
    Cluster.restart_app cluster
      ~pod_ids:(List.map (fun (p : Pod.t) -> p.Pod.pod_id) t.Serve.servers)
      ~target_nodes:[ 2; 3 ] ~key_prefix:"mass"
  in
  let host = Sys.time () -. t0 in
  if not rr.Manager.r_ok then failwith ("serve: mass restart failed: " ^ rr.r_detail);
  { mc_conns = n_conns; mc_sockets = sockets; mc_host_s = host }

let serve_json path r (small : mass_sample) (big : mass_sample) ratio =
  let oc = open_out path in
  let s = r.sv_stats in
  let w (wr : Serve.window_report) =
    Printf.sprintf
      "    {\"name\": \"%s\", \"count\": %d, \"p50_ms\": %.3f, \"p90_ms\": \
       %.3f, \"p99_ms\": %.3f}"
      wr.Serve.wr_name wr.wr_count wr.wr_p50_ms wr.wr_p90_ms wr.wr_p99_ms
  in
  let mass m =
    Printf.sprintf "    {\"conns\": %d, \"sockets\": %d, \"restore_host_s\": %.4f}"
      m.mc_conns m.mc_sockets m.mc_host_s
  in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"serve\",\n\
    \  \"scenario\": \"sharded kv service, 1000 client connections; steady \
     state, periodic checkpoints, live migration, node crash + supervised \
     recovery\",\n\
    \  \"exactly_once\": {\"expected\": %d, \"issued\": %d, \"completed\": \
     %d, \"duplicates\": %d, \"timeouts\": %d, \"retries\": %d, \
     \"redirects\": %d, \"reconnects\": %d, \"inflight\": %d},\n\
    \  \"windows\": [\n%s\n  ],\n\
    \  \"crash\": {\"detect_ms\": %.3f, \"mttr_ms\": %.3f},\n\
    \  \"mass_restore\": [\n%s\n  ],\n\
    \  \"mass_restore_ratio\": %.3f\n\
     }\n"
    r.sv_expected s.Serve.st_issued s.st_completed s.st_dups s.st_timeouts
    s.st_retries s.st_redirects s.st_reconnects s.st_inflight
    (String.concat ",\n" (List.map w r.sv_windows))
    r.sv_detect_ms r.sv_mttr_ms
    (String.concat ",\n" [ mass small; mass big ])
    ratio;
  close_out oc

let serve () =
  section
    "SERVE  Availability of a served application: p99 client latency while\n\
    \       the service is checkpointed, migrated and crash-recovered\n\
    \       (1000 connections, exactly-once delivery enforced)";
  let r = serve_run () in
  row "%-12s %8s %10s %10s %10s\n" "window" "reqs" "p50 (ms)" "p90 (ms)" "p99 (ms)";
  List.iter
    (fun (wr : Serve.window_report) ->
      row "%-12s %8d %10.2f %10.2f %10.2f\n" wr.Serve.wr_name wr.wr_count
        wr.wr_p50_ms wr.wr_p90_ms wr.wr_p99_ms)
    r.sv_windows;
  row "crash: detect %.1fms, mttr %.1fms; %d/%d exactly-once (%d retries, %d dups)\n"
    r.sv_detect_ms r.sv_mttr_ms r.sv_stats.Serve.st_completed r.sv_expected
    r.sv_stats.Serve.st_retries r.sv_stats.Serve.st_dups;
  (* host speed drifts on a shared machine: time the two sizes in
     alternating pairs and gate the median of the per-pair ratios *)
  let pairs =
    List.init mass_restore_pairs (fun _ ->
        let small = serve_mass_restore 500 in
        (small, serve_mass_restore 2000))
  in
  let ratios =
    List.map (fun (s, b) -> b.mc_host_s /. Float.max s.mc_host_s 1e-6) pairs
  in
  let ratio = Micro.median ratios in
  let median_sample sel =
    let ms = List.map sel pairs in
    { (List.hd ms) with
      mc_host_s = Micro.median (List.map (fun m -> m.mc_host_s) ms) }
  in
  let small = median_sample fst and big = median_sample snd in
  row "mass restore: %d sockets %.3fs -> %d sockets %.3fs (median x%.1f; \
       pairs %s)\n"
    small.mc_sockets small.mc_host_s big.mc_sockets big.mc_host_s ratio
    (String.concat " " (List.map (Printf.sprintf "x%.1f") ratios));
  (* enforce the scaling claim only when the small run is long enough for
     the host clock to mean anything *)
  if small.mc_host_s > 0.01 && ratio > mass_restore_bound then
    failwith
      (Printf.sprintf
         "serve: mass restore scaled x%.1f for 4x the sockets — the restore \
          indexes look broken (quadratic rescan)"
         ratio);
  let path = "BENCH_serve.json" in
  serve_json path r small big ratio;
  Printf.printf "\nwrote %s BENCH_serve_trace.json BENCH_serve_metrics.json\n" path

(* ------------------------------------------------------------------ *)
(* SCALE: cluster-scale coordination — flat star vs hierarchical tree  *)
(* ------------------------------------------------------------------ *)

(* Coordinated checkpoint of one (contentless) pod per node at N up to
   1000.  With the per-pod image costs pinned small and jitter off, the
   sweep isolates the CONTROL PLANE: per-message serial processing at
   each coordinator (ctrl_proc) plus per-hop channel latency.  A flat
   star pays O(N) serial sends and receives at the root every phase; a
   fanout-k tree pays O(log_k N) hops of latency but only O(k) serial
   work per coordinator, so the two curves cross in the low hundreds of
   nodes and the tree pulls away from there (DESIGN.md section 13).

   The same artifact carries the engine hot-path numbers: raw events/s
   of the heap baseline vs the calendar queue under steady-state churn
   (micro.ml), dense and sparse, each gated on the median of alternating
   pairs at its own floor.  Those rates are host facts — they live under
   "host" keys so the obs_diff baseline skips them — but the ratio floors
   are enforced right here with a hard failure. *)

let scale_fanout = 4
let scale_counts = [ 16; 64; 128; 256; 512; 1000 ]

(* Floor on the median calendar/heap events/s ratio over five alternating
   pairs.  On a shared 2-core VM the median ranged 4.6-5.2x over nine
   runs (single pairs 2.9-7.6x); 4x repeats there and still fails a
   calendar queue that lost its O(1) append. *)
let scale_engine_floor = 4.0

(* Floor on the same ratio for sixteen self-rescheduling timers 0.8us-5ms
   out.  On a shared 2-core VM a calendar that steps through every empty
   fine bucket measured 0.20-0.21x there (pairs 0.18-0.22x); one that
   jumps to the next occupied bucket through its occupancy bitmap
   measured a 0.90-0.96x median over five runs (pairs 0.74-1.21x). *)
let scale_sparse_floor = 0.7

(* The smallest possible resident: allocate one page, then park in a
   sleep loop forever.  One of these per node keeps every Agent's
   checkpoint real (a live process, a memory region, program state to
   encode) while contributing nothing to the latency being measured. *)
module Idler = struct
  module Program = Zapc_simos.Program
  module Syscall = Zapc_simos.Syscall

  type state = { mutable booted : bool }

  let name = "bench.idler"
  let start _args = { booted = false }

  let step s (_ : Syscall.outcome) =
    if not s.booted then begin
      s.booted <- true;
      (s, Program.Sys (Syscall.Mem_alloc ("idle", 4096)))
    end
    else (s, Program.Sys (Syscall.Nanosleep (Simtime.sec 50.0)))

  let to_value s = Value.Bool s.booted
  let of_value v = { booted = Value.to_bool v }
end

let scale_params fanout =
  { Params.default with
    Params.ctrl_latency = Simtime.us 300;
    ctrl_proc = Simtime.us 25;
    tree_fanout = fanout;
    cost_jitter = 0.0;
    storage_bps = 1e12;
    ckpt_fixed = Simtime.us 200;
    restore_fixed = Simtime.us 200 }

type scale_row = {
  sc_nodes : int;
  sc_flat_ms : float;
  sc_tree_ms : float;
  sc_depth : int;  (* relay hops below the manager in the tree arm *)
  sc_flat_restart_ms : float;
  sc_tree_restart_ms : float;
}

(* One pod per node, linked into one application, booted and parked. *)
let scale_cluster ~nodes ~fanout =
  Zapc_simos.Program.register_if_absent (module Idler);
  let cluster =
    Cluster.make ~seed:42 ~params:(scale_params fanout) ~node_count:nodes ()
  in
  let pods =
    List.init nodes (fun i ->
        Cluster.create_pod cluster ~node_idx:i
          ~name:(Printf.sprintf "idler%d" i))
  in
  Cluster.link_pods pods;
  List.iter
    (fun pod -> ignore (Pod.spawn pod ~program:Idler.name ~args:Value.unit))
    pods;
  (* let every idler boot and park before the measured checkpoint *)
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  (cluster, pods)

(* Destroy the checkpointed pods and restart every one of them one node
   over; returns the restart's virtual latency and its host CPU seconds.
   The restored pods leave the process-wide pod registry afterwards, so the
   next cluster's restarts do not re-announce into stale namespaces. *)
let scale_restart cluster pods ~key_prefix =
  let nodes = List.length pods in
  let ids = List.map (fun (p : Pod.t) -> p.Pod.pod_id) pods in
  List.iter Pod.destroy pods;
  Gc.compact ();
  let t0 = Sys.time () in
  let r =
    Cluster.restart_app cluster ~pod_ids:ids
      ~target_nodes:(List.init nodes (fun i -> (i + 1) mod nodes))
      ~key_prefix
  in
  let host_s = Sys.time () -. t0 in
  if not r.Manager.r_ok then
    failwith
      (Printf.sprintf "scale: restart failed at %d nodes: %s" nodes
         r.Manager.r_detail);
  List.iter (fun id -> Option.iter Pod.destroy (Pod.find id)) ids;
  (Simtime.to_sec r.Manager.r_duration *. 1000.0, host_s)

let scale_arm ~nodes ~fanout =
  let cluster, pods = scale_cluster ~nodes ~fanout in
  let r = Cluster.snapshot cluster ~pods ~key_prefix:"scale" in
  if not r.Manager.r_ok then
    failwith
      (Printf.sprintf "scale: checkpoint failed at %d nodes (fanout %d): %s"
         nodes fanout r.Manager.r_detail);
  let depth =
    int_of_float (Zapc_obs.Metrics.gauge (Cluster.metrics cluster) "mgr.tree.depth")
  in
  let restart_ms, _ = scale_restart cluster pods ~key_prefix:"scale" in
  (Simtime.to_sec r.Manager.r_duration *. 1000.0, depth, restart_ms)

let scale_measure nodes =
  let flat_ms, _, flat_restart_ms = scale_arm ~nodes ~fanout:0 in
  let tree_ms, depth, tree_restart_ms = scale_arm ~nodes ~fanout:scale_fanout in
  { sc_nodes = nodes; sc_flat_ms = flat_ms; sc_tree_ms = tree_ms;
    sc_depth = depth; sc_flat_restart_ms = flat_restart_ms;
    sc_tree_restart_ms = tree_restart_ms }

(* Host-time growth of the restart: each restored pod re-announces its vip
   to every live pod.  Recorded once in the rebind table and read only by
   namespaces that translate, N restores cost O(N log N); pushed into
   every live namespace they cost O(N^2), and O(N^3) when each rebind
   rewrote the namespace's whole map.  Timed in five alternating
   64/256/1,024-node rounds of the tree arm; the gate holds the median
   256/64 ratio under [scale_restart_bound], and the 1,024/256 ratio is
   reported. *)
let scale_restart_pairs = 5
let scale_restart_small = 64
let scale_restart_big = 256
let scale_restart_huge = 1024

(* Linear growth is x4, quadratic x16.  On a shared 2-core VM the logged
   rebind's median ranged x7.9-x8.1 over three runs (single pairs
   x7.8-x10.1: cache and GC costs grow with the heap), and the broadcast
   to every live namespace it replaced had medians of x17.8-x21.9 (pairs
   up to x30.7).  x12 passes the one and fails the other. *)
let scale_restart_bound = 12.0

let scale_restart_host nodes =
  let cluster, pods = scale_cluster ~nodes ~fanout:scale_fanout in
  let r = Cluster.snapshot cluster ~pods ~key_prefix:"scale_host" in
  if not r.Manager.r_ok then
    failwith ("scale: host-timing checkpoint failed: " ^ r.Manager.r_detail);
  snd (scale_restart cluster pods ~key_prefix:"scale_host")

(* The median host seconds at each size, and each round's 256/64 and
   1,024/256 ratios. *)
let scale_restart_growth () =
  let rounds =
    List.init scale_restart_pairs (fun _ ->
        List.map scale_restart_host [ scale_restart_small; scale_restart_big; scale_restart_huge ])
  in
  let column i = Micro.median (List.map (fun r -> List.nth r i) rounds) in
  let ratios i = List.map (fun r -> List.nth r (i + 1) /. List.nth r i) rounds in
  ([ column 0; column 1; column 2 ], ratios 0, ratios 1)

let scale_json path rows crossover engines (cpu_s, restart_ratio, huge_ratio) =
  let oc = open_out path in
  let field r =
    Printf.sprintf
      "    {\"nodes\": %d, \"flat_ms\": %.3f, \"tree_ms\": %.3f, \
       \"tree_depth\": %d, \"speedup_ratio\": %.3f, \
       \"flat_restart_ms\": %.3f, \"tree_restart_ms\": %.3f}"
      r.sc_nodes r.sc_flat_ms r.sc_tree_ms r.sc_depth
      (r.sc_flat_ms /. r.sc_tree_ms) r.sc_flat_restart_ms r.sc_tree_restart_ms
  in
  let engine (name, (c : Micro.churn), floor, (heap_rate, cal_rate, ratio)) =
    Printf.sprintf
      "  \"%s\": {\"events\": %d, \"standing\": %d,\n\
      \             \"host_heap_events_per_sec\": %.0f,\n\
      \             \"host_calendar_events_per_sec\": %.0f,\n\
      \             \"host_speedup\": %.2f, \"floor_ratio\": %.1f},\n"
      name c.events c.standing heap_rate cal_rate ratio floor
  in
  let last = List.nth rows (List.length rows - 1) in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"scale\",\n\
    \  \"scenario\": \"coordinated checkpoint of one pod per node, flat star \
     vs fanout-%d tree\",\n\
    \  \"source\": \"Manager r_duration; mgr.tree.* gauges (see \
     doc/OBSERVABILITY.md)\",\n\
    \  \"fanout\": %d,\n\
    \  \"sweep\": [\n%s\n  ],\n\
    \  \"crossover_nodes\": %d,\n\
    \  \"max_nodes_speedup_ratio\": %.3f,\n\
     %s\
    \  \"restart_host\": {\"small_nodes\": %d, \"big_nodes\": %d, \"huge_nodes\": %d,\n\
    \                   \"small_cpu_s\": %.4f, \"big_cpu_s\": %.4f, \"huge_cpu_s\": %.4f,\n\
    \                   \"growth_ratio\": %.2f, \"huge_growth_ratio\": %.2f,\n\
    \                   \"bound_ratio\": %.1f}\n\
     }\n"
    scale_fanout scale_fanout
    (String.concat ",\n" (List.map field rows))
    crossover
    (last.sc_flat_ms /. last.sc_tree_ms)
    (String.concat "" (List.map engine engines))
    scale_restart_small scale_restart_big scale_restart_huge (List.nth cpu_s 0)
    (List.nth cpu_s 1) (List.nth cpu_s 2) restart_ratio huge_ratio scale_restart_bound;
  close_out oc

let scale () =
  section
    (Printf.sprintf
       "SCALE  Coordinated-checkpoint latency, flat star vs fanout-%d tree\n\
       \       (one pod per node; 25us serial per message at every\n\
       \       coordinator, 300us per-hop latency) + engine events/s, heap\n\
       \       baseline vs calendar queue"
       scale_fanout);
  row "%6s %12s %12s %7s %9s %14s %14s\n" "nodes" "flat (ms)" "tree (ms)" "depth"
    "speedup" "flat rst (ms)" "tree rst (ms)";
  let rows = List.map scale_measure scale_counts in
  List.iter
    (fun r ->
      row "%6d %12.2f %12.2f %7d %8.2fx %14.2f %14.2f\n" r.sc_nodes r.sc_flat_ms
        r.sc_tree_ms r.sc_depth (r.sc_flat_ms /. r.sc_tree_ms)
        r.sc_flat_restart_ms r.sc_tree_restart_ms)
    rows;
  let crossover =
    match List.find_opt (fun r -> r.sc_tree_ms < r.sc_flat_ms) rows with
    | Some r -> r.sc_nodes
    | None -> failwith "scale: tree never beat flat — hierarchy is broken"
  in
  let last = List.nth rows (List.length rows - 1) in
  if last.sc_tree_ms >= last.sc_flat_ms then
    failwith
      (Printf.sprintf
         "scale: tree slower than flat at %d nodes (%.2fms vs %.2fms)"
         last.sc_nodes last.sc_tree_ms last.sc_flat_ms);
  row "crossover at %d nodes; %.2fx at %d nodes\n" crossover
    (last.sc_flat_ms /. last.sc_tree_ms) last.sc_nodes;
  let engine_gate (name, c, floor) =
    let heap_rate, cal_rate, ratios = Micro.engine_throughput c in
    let ratio = Micro.median ratios in
    row "%s churn: heap %.2f Mev/s, calendar %.2f Mev/s (median %.2fx; \
         pairs %s)\n"
      name (heap_rate /. 1e6) (cal_rate /. 1e6) ratio
      (String.concat " " (List.map (Printf.sprintf "%.2fx") ratios));
    if ratio < floor then
      failwith
        (Printf.sprintf
           "scale: %s churn: calendar queue only %.2fx the heap baseline \
            (floor %.1fx)"
           name ratio floor);
    (name, c, floor, (heap_rate, cal_rate, ratio))
  in
  let engines =
    List.map engine_gate
      [ ("engine", Micro.dense, scale_engine_floor);
        ("engine_sparse", Micro.sparse, scale_sparse_floor) ]
  in
  let cpu_s, growth, huge_growth = scale_restart_growth () in
  let restart_ratio = Micro.median growth and huge_ratio = Micro.median huge_growth in
  let pairs g = String.concat " " (List.map (Printf.sprintf "x%.1f") g) in
  row "restart host CPU: %s (median x%.1f, pairs %s; then median x%.1f, \
       pairs %s)\n"
    (String.concat ", "
       (List.map2 (Printf.sprintf "%d nodes %.3fs")
          [ scale_restart_small; scale_restart_big; scale_restart_huge ] cpu_s))
    restart_ratio (pairs growth) huge_ratio (pairs huge_growth);
  if restart_ratio > scale_restart_bound then
    failwith
      (Printf.sprintf
         "scale: restart host time grew x%.1f for 4x the nodes (bound x%.0f) — \
          the vip rebind looks like a broadcast to every namespace again"
         restart_ratio scale_restart_bound);
  (* a traced tree-mode checkpoint: the causal tree must survive the
     extra relay hop (manager op span -> agent pod spans, cross-node
     parent edges intact), validated by obs_check --causal in @scale *)
  Zapc_simos.Program.register_if_absent (module Idler);
  let cluster =
    Cluster.make ~seed:42 ~params:(scale_params scale_fanout) ~node_count:16 ()
  in
  let pods =
    List.init 16 (fun i ->
        Cluster.create_pod cluster ~node_idx:i
          ~name:(Printf.sprintf "idler%d" i))
  in
  Cluster.link_pods pods;
  List.iter
    (fun pod -> ignore (Pod.spawn pod ~program:Idler.name ~args:Value.unit))
    pods;
  let tr = Cluster.enable_trace cluster in
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  let r = Cluster.snapshot cluster ~pods ~key_prefix:"scale_traced" in
  if not r.Manager.r_ok then
    failwith ("scale: traced tree checkpoint failed: " ^ r.Manager.r_detail);
  Zapc.Trace.dump_chrome tr "BENCH_scale_trace.json";
  let path = "BENCH_scale.json" in
  scale_json path rows crossover engines (cpu_s, restart_ratio, huge_ratio);
  Printf.printf "\nwrote %s BENCH_scale_trace.json\n" path

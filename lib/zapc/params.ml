(* Global configuration of a simulated ZapC cluster: the fabric and kernel
   cost models plus the checkpoint-restart specific knobs and the ablation
   switches. *)

module Simtime = Zapc_sim.Simtime
module Fabric = Zapc_simnet.Fabric
module Kconfig = Zapc_simos.Kconfig

(* Where checkpoint images live (see DESIGN.md §14):
   - [Sb_plain]: every image verbatim on every replica of the shared store
     (the default).
   - [Sb_dedup]: content-addressed chunk store — encoded bytes and modelled
     memory regions split into FNV-addressed chunks stored once and freed
     with the last stored image that references them.
   - [Sb_buddy]: peer-memory backend — each image lands in the owner node's
     RAM plus a partner ("buddy") node's RAM over the per-node links,
     bypassing the shared SAN entirely; the Supervisor re-buddies surviving
     copies when a node dies. *)
type storage_backend = Sb_plain | Sb_dedup | Sb_buddy

let backend_name = function
  | Sb_plain -> "plain"
  | Sb_dedup -> "dedup"
  | Sb_buddy -> "buddy"

type t = {
  fabric : Fabric.config;
  kconfig : Kconfig.t;
  (* Manager <-> Agent control plane *)
  ctrl_latency : Simtime.t;
  ctrl_bps : float;
  ctrl_proc : Simtime.t;
  (* serial CPU cost of sending or receiving one control message at a
     coordinator (the Manager or a tree sub-coordinator): marshalling plus
     the syscall/wakeup.  This is the per-message overhead that makes N
     direct channels converge into a root bottleneck at cluster scale; a
     batch forwarded through the tree counts as ONE message.  Zero (the
     default) disables the cost model entirely: handlers run inline. *)
  tree_fanout : int;
  (* fan-out of the control tree (the manager talks to [tree_fanout]
     direct children; each relays for a k-ary subtree, aggregating acks
     upward and fanning commands out downward).  0 (the default), or a
     fanout of at least the alive node count, forms the depth-1 tree: the
     paper's flat star, every node a direct child, no relays. *)
  (* checkpoint-restart cost model *)
  per_proc_ckpt : Simtime.t;  (* fixed kernel work to save one process *)
  per_proc_restore : Simtime.t;
  per_socket_ckpt : Simtime.t;
  per_socket_restore : Simtime.t;
  net_ckpt_fixed : Simtime.t;  (* walk socket tables, sync with netfilter *)
  net_restore_fixed : Simtime.t;
  ckpt_fixed : Simtime.t;  (* per-pod quiesce + kernel-object enumeration *)
  restore_fixed : Simtime.t;  (* per-pod image validation + object re-creation *)
  mem_bw : float;  (* image write/read bandwidth to memory, bytes/s *)
  storage_bps : float;  (* SAN flush bandwidth (not in checkpoint time) *)
  storage_backend : storage_backend;
  compress : bool;
  (* compress images before storing: stored/flushed bytes shrink to the
     image's modelled compressed size while checkpoint (and storage-path
     restore) pay the Agent's virtual-CPU compressor cost *)
  cost_jitter : float;
  (* relative uniform jitter on agent-side costs, modelling background
     activity and cache effects (the paper reports checkpoint-time std-devs
     of 10-60% of the average) *)
  phase_timeout : Simtime.t;
  (* how long the Manager waits in each protocol phase (meta-gather,
     completion-gather) before aborting the operation, and how long an Agent
     holds a suspended pod waiting for 'continue' before aborting on its
     side.  A broken channel aborts promptly on its own; the timeout covers
     hung-but-connected peers.  Zero disables timeouts. *)
  fs_snapshot : bool;
  (* take a file-system snapshot of the pod's directory immediately prior
     to reactivating it (paper section 4); the copy cost extends the pause *)
  (* self-healing supervisor (heartbeats + automatic recovery) *)
  heartbeat_period : Simtime.t;  (* interval between supervisor pings *)
  heartbeat_misses : int;
  (* consecutive unanswered pings before a node is declared dead *)
  recover_backoff : Simtime.t;  (* base delay before a recovery retry *)
  recover_backoff_max : Simtime.t;  (* cap on the exponential backoff *)
  recover_retries : int;  (* recovery attempts before giving up *)
  max_delta_chain : int;
  (* incremental checkpointing: how many consecutive delta images may chain
     off one full image before the Agent forces a full checkpoint again
     (bounds restart materialization work and lets old epochs be pruned) *)
  (* live migration (iterative pre-copy) *)
  mig_resume_fixed : Simtime.t;
  (* destination-side activation cost when the pod skeleton and memory were
     prestaged by the pre-copy rounds (replaces [restore_fixed]) *)
  mig_stop_fixed : Simtime.t;
  (* source-side fixed cost of the final stop-and-copy when pre-copy rounds
     already ran: the kernel objects were enumerated by the rounds, only the
     dirty-residue scan remains (replaces [ckpt_fixed]) *)
  (* design switches (ablations) *)
  redirect_sendq : bool;  (* merge send queues into the peer's ckpt stream *)
  serial_ckpt : bool;  (* barrier before the standalone checkpoint (OFF in ZapC) *)
  peek_mode : bool;  (* Cruz-style receive-queue capture (flawed baseline) *)
  profile_engine : bool;
  (* per-callsite engine profiling (Engine.set_profiling); off by default so
     the scheduler hot path stays unlabeled and unwrapped *)
}

let default =
  {
    fabric = Fabric.default_config;
    kconfig = Kconfig.default;
    ctrl_latency = Simtime.us 120;
    ctrl_bps = 1e9;
    ctrl_proc = Simtime.zero;
    tree_fanout = 0;
    per_proc_ckpt = Simtime.us 400;
    per_proc_restore = Simtime.us 700;
    per_socket_ckpt = Simtime.us 400;
    per_socket_restore = Simtime.ms 3;
    net_ckpt_fixed = Simtime.us 2500;
    net_restore_fixed = Simtime.ms 8;
    ckpt_fixed = Simtime.ms 85;
    restore_fixed = Simtime.ms 160;
    mem_bw = 1.5e9;
    storage_bps = 180e6;
    storage_backend = Sb_plain;
    compress = false;
    cost_jitter = 0.35;
    phase_timeout = Simtime.sec 60.0;
    fs_snapshot = false;
    heartbeat_period = Simtime.ms 100;
    heartbeat_misses = 3;
    recover_backoff = Simtime.ms 50;
    recover_backoff_max = Simtime.sec 2.0;
    recover_retries = 5;
    max_delta_chain = 4;
    mig_resume_fixed = Simtime.ms 12;
    mig_stop_fixed = Simtime.ms 8;
    redirect_sendq = false;
    serial_ckpt = false;
    peek_mode = false;
    profile_engine = false;
  }

(* Virtual time to copy [bytes] at [bps]. *)
let copy_time ~bps bytes =
  Simtime.ns (int_of_float (float_of_int bytes /. bps *. 1e9))

let scale t k = Simtime.ns (t * k)

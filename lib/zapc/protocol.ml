(* Wire protocol between the Manager and the Agents (Figures 1 and 3).

   A user request names the application as a list of <<node, pod, URI>>
   tuples; a URI is either a shared-storage key or the address of a
   receiving Agent (direct migration streaming, paper section 4). *)

module Simtime = Zapc_sim.Simtime
module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Meta = Zapc_netckpt.Meta
module Image = Zapc_ckpt.Image

type uri =
  | U_storage of string  (* key in the shared storage *)
  | U_node of int  (* stream directly to the Agent on this node *)

let uri_to_string = function
  | U_storage k -> "file://" ^ k
  | U_node n -> Printf.sprintf "agent://node%d" n

(* --- structured failure reasons --- *)

(* The two wait phases of a coordinated operation as the Manager sees them:
   gathering meta-data reports, then gathering completion statuses (restart
   only has the latter). *)
type phase = Ph_meta | Ph_done

let phase_to_string = function
  | Ph_meta -> "meta-gather"
  | Ph_done -> "completion-gather"

type failure =
  | F_agent of { node : int; pod_id : int; detail : string }
      (* an Agent reported the operation failed on its side *)
  | F_channel of { node : int }  (* a Manager<->Agent channel broke *)
  | F_timeout of { phase : phase; waiting : int list }
      (* a per-phase timeout expired with these pods still unreported *)
  | F_missing_image of string  (* restart precondition failed *)

let failure_to_string = function
  | F_agent { node; pod_id; detail } ->
    Printf.sprintf "pod %d (node %d): %s" pod_id node detail
  | F_channel { node } -> Printf.sprintf "control channel to node %d broke" node
  | F_timeout { phase; waiting } ->
    Printf.sprintf "%s phase timed out waiting for pods [%s]" (phase_to_string phase)
      (String.concat "," (List.map string_of_int waiting))
  | F_missing_image msg -> msg

(* --- per-operation statistics reported by Agents --- *)

type agent_stats = {
  st_net_time : Simtime.t;  (* network-state save/restore time *)
  st_local_time : Simtime.t;  (* total local operation time *)
  st_conn_time : Simtime.t;  (* restart: connectivity recovery time *)
  st_image_bytes : int;  (* logical size of what was written *)
  st_full_bytes : int;
  (* when the write was a delta: the logical size a full checkpoint would
     have written (st_image_bytes / st_full_bytes is the delta ratio);
     0 when the write was a full image *)
  st_net_bytes : int;  (* network-state bytes (queues + meta) *)
  st_sockets : int;
  st_procs : int;
}

let zero_stats =
  { st_net_time = 0; st_local_time = 0; st_conn_time = 0; st_image_bytes = 0;
    st_full_bytes = 0; st_net_bytes = 0; st_sockets = 0; st_procs = 0 }

(* One pre-copy round as the source Agent reports it. *)
type mig_round_stats = {
  mg_round : int;  (* 0 = the full-image round *)
  mg_bytes : int;  (* logical bytes shipped this round *)
  mg_dirty : int;  (* dirty bytes observed when the round's stream landed *)
  mg_duration : Simtime.t;
}

(* --- trace context ---

   Causal propagation across the control plane: the Manager stamps the
   operation-starting commands with its operation id and the span id of the
   operation's manager-side span, and the Agent parents its local spans
   under it — stitching every node's phases into one cross-node tree (the
   span recorder is shared cluster-wide, so ids resolve globally).  The
   field is optional on the wire: frames encoded before the field existed
   (or by a non-tracing Manager) decode to [None]. *)

type trace_ctx = {
  tc_op : int;  (* manager operation id (generation counter) *)
  tc_parent : int;  (* span id of the manager-side operation span *)
}

(* Live pre-copy as a pre-phase of a checkpoint to [U_node]: rounds ship
   the running pod until its dirty residue falls to [dirty_threshold] x the
   full image, or [max_rounds] have run (0 = plain stop-and-copy). *)
type precopy = { max_rounds : int; dirty_threshold : float }

type to_agent =
  | A_checkpoint of {
      pod_id : int; dest : uri; resume : bool; incremental : bool;
      precopy : precopy option;  (* Some: a live migration (U_node only) *)
      ctx : trace_ctx option;
    }
  | A_continue of { pod_id : int }
  | A_abort of { pod_id : int }
  | A_restart of {
      pod_id : int;
      name : string;
      vip : Addr.ip;
      rip : Addr.ip;  (* pre-allocated real address on the target node *)
      uri : uri;
      entries : Meta.restart_entry list;
      vip_map : (Addr.ip * Addr.ip) list;
      extra_altq : (int * string) list;  (* sock_ref -> redirected peer data *)
      skip_sendq : bool;  (* send queues were redirected; do not resend *)
      ctx : trace_ctx option;
    }
  | A_ping of { seq : int }  (* supervisor heartbeat probe *)
  | A_batch of (int * to_agent) list
      (* a bundle of addressed commands sent as
         ONE control message down a tree edge.  Each (node, msg) item is
         delivered locally when [node] is the receiver, else forwarded
         toward it (re-bundled per next hop).  Never nested: coordinators
         flatten before forwarding. *)

type to_manager =
  | M_meta of { node : int; pod_id : int; meta : Meta.pod_meta; meta_bytes : int }
  | M_done of { node : int; pod_id : int; ok : bool; detail : string; stats : agent_stats }
  | M_pong of { node : int; seq : int }  (* heartbeat reply *)
  | M_migrate_round of { node : int; pod_id : int; stats : mig_round_stats }
      (* the source: one pre-copy round's stream has landed at the dest *)
  | M_migrate_done of {
      node : int;
      (* the DESTINATION node: a [U_node] image has landed there, which
         commits the item *)
      pod_id : int;
      rounds : int;  (* pre-copy rounds that ran (cap 0 => 0) *)
      precopy_bytes : int;  (* bytes shipped before the stop-and-copy *)
      forced : bool;  (* round cap hit without converging *)
    }
  | M_batch of to_manager list
      (* reports from one subtree aggregated into
         ONE control message up a tree edge (flattened, never nested) *)
  | M_subtree_down of { node : int }
      (* a sub-coordinator's edge to child [node] broke: that whole subtree
         is unreachable.  Relayed up so the Manager can abort exactly as if
         its own channel to [node] had broken. *)

(* Rough message sizes for the control-plane cost model. *)
let rec to_agent_bytes = function
  | A_checkpoint _ -> 64
  | A_continue _ -> 16
  | A_abort _ -> 16
  | A_ping _ -> 16
  | A_restart r ->
    128
    + (List.length r.entries * 64)
    + (List.length r.vip_map * 8)
    + List.fold_left (fun acc (_, d) -> acc + String.length d) 0 r.extra_altq
  | A_batch items ->
    (* one frame: per-item routing header + payload, amortizing the
       per-message framing a depth-1 tree pays once per command *)
    List.fold_left (fun acc (_, m) -> acc + 8 + to_agent_bytes m) 16 items

let rec to_manager_bytes = function
  | M_meta m -> 32 + m.meta_bytes
  | M_done _ -> 64
  | M_pong _ -> 16
  | M_migrate_round _ -> 48
  | M_migrate_done _ -> 32
  | M_batch items ->
    List.fold_left (fun acc m -> acc + 4 + to_manager_bytes m) 16 items
  | M_subtree_down _ -> 16

(* --- Value codecs ---

   Control messages share the checkpoint images' portable intermediate
   format, so a Manager and an Agent built from different kernels (or a
   message relayed through storage) agree on the bytes.  Round-tripping is
   property-tested in test/test_codec.ml. *)

let uri_to_value = function
  | U_storage k -> Value.tag "storage" (Value.str k)
  | U_node n -> Value.tag "node" (Value.int n)

let uri_of_value v =
  match Value.to_tag v with
  | "storage", k -> U_storage (Value.to_str k)
  | "node", n -> U_node (Value.to_int n)
  | tag, _ -> Value.decode_error "bad uri tag %s" tag

let stats_to_value st =
  Value.assoc
    [ ("net_time", Value.int st.st_net_time);
      ("local_time", Value.int st.st_local_time);
      ("conn_time", Value.int st.st_conn_time);
      ("image_bytes", Value.int st.st_image_bytes);
      ("full_bytes", Value.int st.st_full_bytes);
      ("net_bytes", Value.int st.st_net_bytes);
      ("sockets", Value.int st.st_sockets);
      ("procs", Value.int st.st_procs) ]

let stats_of_value v =
  let i k = Value.to_int (Value.field k v) in
  { st_net_time = i "net_time"; st_local_time = i "local_time";
    st_conn_time = i "conn_time"; st_image_bytes = i "image_bytes";
    st_full_bytes = i "full_bytes"; st_net_bytes = i "net_bytes";
    st_sockets = i "sockets"; st_procs = i "procs" }

let mig_round_stats_to_value st =
  Value.assoc
    [ ("round", Value.int st.mg_round);
      ("bytes", Value.int st.mg_bytes);
      ("dirty", Value.int st.mg_dirty);
      ("duration", Value.int st.mg_duration) ]

let mig_round_stats_of_value v =
  let i k = Value.to_int (Value.field k v) in
  { mg_round = i "round"; mg_bytes = i "bytes"; mg_dirty = i "dirty";
    mg_duration = i "duration" }

(* The trace context rides as an optional trailing assoc entry, so frames
   encoded without it (older encoders, tracing off) stay decodable — the
   backward-compatibility property test_codec.ml exercises. *)
let ctx_entries = function
  | None -> []
  | Some c ->
    [ ( "ctx",
        Value.assoc
          [ ("op", Value.int c.tc_op); ("parent", Value.int c.tc_parent) ] ) ]

let ctx_of_body b =
  match Value.field_opt "ctx" b with
  | None -> None
  | Some cv ->
    Some
      { tc_op = Value.to_int (Value.field "op" cv);
        tc_parent = Value.to_int (Value.field "parent" cv) }

(* Pre-copy arguments ride as an optional assoc entry too: absent means a
   plain checkpoint. *)
let precopy_entries = function
  | None -> []
  | Some p ->
    [ ("precopy", Value.pair Value.int (fun f -> Value.Float f) (p.max_rounds, p.dirty_threshold)) ]

let precopy_of_body b =
  Option.map
    (fun v ->
      let max_rounds, dirty_threshold = Value.to_pair Value.to_int Value.to_float v in
      { max_rounds; dirty_threshold })
    (Value.field_opt "precopy" b)

let rec to_agent_to_value = function
  | A_checkpoint { pod_id; dest; resume; incremental; precopy; ctx } ->
    Value.tag "checkpoint"
      (Value.assoc
         ([ ("pod", Value.int pod_id); ("dest", uri_to_value dest);
            ("resume", Value.bool resume); ("incremental", Value.bool incremental) ]
          @ precopy_entries precopy @ ctx_entries ctx))
  | A_continue { pod_id } -> Value.tag "continue" (Value.int pod_id)
  | A_abort { pod_id } -> Value.tag "abort" (Value.int pod_id)
  | A_restart
      { pod_id; name; vip; rip; uri; entries; vip_map; extra_altq; skip_sendq;
        ctx } ->
    Value.tag "restart"
      (Value.assoc
         ([ ("pod", Value.int pod_id); ("name", Value.str name);
            ("vip", Value.int vip); ("rip", Value.int rip);
            ("uri", uri_to_value uri);
            ("entries", Value.list Meta.restart_entry_to_value entries);
            ("vip_map", Value.list (Value.pair Value.int Value.int) vip_map);
            ("extra_altq", Value.list (Value.pair Value.int Value.str) extra_altq);
            ("skip_sendq", Value.bool skip_sendq) ]
          @ ctx_entries ctx))
  | A_ping { seq } -> Value.tag "ping" (Value.int seq)
  | A_batch items ->
    Value.tag "batch"
      (Value.list (Value.pair Value.int to_agent_to_value) items)

let rec to_agent_of_value v =
  match Value.to_tag v with
  | "checkpoint", b ->
    A_checkpoint
      { pod_id = Value.to_int (Value.field "pod" b);
        dest = uri_of_value (Value.field "dest" b);
        resume = Value.to_bool (Value.field "resume" b);
        incremental = Value.to_bool (Value.field "incremental" b);
        precopy = precopy_of_body b;
        ctx = ctx_of_body b }
  | "continue", b -> A_continue { pod_id = Value.to_int b }
  | "abort", b -> A_abort { pod_id = Value.to_int b }
  | "restart", b ->
    A_restart
      { pod_id = Value.to_int (Value.field "pod" b);
        name = Value.to_str (Value.field "name" b);
        vip = Value.to_int (Value.field "vip" b);
        rip = Value.to_int (Value.field "rip" b);
        uri = uri_of_value (Value.field "uri" b);
        entries = Value.to_list Meta.restart_entry_of_value (Value.field "entries" b);
        vip_map =
          Value.to_list (Value.to_pair Value.to_int Value.to_int) (Value.field "vip_map" b);
        extra_altq =
          Value.to_list (Value.to_pair Value.to_int Value.to_str)
            (Value.field "extra_altq" b);
        skip_sendq = Value.to_bool (Value.field "skip_sendq" b);
        ctx = ctx_of_body b }
  | "ping", b -> A_ping { seq = Value.to_int b }
  | "batch", b ->
    A_batch (Value.to_list (Value.to_pair Value.to_int to_agent_of_value) b)
  | tag, _ -> Value.decode_error "bad to_agent tag %s" tag

let rec to_manager_to_value = function
  | M_meta { node; pod_id; meta; meta_bytes } ->
    Value.tag "meta"
      (Value.assoc
         [ ("node", Value.int node); ("pod", Value.int pod_id);
           ("meta", Meta.to_value meta); ("meta_bytes", Value.int meta_bytes) ])
  | M_done { node; pod_id; ok; detail; stats } ->
    Value.tag "done"
      (Value.assoc
         [ ("node", Value.int node); ("pod", Value.int pod_id);
           ("ok", Value.bool ok); ("detail", Value.str detail);
           ("stats", stats_to_value stats) ])
  | M_pong { node; seq } ->
    Value.tag "pong" (Value.assoc [ ("node", Value.int node); ("seq", Value.int seq) ])
  | M_migrate_round { node; pod_id; stats } ->
    Value.tag "mig_round"
      (Value.assoc
         [ ("node", Value.int node); ("pod", Value.int pod_id);
           ("stats", mig_round_stats_to_value stats) ])
  | M_migrate_done { node; pod_id; rounds; precopy_bytes; forced } ->
    Value.tag "mig_done"
      (Value.assoc
         [ ("node", Value.int node); ("pod", Value.int pod_id);
           ("rounds", Value.int rounds);
           ("precopy_bytes", Value.int precopy_bytes);
           ("forced", Value.bool forced) ])
  | M_batch items -> Value.tag "batch" (Value.list to_manager_to_value items)
  | M_subtree_down { node } -> Value.tag "subtree_down" (Value.int node)

let rec to_manager_of_value v =
  match Value.to_tag v with
  | "meta", b ->
    M_meta
      { node = Value.to_int (Value.field "node" b);
        pod_id = Value.to_int (Value.field "pod" b);
        meta = Meta.of_value (Value.field "meta" b);
        meta_bytes = Value.to_int (Value.field "meta_bytes" b) }
  | "done", b ->
    M_done
      { node = Value.to_int (Value.field "node" b);
        pod_id = Value.to_int (Value.field "pod" b);
        ok = Value.to_bool (Value.field "ok" b);
        detail = Value.to_str (Value.field "detail" b);
        stats = stats_of_value (Value.field "stats" b) }
  | "pong", b ->
    M_pong
      { node = Value.to_int (Value.field "node" b);
        seq = Value.to_int (Value.field "seq" b) }
  | "mig_round", b ->
    M_migrate_round
      { node = Value.to_int (Value.field "node" b);
        pod_id = Value.to_int (Value.field "pod" b);
        stats = mig_round_stats_of_value (Value.field "stats" b) }
  | "mig_done", b ->
    M_migrate_done
      { node = Value.to_int (Value.field "node" b);
        pod_id = Value.to_int (Value.field "pod" b);
        rounds = Value.to_int (Value.field "rounds" b);
        precopy_bytes = Value.to_int (Value.field "precopy_bytes" b);
        forced = Value.to_bool (Value.field "forced" b) }
  | "batch", b -> M_batch (Value.to_list to_manager_of_value b)
  | "subtree_down", b -> M_subtree_down { node = Value.to_int b }
  | tag, _ -> Value.decode_error "bad to_manager tag %s" tag

type channel = (to_manager, to_agent) Control.t

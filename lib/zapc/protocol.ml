(* Wire protocol between the Manager and the Agents (Figures 1 and 3).

   A user request names the application as a list of <<node, pod, URI>>
   tuples; a URI is either a shared-storage key or the address of a
   receiving Agent (direct migration streaming, paper section 4). *)

module Simtime = Zapc_sim.Simtime
module Addr = Zapc_simnet.Addr
module Meta = Zapc_netckpt.Meta

type uri =
  | U_storage of string  (* key in the shared storage *)
  | U_node of int  (* stream directly to the Agent on this node *)

(* --- structured failure reasons --- *)

type failure =
  | F_agent of { node : int; pod_id : int; detail : string }
      (* an Agent reported the operation failed on its side *)
  | F_channel of { node : int }  (* a Manager<->Agent channel broke *)
  | F_timeout of { phase : Zapc_obs.Phase.gather; waiting : int list }
      (* a wait phase's timeout expired with these pods still unreported
         (restart only has the completion gather) *)
  | F_missing_image of string  (* restart precondition failed *)

let failure_to_string = function
  | F_agent { node; pod_id; detail } ->
    Printf.sprintf "pod %d (node %d): %s" pod_id node detail
  | F_channel { node } -> Printf.sprintf "control channel to node %d broke" node
  | F_timeout { phase; waiting } ->
    Printf.sprintf "%s phase timed out waiting for pods [%s]" (Zapc_obs.Phase.gather_to_string phase)
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

(* --- operation id and trace parent ---

   The Manager stamps the operation-starting commands with its operation id
   (its generation counter), which the Agent echoes in its done report, so
   a report from an earlier operation is told apart from the current one's.
   When tracing, they also carry the span id of the operation's
   manager-side span, and the Agent parents its local spans under it —
   stitching every node's phases into one cross-node tree (the span
   recorder is shared cluster-wide, so ids resolve globally).  A
   non-tracing Manager sends [parent = None]. *)

type to_agent =
  | A_checkpoint of {
      pod_id : int; dest : uri; resume : bool; incremental : bool;
      precopy : int option;
      (* Some max_rounds: a live migration (U_node only) whose pre-copy
         rounds ship the running pod until its dirty residue converges or
         max_rounds have run (0 = plain stop-and-copy) *)
      op : int;  (* manager operation id *)
      parent : int option;  (* the manager-side operation span, when tracing *)
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
      op : int;
      parent : int option;
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
  | M_done of {
      node : int; pod_id : int; op : int; ok : bool; detail : string; stats : agent_stats }
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

type channel = (to_manager, to_agent) Control.t

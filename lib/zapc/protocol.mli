(** Wire protocol between the Manager and the Agents (Figures 1 and 3).

    A user request names the application as a list of <<node, pod, URI>>
    tuples; a URI is either a shared-storage key or the address of a
    receiving Agent (direct migration streaming, paper section 4). *)

module Simtime = Zapc_sim.Simtime
module Addr = Zapc_simnet.Addr
module Meta = Zapc_netckpt.Meta

type uri =
  | U_storage of string  (** key in the shared storage *)
  | U_node of int  (** stream directly to the Agent on this node *)

(** {1 Structured failure reasons}

    Every way a coordinated operation can fail, as a value rather than a
    string, so callers (the chaos harness in particular) can assert on the
    precise failure mode. *)

type phase = Ph_meta | Ph_done
(** The Manager's wait phases: gathering meta-data reports, then gathering
    completion statuses (restart only has the latter). *)

val phase_to_string : phase -> string

type failure =
  | F_agent of { node : int; pod_id : int; detail : string }
      (** an Agent reported the operation failed on its side *)
  | F_channel of { node : int }  (** a Manager<->Agent channel broke *)
  | F_timeout of { phase : phase; waiting : int list }
      (** a per-phase timeout expired with these pods still unreported *)
  | F_missing_image of string  (** restart precondition failed *)

val failure_to_string : failure -> string

type agent_stats = {
  st_net_time : Simtime.t;  (** network-state save/restore time *)
  st_local_time : Simtime.t;  (** total local operation time *)
  st_conn_time : Simtime.t;  (** restart: connectivity recovery time *)
  st_image_bytes : int;  (** logical size of what was written *)
  st_full_bytes : int;
      (** when the write was a delta: the logical size a full checkpoint
          would have written at the same instant; 0 for a full image *)
  st_net_bytes : int;  (** encoded network-state section size *)
  st_sockets : int;
  st_procs : int;
}

val zero_stats : agent_stats

type mig_round_stats = {
  mg_round : int;  (** 0 = the full-image round *)
  mg_bytes : int;  (** logical bytes shipped this round *)
  mg_dirty : int;  (** dirty bytes observed when the round's stream landed *)
  mg_duration : Simtime.t;
}
(** One iterative pre-copy round as the source Agent reports it. *)

(** {1 Messages}

    The operation-starting commands ([A_checkpoint], [A_restart]) carry
    the Manager's operation id [op] (its generation counter), which the
    Agent echoes in its [M_done], so the Manager tells a late report of an
    earlier operation from the current one's.  When tracing they also
    carry [parent], the span id of the Manager's operation span: the
    receiving Agent parents its local spans under it, stitching every
    node's phases into one cross-node tree.  A non-tracing Manager sends
    [parent = None]. *)

type to_agent =
  | A_checkpoint of {
      pod_id : int;
      dest : uri;
      resume : bool;
      incremental : bool;
          (** the Agent may write a delta against its last stored image for
              this pod (it falls back to a full image when no usable base
              exists or the chain cap is reached) *)
      precopy : int option;
          (** [Some max_rounds] only for a live migration's items, with a
              [U_node] destination: the pod keeps running while up to
              [max_rounds] pre-copy rounds stream to the destination
              (0 = plain stop-and-copy), and only the residue rides the
              suspend *)
      op : int;  (** the Manager's operation id, echoed in [M_done] *)
      parent : int option;  (** the Manager's operation span, when tracing *)
    }
  | A_continue of { pod_id : int }  (** the single synchronization point *)
  | A_abort of { pod_id : int }
  | A_restart of {
      pod_id : int;
      name : string;
      vip : Addr.ip;
      rip : Addr.ip;  (** pre-allocated real address on the target node *)
      uri : uri;
      entries : Meta.restart_entry list;
      vip_map : (Addr.ip * Addr.ip) list;  (** the new connectivity map *)
      extra_altq : (int * string) list;
          (** sock_ref -> redirected peer send-queue data (section 5
              optimization) *)
      skip_sendq : bool;  (** send queues were redirected; do not resend *)
      op : int;
      parent : int option;
    }
  | A_ping of { seq : int }  (** supervisor heartbeat probe *)
  | A_batch of (int * to_agent) list
      (** a bundle of addressed commands carried
          as one control message down a tree edge.  Each [(node, msg)] item
          is delivered locally when [node] is the receiver, else re-bundled
          per next hop and forwarded.  Never nested. *)

type to_manager =
  | M_meta of { node : int; pod_id : int; meta : Meta.pod_meta; meta_bytes : int }
  | M_done of {
      node : int;
      pod_id : int;
      op : int;  (** the [op] of the command this reports on *)
      ok : bool;
      detail : string;
      stats : agent_stats;
    }
  | M_pong of { node : int; seq : int }  (** heartbeat reply *)
  | M_migrate_round of { node : int; pod_id : int; stats : mig_round_stats }
      (** from the source: one pre-copy round's stream landed at the dest;
          also the keepalive of the Manager's meta-phase watchdog *)
  | M_migrate_done of {
      node : int;
          (** the {e destination} node: a [U_node] image landed there.
              This commits the item — the destination copy wins even if
              the source is lost from here on *)
      pod_id : int;
      rounds : int;  (** pre-copy rounds that ran (cap 0 => 0) *)
      precopy_bytes : int;  (** bytes shipped before the stop-and-copy *)
      forced : bool;  (** round cap hit without converging *)
    }
  | M_batch of to_manager list
      (** reports from one subtree aggregated
          into one control message up a tree edge (flattened, never
          nested) *)
  | M_subtree_down of { node : int }
      (** a sub-coordinator's edge to child [node] broke — its whole
          subtree is unreachable; the Manager aborts exactly as if its own
          channel to [node] had broken *)

val to_agent_bytes : to_agent -> int
(** Approximate message size for the control-plane cost model. *)

val to_manager_bytes : to_manager -> int

type channel = (to_manager, to_agent) Control.t

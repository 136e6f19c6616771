(** The protocol's phase vocabulary: every span name and every instant the
    system records is one constructor of {!t}.

    The names follow the paper's figures: the coordinated checkpoint's
    suspend, network-state checkpoint, meta-data report, the single
    'continue' sync point and the standalone checkpoint (Figures 1-2),
    then restart's pod creation, connect/accept schedule and network
    restore (Figure 3), plus live migration, supervision and injected
    faults.  {!to_string} is the only place a phase is spelled; consumers
    (fault triggers, the flight recorder's trip rule, the Figure-2
    rendering, critical-path analysis) match the variant. *)

(** A Manager operation kind: a migration's copy phase is a checkpoint and
    its restore phase a restart, labelled apart. *)
type op = Op_ckpt | Op_restart | Op_mig_copy | Op_mig_restore

(** The Manager's wait phases: gathering meta-data reports, then gathering
    completion statuses. *)
type gather = Ph_meta | Ph_done

type t =
  (* Agent instants: checkpoint *)
  | Suspended | Net_ckpt_done | Meta_sent | Continue_received
  | Standalone_done | Resumed | Destroyed | Ckpt_aborted
  (* Agent instants: restart *)
  | Pod_created | Conns_recovered | Net_restored | Restart_resumed
  | Restart_aborted
  (* Agent instants: live migration *)
  | Mig_start | Mig_round | Mig_converged | Mig_forced | Mig_blackout
  | Mig_residue | Mig_handoff | Mig_aborted | Mig_skeleton | Mig_prestaged
  | Mig_residue_dropped | Mig_final_staged | Mig_stage_dropped
  | Mig_activated
  (* Manager instants *)
  | Ckpt_broadcast | Continue_broadcast | Mig_src_break | Mig_committed
  | Mig_copy_done | Mig_done
  | Op_failed of op  (** ["op_failed:ckpt"], …: the operation aborted *)
  | Phase_timeout of gather  (** ["phase_timeout:meta-gather"], … *)
  | Stale_done of int  (** ["stale_done:pod<n>"] *)
  | Subtree_down of int  (** ["subtree_down:node<n>"] *)
  | Mig_round_report of int  (** ["mig_round_report:<round>"] *)
  | Mig_src_lost of { pod : int; node : int }
      (** ["mig_src_lost:pod<p>->node<n>"], [node] the destination *)
  | Migrate_start of (int * int * int) list
      (** ["migrate_start:pod<p>:<src>-><dest>,…"] *)
  (* Supervisor instants *)
  | Sup_recovered | Sup_giveup
  | Sup_detect of int  (** ["sup_detect:node<n>"] *)
  | Sup_attempt of int  (** ["sup_attempt:<n>"] *)
  | Sup_backoff of Zapc_sim.Simtime.t  (** ["sup_backoff:<ms>ms"], one decimal *)
  | Sup_watch_refresh of { pod : int; src : int; dest : int }
      (** ["sup_watch_refresh:pod<p>:<src>-><dest>"] *)
  (* Fault injection *)
  | Fault of string  (** ["fault:<rendered fault>"] *)
  (* Agent spans *)
  | Pod_ckpt | Suspend | Paused | Net_ckpt | Standalone | Blackout
  | Mig_precopy | Pod_restart | Pod_create | Conn_recovery | Net_restore
  | Standalone_restore
  (* Manager spans: the operation spans, the sync window, a migration *)
  | Ckpt_op | Restart_op | Mig_copy | Mig_restore | Mgr_sync | Migrate
  (* Service and storage spans *)
  | Sup_recover | Periodic_epoch | Storage_put

val to_string : t -> string
(** The phase's name in traces, flight dumps and reports. *)

val all : t list
(** Every constant constructor, in declaration order. *)

val op_span : op -> t
(** The operation span of a kind: [Ckpt_op], [Restart_op], [Mig_copy],
    [Mig_restore]. *)

val gather_to_string : gather -> string
(** ["meta-gather"] or ["completion-gather"]. *)

val trips : t -> bool
(** The instants that trip the flight recorder into a dump: an aborted
    operation, an injected fault, a node declared dead. *)

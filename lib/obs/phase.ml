(* The protocol's phase vocabulary.  This file is the only place a phase
   name is spelled: everything else passes constructors, and strings are
   made here, at the export edge. *)

type op = Op_ckpt | Op_restart | Op_mig_copy | Op_mig_restore

type gather = Ph_meta | Ph_done

type t =
  | Suspended | Net_ckpt_done | Meta_sent | Continue_received
  | Standalone_done | Resumed | Destroyed | Ckpt_aborted
  | Pod_created | Conns_recovered | Net_restored | Restart_resumed
  | Restart_aborted
  | Mig_start | Mig_round | Mig_converged | Mig_forced | Mig_blackout
  | Mig_residue | Mig_handoff | Mig_aborted | Mig_skeleton | Mig_prestaged
  | Mig_residue_dropped | Mig_final_staged | Mig_stage_dropped
  | Mig_activated
  | Ckpt_broadcast | Continue_broadcast | Mig_src_break | Mig_committed
  | Mig_copy_done | Mig_done
  | Op_failed of op
  | Phase_timeout of gather
  | Stale_done of int
  | Subtree_down of int
  | Mig_round_report of int
  | Mig_src_lost of { pod : int; node : int }
  | Migrate_start of (int * int * int) list
  | Sup_recovered | Sup_giveup
  | Sup_detect of int
  | Sup_attempt of int
  | Sup_backoff of Zapc_sim.Simtime.t
  | Sup_watch_refresh of { pod : int; src : int; dest : int }
  | Fault of string
  | Pod_ckpt | Suspend | Paused | Net_ckpt | Standalone | Blackout
  | Mig_precopy | Pod_restart | Pod_create | Conn_recovery | Net_restore
  | Standalone_restore
  | Ckpt_op | Restart_op | Mig_copy | Mig_restore | Mgr_sync | Migrate
  | Sup_recover | Periodic_epoch | Storage_put

let op_tag = function
  | Op_ckpt -> "ckpt"
  | Op_restart -> "restart"
  | Op_mig_copy -> "mig_copy"
  | Op_mig_restore -> "mig_restore"

let gather_to_string = function
  | Ph_meta -> "meta-gather"
  | Ph_done -> "completion-gather"

let to_string = function
  | Suspended -> "suspended"
  | Net_ckpt_done -> "net_ckpt_done"
  | Meta_sent -> "meta_sent"
  | Continue_received -> "continue_received"
  | Standalone_done -> "standalone_done"
  | Resumed -> "resumed"
  | Destroyed -> "destroyed"
  | Ckpt_aborted -> "ckpt_aborted"
  | Pod_created -> "pod_created"
  | Conns_recovered -> "conns_recovered"
  | Net_restored -> "net_restored"
  | Restart_resumed -> "restart_resumed"
  | Restart_aborted -> "restart_aborted"
  | Mig_start -> "mig_start"
  | Mig_round -> "mig_round"
  | Mig_converged -> "mig_converged"
  | Mig_forced -> "mig_forced"
  | Mig_blackout -> "mig_blackout"
  | Mig_residue -> "mig_residue"
  | Mig_handoff -> "mig_handoff"
  | Mig_aborted -> "mig_aborted"
  | Mig_skeleton -> "mig_skeleton"
  | Mig_prestaged -> "mig_prestaged"
  | Mig_residue_dropped -> "mig_residue_dropped"
  | Mig_final_staged -> "mig_final_staged"
  | Mig_stage_dropped -> "mig_stage_dropped"
  | Mig_activated -> "mig_activated"
  | Ckpt_broadcast -> "ckpt_broadcast"
  | Continue_broadcast -> "continue_broadcast"
  | Mig_src_break -> "mig_src_break"
  | Mig_committed -> "mig_committed"
  | Mig_copy_done -> "mig_copy_done"
  | Mig_done -> "mig_done"
  | Op_failed op -> "op_failed:" ^ op_tag op
  | Phase_timeout g -> "phase_timeout:" ^ gather_to_string g
  | Stale_done pod -> Printf.sprintf "stale_done:pod%d" pod
  | Subtree_down node -> Printf.sprintf "subtree_down:node%d" node
  | Mig_round_report round -> Printf.sprintf "mig_round_report:%d" round
  | Mig_src_lost { pod; node } -> Printf.sprintf "mig_src_lost:pod%d->node%d" pod node
  | Migrate_start moves ->
    "migrate_start:"
    ^ String.concat ","
        (List.map (fun (pod, src, dest) -> Printf.sprintf "pod%d:%d->%d" pod src dest)
           moves)
  | Sup_recovered -> "sup_recovered"
  | Sup_giveup -> "sup_giveup"
  | Sup_detect node -> Printf.sprintf "sup_detect:node%d" node
  | Sup_attempt n -> Printf.sprintf "sup_attempt:%d" n
  | Sup_backoff delay ->
    Printf.sprintf "sup_backoff:%.1fms" (Zapc_sim.Simtime.to_ms delay)
  | Sup_watch_refresh { pod; src; dest } ->
    Printf.sprintf "sup_watch_refresh:pod%d:%d->%d" pod src dest
  | Fault rendered -> "fault:" ^ rendered
  | Pod_ckpt -> "pod_ckpt"
  | Suspend -> "suspend"
  | Paused -> "paused"
  | Net_ckpt -> "net_ckpt"
  | Standalone -> "standalone"
  | Blackout -> "blackout"
  | Mig_precopy -> "mig_precopy"
  | Pod_restart -> "pod_restart"
  | Pod_create -> "pod_create"
  | Conn_recovery -> "conn_recovery"
  | Net_restore -> "net_restore"
  | Standalone_restore -> "standalone_restore"
  | Ckpt_op -> "ckpt_op"
  | Restart_op -> "restart_op"
  | Mig_copy -> "mig_copy"
  | Mig_restore -> "mig_restore"
  | Mgr_sync -> "mgr_sync"
  | Migrate -> "migrate"
  | Sup_recover -> "sup_recover"
  | Periodic_epoch -> "periodic_epoch"
  | Storage_put -> "storage_put"

let all =
  [ Suspended; Net_ckpt_done; Meta_sent; Continue_received; Standalone_done;
    Resumed; Destroyed; Ckpt_aborted; Pod_created; Conns_recovered;
    Net_restored; Restart_resumed; Restart_aborted; Mig_start; Mig_round;
    Mig_converged; Mig_forced; Mig_blackout; Mig_residue; Mig_handoff;
    Mig_aborted; Mig_skeleton; Mig_prestaged; Mig_residue_dropped;
    Mig_final_staged; Mig_stage_dropped; Mig_activated; Ckpt_broadcast;
    Continue_broadcast; Mig_src_break; Mig_committed; Mig_copy_done; Mig_done;
    Sup_recovered; Sup_giveup; Pod_ckpt; Suspend; Paused; Net_ckpt;
    Standalone; Blackout; Mig_precopy; Pod_restart; Pod_create; Conn_recovery;
    Net_restore; Standalone_restore; Ckpt_op; Restart_op; Mig_copy;
    Mig_restore; Mgr_sync; Migrate; Sup_recover; Periodic_epoch; Storage_put ]

let op_span = function
  | Op_ckpt -> Ckpt_op
  | Op_restart -> Restart_op
  | Op_mig_copy -> Mig_copy
  | Op_mig_restore -> Mig_restore

let trips = function
  | Op_failed _ | Fault _ | Sup_detect _ -> true
  | _ -> false

(** The checkpoint {e meta-data}: the table of network connections of a pod
    (paper section 4).

    Source and target are virtual addresses, so entries stay valid across
    migration; [state] reflects the connection (full-duplex, half-duplex in
    either direction, closed-with-unread-data, or the transient connecting
    state); the PCB sequence numbers sent/recv/acked ride along because they
    are exactly the "minimal protocol specific state" restart needs
    (section 5).

    At restart the Manager merges the per-pod tables, decides for every
    connection which endpoint connects and which accepts, and hands each
    Agent its entries extended with the peer's sequence numbers. *)

module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr

type conn_state =
  | Full  (** full-duplex established *)
  | Half_out  (** this side has shut down its write direction *)
  | Half_in  (** the peer's FIN has been received *)
  | Closed_data  (** both directions shut; unread data may remain *)
  | Connecting  (** transient, not yet established: re-initiated on restart *)

val conn_state_to_string : conn_state -> string
val conn_state_of_string : string -> conn_state

type role = Accept | Connect

type entry = {
  local : Addr.t;  (** virtual *)
  remote : Addr.t;  (** virtual *)
  state : conn_state;
  role : role;  (** provenance: did accept() create this endpoint? *)
  sent : int;  (** snd_nxt *)
  recv : int;  (** rcv_nxt *)
  acked : int;  (** snd_una *)
  sock_ref : int;  (** index into the pod image's socket list *)
}

type pod_meta = { pm_pod : int; pm_vip : Addr.ip; pm_entries : entry list }

val to_value : pod_meta -> Value.t
val of_value : Value.t -> pod_meta
val size_bytes : pod_meta -> int

type restart_entry = {
  ri_local : Addr.t;
  ri_remote : Addr.t;
  ri_role : role;  (** final schedule decision *)
  ri_state : conn_state;
  ri_sock_ref : int;
  ri_peer_recv : int;
      (** the peer's rcv_nxt: our send queue below it is already in the
          peer's receive queue and must be discarded (Figure 4 overlap) *)
  ri_orphan : bool;  (** peer endpoint no longer exists: restore detached *)
}

val build_schedule : pod_meta list -> (int * restart_entry list) list
(** Merge the per-pod tables and derive the restart schedule, keyed by pod.

    Pairing: entries match when one's (local, remote) equals the other's
    (remote, local).  For paired connections the endpoint born by accept()
    accepts again — which automatically keeps connections sharing a source
    port (born from the same listening socket) on the accepting side, the
    constraint of section 4.  Unpaired endpoints are restored detached;
    Connecting endpoints are skipped entirely (the blocked connect call
    re-executes after restart). *)

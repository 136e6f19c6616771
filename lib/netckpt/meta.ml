(* The checkpoint *meta-data*: the table of network connections of a pod
   (paper section 4).  Source and target are virtual addresses (they stay
   valid across migration); [state] reflects the connection; the PCB
   sequence numbers sent/recv/acked ride along because they are exactly the
   "minimal protocol specific state" the restart needs (section 5).

   At restart the Manager merges the per-pod tables, decides for every
   connection which endpoint will connect and which will accept, and hands
   each Agent back its entries extended with the peer's sequence numbers. *)

module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr

type conn_state =
  | Full  (* full-duplex established *)
  | Half_out  (* we have shut down our write side (FIN sent or queued) *)
  | Half_in  (* peer's FIN received *)
  | Closed_data  (* both directions shut, possibly unread data left *)
  | Connecting  (* transient, not yet established: re-initiated on restart *)

let conn_state_to_string = function
  | Full -> "full"
  | Half_out -> "half_out"
  | Half_in -> "half_in"
  | Closed_data -> "closed"
  | Connecting -> "connecting"

let conn_state_of_string = function
  | "full" -> Full
  | "half_out" -> Half_out
  | "half_in" -> Half_in
  | "closed" -> Closed_data
  | "connecting" -> Connecting
  | s -> Value.decode_error "conn_state %s" s

type role = Accept | Connect

type entry = {
  local : Addr.t;  (* virtual *)
  remote : Addr.t;  (* virtual *)
  state : conn_state;
  role : role;  (* provenance: did accept() create this endpoint? *)
  sent : int;  (* snd_nxt *)
  recv : int;  (* rcv_nxt *)
  acked : int;  (* snd_una *)
  sock_ref : int;  (* index into the pod image's socket list *)
}

type pod_meta = { pm_pod : int; pm_vip : Addr.ip; pm_entries : entry list }

let role_to_string = function Accept -> "accept" | Connect -> "connect"

let role_of_string = function
  | "accept" -> Accept
  | "connect" -> Connect
  | s -> Value.decode_error "role %s" s

let entry_to_value e =
  Value.assoc
    [ ("local", Addr.to_value e.local);
      ("remote", Addr.to_value e.remote);
      ("state", Value.str (conn_state_to_string e.state));
      ("role", Value.str (role_to_string e.role));
      ("sent", Value.int e.sent);
      ("recv", Value.int e.recv);
      ("acked", Value.int e.acked);
      ("sock_ref", Value.int e.sock_ref) ]

let entry_of_value v =
  {
    local = Addr.of_value (Value.field "local" v);
    remote = Addr.of_value (Value.field "remote" v);
    state = conn_state_of_string (Value.to_str (Value.field "state" v));
    role = role_of_string (Value.to_str (Value.field "role" v));
    sent = Value.to_int (Value.field "sent" v);
    recv = Value.to_int (Value.field "recv" v);
    acked = Value.to_int (Value.field "acked" v);
    sock_ref = Value.to_int (Value.field "sock_ref" v);
  }

let to_value pm =
  Value.assoc
    [ ("pod", Value.int pm.pm_pod);
      ("vip", Value.int pm.pm_vip);
      ("entries", Value.list entry_to_value pm.pm_entries) ]

let of_value v =
  {
    pm_pod = Value.to_int (Value.field "pod" v);
    pm_vip = Value.to_int (Value.field "vip" v);
    pm_entries = Value.to_list entry_of_value (Value.field "entries" v);
  }

let size_bytes pm = Zapc_codec.Wire.encoded_size (to_value pm)

(* --- restart-side instructions ---

   One per re-establishable connection endpoint, produced by the Manager
   from the merged tables.  [ri_peer_recv] is the peer's rcv_nxt: the data
   our send queue holds below it is already in the peer's receive queue and
   must be discarded before resending (Figure 4's overlap). *)

type restart_entry = {
  ri_local : Addr.t;  (* virtual *)
  ri_remote : Addr.t;  (* virtual *)
  ri_role : role;  (* final schedule decision *)
  ri_state : conn_state;
  ri_sock_ref : int;
  ri_peer_recv : int;
  ri_orphan : bool;  (* peer endpoint no longer exists: restore detached *)
}

(* Merge the per-pod tables and derive the restart schedule.

   Pairing: entries match when (local, remote) of one equals (remote, local)
   of the other.  For paired connections the endpoint whose socket was born
   by accept() accepts again — this automatically keeps connections that
   share a source port (they all came from the same listening socket) on
   the accepting side, the constraint of section 4.  Unpaired endpoints are
   restored detached (orphans); Connecting endpoints are skipped entirely
   (the blocked connect call re-executes after restart). *)
let build_schedule (pms : pod_meta list) : (int * restart_entry list) list =
  let all = List.concat_map (fun pm -> List.map (fun e -> (pm, e)) pm.pm_entries) pms in
  let find_peer (e : entry) =
    List.find_opt
      (fun (_, e') -> Addr.equal e'.local e.remote && Addr.equal e'.remote e.local)
      all
  in
  let for_pod pm =
    let entries =
      List.filter_map
        (fun e ->
          match e.state with
          | Connecting -> None
          | Full | Half_out | Half_in | Closed_data ->
            (match find_peer e with
             | Some (_, peer) when peer.state <> Connecting ->
               let role =
                 match (e.role, peer.role) with
                 | Accept, _ -> Accept
                 | Connect, Accept -> Connect
                 | Connect, Connect ->
                   (* no provenance information: break the tie determinately *)
                   if Addr.compare e.local e.remote < 0 then Accept else Connect
               in
               Some
                 { ri_local = e.local; ri_remote = e.remote; ri_role = role;
                   ri_state = e.state; ri_sock_ref = e.sock_ref;
                   ri_peer_recv = peer.recv; ri_orphan = false }
             | Some _ | None ->
               Some
                 { ri_local = e.local; ri_remote = e.remote; ri_role = e.role;
                   ri_state = e.state; ri_sock_ref = e.sock_ref; ri_peer_recv = e.acked;
                   ri_orphan = true }))
        pm.pm_entries
    in
    (pm.pm_pod, entries)
  in
  List.map for_pod pms

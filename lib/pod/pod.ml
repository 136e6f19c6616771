(* Pods (PrOcess Domains): the thin virtualization layer.

   A pod encapsulates the processes of one application endpoint, gives them
   a virtual private namespace (PIDs, network addresses, optionally time),
   and is the unit of checkpoint, migration and restart.  Virtualization is
   implemented purely by system-call interposition — the [filter] built here
   is installed on every member process — so the underlying kernel is used
   unmodified, mirroring ZapC's loadable-kernel-module design. *)

module Simtime = Zapc_sim.Simtime
module Addr = Zapc_simnet.Addr
module Fdtable = Zapc_simos.Fdtable
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Signal = Zapc_simos.Signal
module Syscall = Zapc_simos.Syscall

type t = {
  pod_id : int;  (* global, stable across migrations *)
  name : string;
  vip : Addr.ip;  (* the address applications see; never changes *)
  rip : Addr.ip;  (* the real address on the current node *)
  mutable kernel : Kernel.t;
  ns : Namespace.t;
  mutable time_bias : Simtime.t;  (* added to reported clocks after restart *)
  mutable virtualize_time : bool;
  mutable frozen : bool;
}

(* chroot-style private file namespace: every path a pod process uses is
   rooted under the pod's directory on the shared file system; the prefix
   follows the pod (not the node), so files are reachable after migration
   without being part of the checkpoint image (paper section 3) *)
let fs_root pod = Printf.sprintf "/pod%d" pod.pod_id
let chroot pod path =
  let path = if String.length path = 0 || path.[0] <> '/' then "/" ^ path else path in
  fs_root pod ^ path

let unchroot pod path =
  let root = fs_root pod in
  let n = String.length root in
  if String.length path >= n && String.equal (String.sub path 0 n) root then
    String.sub path n (String.length path - n)
  else path

let registry : (int, t) Hashtbl.t = Hashtbl.create 16
(* pod_id -> live pod instance; a pod appears here on exactly one node at a
   time (it is re-created at the destination on migration). *)

(* The live pods' (vip, rip) bindings, which a restored namespace reads
   after its own map. *)
let live = ref Namespace.no_bindings

(* Gratuitous ARP, recorded once: every registered pod's namespace reads
   the last rebind of each vip it knows from this table. *)
let rebinds = Namespace.table ()

let find pod_id = Hashtbl.find_opt registry pod_id

(* Leaving the registry, the namespace keeps the rebinds recorded while it
   was registered, and sees no later one. *)
let unregister pod =
  Hashtbl.remove registry pod.pod_id;
  live := Namespace.unbind !live ~vip:pod.vip ~rip:pod.rip;
  Namespace.detach pod.ns

(* A new cluster starts with no pods: the pods of an earlier one leave the
   registry, their namespaces keeping the rebinds recorded so far. *)
let clear_registry () =
  Hashtbl.iter (fun _ pod -> Namespace.detach pod.ns) registry;
  Hashtbl.reset registry;
  live := Namespace.no_bindings

(* --- the system-call filter (virtual <-> real translation) --- *)

let rec filter_of pod : Proc.filter =
  { f_pre = (fun proc sc -> pre pod proc sc);
    f_post = (fun proc sc out -> post pod proc sc out);
    f_spawn_child = (fun _parent child -> adopt pod child) }

and pre pod _proc (sc : Syscall.t) : Syscall.t =
  match sc with
  | Syscall.Bind (fd, a) ->
    let ip = if Addr.equal_ip a.ip Addr.any then pod.rip else Namespace.rip_of_vip pod.ns a.ip in
    Syscall.Bind (fd, { a with Addr.ip })
  | Syscall.Connect (fd, a) -> Syscall.Connect (fd, Namespace.translate_addr_out pod.ns a)
  | Syscall.Sendto (fd, a, d) ->
    Syscall.Sendto (fd, Namespace.translate_addr_out pod.ns a, d)
  | Syscall.Kill (vpid, sg) ->
    let rpid =
      match Namespace.rpid_of_vpid pod.ns vpid with Some r -> r | None -> -1
    in
    Syscall.Kill (rpid, sg)
  | Syscall.Waitpid vpid ->
    let rpid =
      match Namespace.rpid_of_vpid pod.ns vpid with Some r -> r | None -> -1
    in
    Syscall.Waitpid rpid
  | Syscall.Gm_open a ->
    let ip =
      if Addr.equal_ip a.Addr.ip Addr.any then pod.rip
      else Namespace.rip_of_vip pod.ns a.Addr.ip
    in
    Syscall.Gm_open { a with Addr.ip }
  | Syscall.Gm_send (fd, a, d) ->
    Syscall.Gm_send (fd, Namespace.translate_addr_out pod.ns a, d)
  | Syscall.Fs_put (path, d) -> Syscall.Fs_put (chroot pod path, d)
  | Syscall.Fs_append (path, d) -> Syscall.Fs_append (chroot pod path, d)
  | Syscall.Fs_get path -> Syscall.Fs_get (chroot pod path)
  | Syscall.Fs_del path -> Syscall.Fs_del (chroot pod path)
  | Syscall.Fs_list prefix -> Syscall.Fs_list (chroot pod prefix)
  | Syscall.Getpid | Syscall.Clock_gettime | Syscall.Nanosleep _ | Syscall.Alarm_set _
  | Syscall.Alarm_cancel | Syscall.Alarm_remaining | Syscall.Mem_alloc _
  | Syscall.Mem_free _ | Syscall.Spawn _ | Syscall.Sock_create _ | Syscall.Listen _
  | Syscall.Accept _ | Syscall.Send _ | Syscall.Send_oob _ | Syscall.Recv _
  | Syscall.Recvfrom _ | Syscall.Shutdown _ | Syscall.Close _ | Syscall.Getsockopt _
  | Syscall.Setsockopt _ | Syscall.Getsockname _ | Syscall.Getpeername _ | Syscall.Poll _
  | Syscall.Pipe | Syscall.Read _ | Syscall.Write _ | Syscall.Gm_recv _
  | Syscall.Log _ -> sc

and post pod proc (sc : Syscall.t) (out : Syscall.outcome) : Syscall.outcome =
  match (sc, out) with
  | Syscall.Getpid, Syscall.Ret (Syscall.Rint rpid) ->
    (match Namespace.vpid_of_rpid pod.ns rpid with
     | Some vpid -> Syscall.Ret (Syscall.Rint vpid)
     | None -> out)
  | Syscall.Spawn _, Syscall.Ret (Syscall.Rint rpid) ->
    (match Namespace.vpid_of_rpid pod.ns rpid with
     | Some vpid -> Syscall.Ret (Syscall.Rint vpid)
     | None -> out)
  | Syscall.Clock_gettime, Syscall.Ret (Syscall.Rtime t) ->
    if pod.virtualize_time then Syscall.Ret (Syscall.Rtime (Simtime.add t pod.time_bias))
    else out
  | (Syscall.Getsockname _ | Syscall.Getpeername _), Syscall.Ret (Syscall.Raddr a) ->
    Syscall.Ret (Syscall.Raddr (Namespace.translate_addr_in pod.ns a))
  | Syscall.Accept _, Syscall.Ret (Syscall.Raccept (fd, a)) ->
    Syscall.Ret (Syscall.Raccept (fd, Namespace.translate_addr_in pod.ns a))
  | (Syscall.Recvfrom _ | Syscall.Gm_recv _), Syscall.Ret (Syscall.Rfrom (a, d)) ->
    Syscall.Ret (Syscall.Rfrom (Namespace.translate_addr_in pod.ns a, d))
  | Syscall.Fs_list _, Syscall.Ret (Syscall.Rnames names) ->
    Syscall.Ret (Syscall.Rnames (List.map (unchroot pod) names))
  | Syscall.Sock_create _, Syscall.Ret (Syscall.Rint fd) ->
    (* New sockets source traffic from the pod's real address. *)
    (match Fdtable.socket proc.Proc.fds fd with
     | Some s -> s.Zapc_simnet.Socket.src_hint <- Some pod.rip
     | None -> ());
    out
  | _, (Syscall.Ret _ | Syscall.Err _ | Syscall.Started | Syscall.Done_compute) -> out

(* --- membership --- *)

and adopt pod (proc : Proc.t) =
  let _vpid = Namespace.fresh_vpid pod.ns proc.pid in
  proc.pod <- Some pod.pod_id;
  proc.filter <- Some (filter_of pod)

let adopt_with_vpid pod (proc : Proc.t) ~vpid =
  Namespace.bind_vpid pod.ns ~vpid ~rpid:proc.pid;
  proc.pod <- Some pod.pod_id;
  proc.filter <- Some (filter_of pod)

let create ~pod_id ~name ~vip ~rip kernel =
  let pod =
    { pod_id; name; vip; rip; kernel; ns = Namespace.create ~table:rebinds ();
      time_bias = Simtime.zero; virtualize_time = true; frozen = false }
  in
  Namespace.set_vip_map pod.ns [ (vip, rip) ];
  Zapc_simnet.Netstack.add_ip (Kernel.netstack kernel) rip;
  Option.iter unregister (find pod_id);
  Hashtbl.replace registry pod_id pod;
  live := Namespace.bind !live ~vip ~rip;
  pod

(* Install the application-wide virtual->real address map (the Manager
   distributes this; it is rewritten on migration). Always contains our own
   entry.  O(1): [Cluster.link_pods] hands one list to every pod. *)
let set_vip_map pod map = Namespace.set_vip_map ~own:(pod.vip, pod.rip) pod.ns map

(* A restored pod's map covers its restored set; the live pods' bindings,
   as they stand, follow it so it can still reach application pods outside
   that set. *)
let restore_vip_map pod map =
  Namespace.set_vip_map ~own:(pod.vip, pod.rip) ~rest:!live pod.ns map

let current_vip_map () =
  Hashtbl.fold (fun _ (p : t) acc -> (p.vip, p.rip) :: acc) registry []

(* Gratuitous ARP: a pod re-acquired its virtual address at a new real
   address (restart on another node, live migration).  Every live pod that
   knows the vip — including ones outside the restored application, e.g. a
   client population talking to a restored server — repoints its namespace
   entry, exactly like hosts updating their ARP caches.  The rebind is
   recorded once; each namespace reads it when it next translates. *)
let rebind_vip ~vip ~rip = Namespace.rebind rebinds ~vip ~rip

let spawn pod ~program ~args =
  let proc = Kernel.create_proc pod.kernel (Zapc_simos.Program.spawn program args) in
  adopt pod proc;
  Kernel.enqueue pod.kernel proc;
  proc

(* Every member the checkpoint must record, zombies included: an unreaped
   child's exit status is application state — resurrecting it as runnable
   after a restart (or dropping it so the parent's wait hangs) corrupts the
   pod.  Live-only paths (suspend/resume/destroy/accounting) use [members]
   below. *)
let members_all pod =
  Namespace.vpids pod.ns
  |> List.filter_map (fun vpid ->
         match Namespace.rpid_of_vpid pod.ns vpid with
         | None -> None
         | Some rpid ->
           (match Kernel.find_proc pod.kernel rpid with
            | Some p -> Some (vpid, p)
            | None -> None))

let members pod =
  Namespace.vpids pod.ns
  |> List.filter_map (fun vpid ->
         match Namespace.rpid_of_vpid pod.ns vpid with
         | None -> None
         | Some rpid ->
           (match Kernel.find_proc pod.kernel rpid with
            | Some p when Proc.is_alive p -> Some (vpid, p)
            | Some _ | None -> None))

let member_count pod = List.length (members pod)

(* Freeze every member with SIGSTOP (paper: step 1 of the Agent checkpoint
   procedure; network blocking is done separately by the Agent through
   netfilter). *)
(* Suspend/resume freeze the pod's network state along with its processes:
   retransmission timers stop while the pod is frozen and restart with a
   fresh backoff when it thaws, so repeated checkpoint freeze windows never
   consume a connection's retry budget (paper section 5). *)
let suspend pod =
  List.iter (fun (_, p) -> Kernel.signal_proc pod.kernel p Signal.Sigstop) (members pod);
  Zapc_simnet.Netstack.freeze_ip (Kernel.netstack pod.kernel) pod.rip;
  pod.frozen <- true

let resume pod =
  List.iter (fun (_, p) -> Kernel.signal_proc pod.kernel p Signal.Sigcont) (members pod);
  Zapc_simnet.Netstack.thaw_ip (Kernel.netstack pod.kernel) pod.rip;
  pod.frozen <- false

(* Destroy the pod locally (after migration, or on abort): kill members,
   release the real address, drop from the registry. *)
let destroy pod =
  List.iter (fun (_, p) -> Kernel.signal_proc pod.kernel p Signal.Sigkill) (members pod);
  Zapc_simnet.Netstack.remove_ip (Kernel.netstack pod.kernel) pod.rip;
  match find pod.pod_id with
  | Some live when live == pod -> unregister pod
  | Some _ | None -> ()

(* Time virtualization (paper section 5): after a restart, bias reported
   clocks by checkpoint-time minus restart-time so application-level timeout
   mechanisms do not fire spuriously. *)
let apply_time_bias pod ~saved_clock ~current_clock =
  if pod.virtualize_time then
    pod.time_bias <- Simtime.add pod.time_bias (Simtime.sub saved_clock current_clock)

let total_memory pod =
  List.fold_left (fun acc (_, p) -> acc + Zapc_simos.Memory.total p.Proc.mem) 0 (members pod)

let pp ppf pod =
  Format.fprintf ppf "pod %s#%d vip=%a rip=%a procs=%d" pod.name pod.pod_id Addr.pp_ip
    pod.vip Addr.pp_ip pod.rip (member_count pod)

(* Standalone (per-pod) checkpoint-restart: everything except the
   network-state section, which Zapc_netckpt produces.

   The image records, for every member process: the program identity and its
   encoded state, the pending (blocked) system call in its *virtual* form,
   the residual compute slice, relative timer deadlines, the fd table as
   references into the pod-wide socket/pipe inventories, and the memory
   footprint.  Restart rebuilds the processes in the Stopped state; resuming
   the pod SIGCONTs them, at which point blocked system calls are transparently
   re-issued against the restored resources. *)

module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Socket = Zapc_simnet.Socket
module Sockbuf = Zapc_simnet.Sockbuf
module Fdtable = Zapc_simos.Fdtable
module Kernel = Zapc_simos.Kernel
module Memory = Zapc_simos.Memory
module Pipe = Zapc_simos.Pipe
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Pod = Zapc_pod.Pod
module Net_ckpt = Zapc_netckpt.Net_ckpt
module Meta = Zapc_netckpt.Meta
module Sock_state = Zapc_netckpt.Sock_state

(* --- pipe inventory --- *)

let collect_pipes (pod : Pod.t) : Pipe.t array =
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (_, (p : Proc.t)) ->
      Fdtable.iter p.fds (fun _ e ->
          match e with
          | Fdtable.Fpipe_r pi | Fdtable.Fpipe_w pi ->
            if not (Hashtbl.mem seen pi.Pipe.id) then Hashtbl.replace seen pi.id pi
          | Fdtable.Fsock _ | Fdtable.Fgm _ -> ()))
    (Pod.members pod);
  Hashtbl.fold (fun _ pi acc -> pi :: acc) seen []
  |> List.sort (fun (a : Pipe.t) b -> Int.compare a.id b.id)
  |> Array.of_list

(* --- kernel-bypass (GM) port inventory ---

   The device driver's extract/reinstate hooks (paper section 5, the
   Myrinet/GM extension): device-resident port state is saved with virtual
   addressing and reinstated on the destination node's device. *)

module Gmdev = Zapc_simnet.Gmdev

let collect_gm (pod : Pod.t) : Gmdev.port array =
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (_, (p : Proc.t)) ->
      Fdtable.iter p.fds (fun _ e ->
          match e with
          | Fdtable.Fgm port ->
            let key = (port.Gmdev.gp_addr.ip, port.Gmdev.gp_addr.port) in
            if not (Hashtbl.mem seen key) then Hashtbl.replace seen key port
          | Fdtable.Fsock _ | Fdtable.Fpipe_r _ | Fdtable.Fpipe_w _ -> ()))
    (Pod.members pod);
  Hashtbl.fold (fun _ port acc -> port :: acc) seen []
  |> List.sort (fun (a : Gmdev.port) b -> Addr.compare a.gp_addr b.gp_addr)
  |> Array.of_list

let pipe_to_value (pi : Pipe.t) =
  Value.assoc
    [ ("data", Value.str (Sockbuf.contents pi.buf));
      ("rd_refs", Value.int pi.rd_refs);
      ("wr_refs", Value.int pi.wr_refs) ]

(* --- process images --- *)

let stopped_from_to_string = function
  | Proc.Blocked -> "blocked"
  | Proc.Ready | Proc.Running | Proc.Stopped | Proc.Zombie -> "ready"

let rel_time now = function
  | None -> Value.option Value.int None
  | Some deadline -> Value.option Value.int (Some (Stdlib.max 0 (Simtime.sub deadline now)))

let proc_to_value ~now ~sock_index ~pipe_index ~gm_index (vpid : int) (p : Proc.t) =
  let prog_name, pstate = Program.snapshot p.inst in
  let fd_entries =
    Fdtable.fold p.fds
      (fun fd e acc ->
        let ref_v =
          match e with
          | Fdtable.Fsock s ->
            (match sock_index s with
             | Some i -> Some (Value.Tag ("sock", Value.Int i))
             | None -> None)
          | Fdtable.Fpipe_r pi ->
            (match pipe_index pi with
             | Some i -> Some (Value.Tag ("pipe_r", Value.Int i))
             | None -> None)
          | Fdtable.Fpipe_w pi ->
            (match pipe_index pi with
             | Some i -> Some (Value.Tag ("pipe_w", Value.Int i))
             | None -> None)
          | Fdtable.Fgm port ->
            (match gm_index port with
             | Some i -> Some (Value.Tag ("gm", Value.Int i))
             | None -> None)
        in
        match ref_v with
        | Some r -> Value.List [ Value.Int fd; r ] :: acc
        | None -> acc)
      []
  in
  let stopped_from =
    (* the pod is suspended during checkpoint, so every live process is
       Stopped and stopped_from records its pre-freeze state; a wakeup that
       raced the freeze (retry_after_cont) means it should retry when
       thawed.  Zombies keep their state — the exit status is application
       data its parent has yet to collect *)
    match p.rstate with
    | Proc.Stopped -> stopped_from_to_string p.stopped_from
    | Proc.Ready | Proc.Running -> "ready"
    | Proc.Blocked -> "blocked"
    | Proc.Zombie -> "zombie"
  in
  Value.assoc
    [ ("vpid", Value.int vpid);
      ("program", Value.str prog_name);
      ("pstate", pstate);
      ("pending_sys", Value.option Syscall.to_value p.pending_sys);
      ("next_outcome", Syscall.outcome_to_value p.next_outcome);
      ("pending_compute", Value.option Value.int p.pending_compute);
      ("block_remaining", rel_time now p.block_deadline);
      ("alarm_remaining", rel_time now p.alarm_deadline);
      ("stopped_from", Value.str stopped_from);
      ("retry", Value.bool p.retry_after_cont);
      ("cpu_time", Value.int p.cpu_time);
      ("exit_code", Value.option Value.int p.exit_code);
      ("fds", Value.List fd_entries);
      ("mem", Memory.to_value p.mem) ]

(* --- the full pod image --- *)

type checkpoint_result = {
  image : Value.t;  (* the complete pod image, ready for Wire.encode *)
  meta : Meta.pod_meta;
  encoded_bytes : int;  (* bytes of the serialized image *)
  memory_bytes : int;  (* modelled address-space bytes *)
  net_result : Net_ckpt.result;
  proc_count : int;
}

(* Total image size as a real checkpointer would write it: the serialized
   structured state plus the address-space pages. *)
let logical_size r = r.encoded_bytes + r.memory_bytes

let checkpoint ?(mode = Zapc_netckpt.Sock_state.Read_inject) ?net (pod : Pod.t) :
  checkpoint_result =
  let kernel = pod.kernel in
  let now = Kernel.now kernel in
  let net = match net with Some n -> n | None -> Net_ckpt.checkpoint ~mode pod in
  (* Re-collect the inventory; Net_ckpt.checkpoint used the same
     deterministic (socket-id) ordering, so indices line up. *)
  let inv = Net_ckpt.collect pod in
  let sock_index s = Net_ckpt.index_of inv s in
  let pipes = collect_pipes pod in
  let gm_ports = collect_gm pod in
  (* O(1) inventory lookups: with incremental checkpointing the checkpoint
     path runs every epoch, and the old linear scans made fd translation
     O(procs x fds x inventory) *)
  let gm_tbl = Hashtbl.create (Array.length gm_ports) in
  Array.iteri
    (fun i (port : Gmdev.port) ->
      Hashtbl.replace gm_tbl (port.Gmdev.gp_addr.ip, port.Gmdev.gp_addr.port) i)
    gm_ports;
  let gm_index (port : Gmdev.port) =
    Hashtbl.find_opt gm_tbl (port.Gmdev.gp_addr.ip, port.Gmdev.gp_addr.port)
  in
  let pipe_tbl = Hashtbl.create (Array.length pipes) in
  Array.iteri (fun i (pi : Pipe.t) -> Hashtbl.replace pipe_tbl pi.id i) pipes;
  let pipe_index (pi : Pipe.t) = Hashtbl.find_opt pipe_tbl pi.Pipe.id in
  let procs =
    List.map
      (fun (vpid, p) -> proc_to_value ~now ~sock_index ~pipe_index ~gm_index vpid p)
      (Pod.members_all pod)
  in
  let memory_bytes = Pod.total_memory pod in
  let image =
    Value.assoc
      [ ("pod_id", Value.int pod.pod_id);
        ("name", Value.str pod.name);
        ("vip", Value.int pod.vip);
        ("clock", Value.int (Simtime.add now pod.time_bias));
        ("next_vpid", Value.int (Zapc_pod.Namespace.next_vpid pod.ns));
        ("memory_bytes", Value.int memory_bytes);
        ("sockets", Net_ckpt.images_to_value net.images);
        ("meta", Meta.to_value net.meta);
        ("pipes", Value.list pipe_to_value (Array.to_list pipes));
        ("gm_ports",
         Value.list
           (fun port ->
             Gmdev.extract_port port
               ~virt:(Zapc_pod.Namespace.translate_addr_in pod.ns))
           (Array.to_list gm_ports));
        ("procs", Value.List procs) ]
  in
  let encoded_bytes = Zapc_codec.Wire.encoded_size image in
  { image; meta = net.meta; encoded_bytes; memory_bytes; net_result = net;
    proc_count = List.length procs }

(* --- restore --- *)

let abs_time now v =
  match Value.to_option Value.to_int v with
  | None -> None
  | Some rel -> Some (Simtime.add now rel)

(* Rebuild the pod's processes from the image.  [socket_of_ref] maps socket
   references to the connections/sockets the Agent re-established in the
   earlier restart steps. *)
let restore_processes (pod : Pod.t) (image : Value.t)
    ~(socket_of_ref : int -> Socket.t option) : Proc.t list =
  let kernel = pod.kernel in
  let now = Kernel.now kernel in
  (* time virtualization: bias reported clocks so the checkpoint->restart
     gap is invisible to the application *)
  let saved_clock = Value.to_int (Value.field "clock" image) in
  Pod.apply_time_bias pod ~saved_clock ~current_clock:(Simtime.add now pod.time_bias);
  Zapc_pod.Namespace.set_next_vpid pod.ns (Value.to_int (Value.field "next_vpid" image));
  (* pipes *)
  let pipe_imgs = Value.to_list (fun v -> v) (Value.field "pipes" image) in
  let pipes =
    Array.of_list
      (List.map
         (fun v ->
           (* fresh node-unique ids: the image's pipe identities are the
              array indices; reusing the saved (or positional) ids could
              collide with pipes already live on this kernel *)
           let pi = Pipe.create ~id:(Kernel.alloc_pipe_id kernel) in
           Sockbuf.push pi.buf (Value.to_str (Value.field "data" v));
           pi.rd_refs <- Value.to_int (Value.field "rd_refs" v);
           pi.wr_refs <- Value.to_int (Value.field "wr_refs" v);
           pi)
         pipe_imgs)
  in
  (* reinstate kernel-bypass ports on this node's device *)
  let gm_imgs =
    match Value.field_opt "gm_ports" image with
    | Some v -> Value.to_list (fun x -> x) v
    | None -> []
  in
  let gm_ports =
    Array.of_list
      (List.map
         (fun v ->
           match
             Gmdev.reinstate_port (Kernel.gm kernel) v
               ~real:(Zapc_pod.Namespace.translate_addr_out pod.ns)
           with
           | Ok port -> port
           | Error e ->
             Value.decode_error "gm reinstate: %s" (Zapc_simnet.Errno.to_string e))
         gm_imgs)
  in
  let restore_proc v =
    let prog = Value.to_str (Value.field "program" v) in
    let pstate = Value.field "pstate" v in
    let inst = Program.restore prog pstate in
    let p = Kernel.create_proc kernel inst in
    let vpid = Value.to_int (Value.field "vpid" v) in
    Pod.adopt_with_vpid pod p ~vpid;
    p.pending_sys <- Value.to_option Syscall.of_value (Value.field "pending_sys" v);
    p.next_outcome <- Syscall.outcome_of_value (Value.field "next_outcome" v);
    p.pending_compute <- Value.to_option Value.to_int (Value.field "pending_compute" v);
    p.block_deadline <- abs_time now (Value.field "block_remaining" v);
    p.alarm_deadline <- abs_time now (Value.field "alarm_remaining" v);
    p.cpu_time <- Value.to_int (Value.field "cpu_time" v);
    p.mem <- Memory.of_value (Value.field "mem" v);
    (* descriptors *)
    let fd_entries = Value.to_list (fun x -> x) (Value.field "fds" v) in
    List.iter
      (fun fv ->
        match fv with
        | Value.List [ fd; refv ] ->
          let fd = Value.to_int fd in
          (match Value.to_tag refv with
           | "sock", i ->
             (match socket_of_ref (Value.to_int i) with
              | Some s ->
                Fdtable.add_at p.fds fd (Fdtable.Fsock s);
                Kernel.ref_socket kernel s
              | None -> ())
           | "pipe_r", i -> Fdtable.add_at p.fds fd (Fdtable.Fpipe_r pipes.(Value.to_int i))
           | "pipe_w", i -> Fdtable.add_at p.fds fd (Fdtable.Fpipe_w pipes.(Value.to_int i))
           | "gm", i -> Fdtable.add_at p.fds fd (Fdtable.Fgm gm_ports.(Value.to_int i))
           | t, _ -> Value.decode_error "fd ref %s" t)
        | _ -> Value.decode_error "fd entry")
      fd_entries;
    (* processes come back frozen; resuming the pod re-issues blocked
       syscalls (retry) or re-enqueues ready ones.  A zombie comes back as
       a zombie — stopped/ready would resurrect an exited process onto the
       run queue, and its parent's wait would never find the exit status *)
    (match Value.to_str (Value.field "stopped_from" v) with
     | "zombie" ->
       p.rstate <- Proc.Zombie;
       p.exit_code <-
         (match Value.field_opt "exit_code" v with
          | Some ec -> (match Value.to_option Value.to_int ec with
                        | Some c -> Some c
                        | None -> Some 0)
          | None -> Some 0);
       p.exit_time <- Some now
     | "blocked" ->
       p.rstate <- Proc.Stopped;
       p.stopped_from <- Proc.Blocked;
       p.retry_after_cont <- true
     | _ ->
       p.rstate <- Proc.Stopped;
       p.stopped_from <- Proc.Ready);
    if Value.to_bool (Value.field "retry" v) then p.retry_after_cont <- true;
    p
  in
  List.map restore_proc (Value.to_list (fun x -> x) (Value.field "procs" image))

(* --- incremental checkpoint support --- *)

(* Address-space payload a delta must carry: regions modified since the
   last durably stored snapshot, summed over every member. *)
let dirty_memory_bytes pod =
  List.fold_left
    (fun acc (_, (p : Proc.t)) -> acc + Memory.dirty_bytes p.mem)
    0 (Pod.members_all pod)

(* Called by the Agent once an epoch's image has been durably stored. *)
let clear_memory_dirty pod =
  List.iter (fun (_, (p : Proc.t)) -> Memory.clear_dirty p.mem) (Pod.members_all pod)

(* One pre-copy round boundary: capture-and-clear every member's dirty set,
   returning the bytes this round must ship.  Mutations from here on
   accumulate toward the next round. *)
let snapshot_memory_dirty pod =
  List.fold_left
    (fun acc (_, (p : Proc.t)) ->
      List.fold_left (fun a (_, size) -> a + size) acc (Memory.snapshot_dirty p.mem))
    0 (Pod.members_all pod)

let meta_of_image image = Meta.of_value (Value.field "meta" image)
let sockets_of_image image = Net_ckpt.images_of_value (Value.field "sockets" image)
let memory_bytes_of_image image = Value.to_int (Value.field "memory_bytes" image)
let pod_id_of_image image = Value.to_int (Value.field "pod_id" image)
let vip_of_image image = Value.to_int (Value.field "vip" image)
let name_of_image image = Value.to_str (Value.field "name" image)

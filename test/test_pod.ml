(* Tests for the pod virtualization layer: virtual PID and address
   namespaces, system-call interposition, suspend/resume, and time
   virtualization. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Fabric = Zapc_simnet.Fabric
module Socket = Zapc_simnet.Socket
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Signal = Zapc_simos.Signal
module Syscall = Zapc_simos.Syscall
module Namespace = Zapc_pod.Namespace
module Pod = Zapc_pod.Pod

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let logged : string list ref = ref []

type env = { engine : Engine.t; fabric : Fabric.t; k0 : Kernel.t; k1 : Kernel.t }

let next_pod_id = ref 1000

let make_env () =
  let engine = Engine.create ~seed:5 () in
  let fabric = Fabric.create engine in
  let k0 = Kernel.create ~node_id:0 fabric in
  let k1 = Kernel.create ~node_id:1 fabric in
  let log k = Kernel.set_logger k (fun _ _ m -> logged := m :: !logged) in
  log k0;
  log k1;
  logged := [];
  { engine; fabric; k0; k1 }

let fresh_pod env ?(kernel = env.k0) ~vip_last ~rip_last () =
  incr next_pod_id;
  Pod.create ~pod_id:!next_pod_id
    ~name:(Printf.sprintf "pod%d" !next_pod_id)
    ~vip:(Addr.make_ip 10 1 0 vip_last)
    ~rip:(Addr.make_ip 172 16 0 rip_last)
    kernel

let run env = Engine.run ~max_events:500_000 env.engine

(* --- programs --- *)

module Pid_logger = struct
  type state = int

  let name = "podtest.pid_logger"
  let start _ = 0

  let step phase (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> (1, Program.Sys Syscall.Getpid)
    | 1, Syscall.Ret (Syscall.Rint pid) ->
      (2, Program.Sys (Syscall.Log (Printf.sprintf "pid=%d" pid)))
    | _, _ -> (2, Program.Exit 0)

  let to_value p = Value.Int p
  let of_value = Value.to_int
end

module Long_sleeper = struct
  type state = int

  let name = "podtest.long_sleeper"
  let start _ = 0

  let step phase (_ : Syscall.outcome) =
    match phase with
    | 0 -> (1, Program.Sys (Syscall.Nanosleep (Simtime.sec 100.0)))
    | _ -> (1, Program.Exit 0)

  let to_value p = Value.Int p
  let of_value = Value.to_int
end

module Killer = struct
  type state = int * int  (* phase, target vpid *)

  let name = "podtest.killer"
  let start args = (0, Value.to_int args)

  let step (phase, target) (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> ((1, target), Program.Sys (Syscall.Kill (target, Signal.Sigkill)))
    | 1, Syscall.Ret _ -> ((2, target), Program.Sys (Syscall.Log "killed"))
    | 1, Syscall.Err e ->
      ((2, target), Program.Sys (Syscall.Log ("kill failed: " ^ Zapc_simnet.Errno.to_string e)))
    | _, _ -> ((2, target), Program.Exit 0)

  let to_value (a, b) = Value.List [ Value.Int a; Value.Int b ]

  let of_value = function
    | Value.List [ Value.Int a; Value.Int b ] -> (a, b)
    | _ -> failwith "bad"
end

(* listens on a port inside its pod, accepts one connection, logs the
   peer's (virtual) address and the received data *)
module Podserver = struct
  type state = int * int  (* phase, fd *)

  let name = "podtest.server"
  let start _ = (0, -1)

  let step (phase, fd) (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> ((1, fd), Program.Sys (Syscall.Sock_create Socket.Stream))
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      ((2, fd), Program.Sys (Syscall.Bind (fd, { Addr.ip = Addr.any; port = 4242 })))
    | 2, _ -> ((3, fd), Program.Sys (Syscall.Listen (fd, 4)))
    | 3, _ -> ((4, fd), Program.Sys (Syscall.Accept fd))
    | 4, Syscall.Ret (Syscall.Raccept (cfd, peer)) ->
      ( (5, cfd),
        Program.Sys (Syscall.Log (Printf.sprintf "peer=%s" (Addr.ip_to_string peer.Addr.ip))) )
    | 5, _ -> ((6, fd), Program.Sys (Syscall.Recv (fd, 100, Socket.plain_recv)))
    | 6, Syscall.Ret (Syscall.Rdata d) -> ((7, fd), Program.Sys (Syscall.Log ("got: " ^ d)))
    | _, _ -> ((7, fd), Program.Exit 0)

  let to_value (a, b) = Value.List [ Value.Int a; Value.Int b ]

  let of_value = function
    | Value.List [ Value.Int a; Value.Int b ] -> (a, b)
    | _ -> failwith "bad"
end

module Podclient = struct
  type state = int * int * int  (* phase, fd, server vip *)

  let name = "podtest.client"
  let start args = (0, -1, Value.to_int args)

  let step (phase, fd, vip) (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> ((1, fd, vip), Program.Sys (Syscall.Sock_create Socket.Stream))
    | 1, Syscall.Ret (Syscall.Rint fd) ->
      ((2, fd, vip), Program.Sys (Syscall.Connect (fd, { Addr.ip = vip; port = 4242 })))
    | 2, Syscall.Ret _ -> ((3, fd, vip), Program.Sys (Syscall.Send (fd, "virtual hello")))
    | 2, Syscall.Err e ->
      ((4, fd, vip), Program.Sys (Syscall.Log ("connect failed: " ^ Zapc_simnet.Errno.to_string e)))
    | 3, _ -> ((4, fd, vip), Program.Sys (Syscall.Getsockname fd))
    | 4, Syscall.Ret (Syscall.Raddr a) ->
      ((5, fd, vip), Program.Sys (Syscall.Log (Printf.sprintf "myaddr=%s" (Addr.ip_to_string a.Addr.ip))))
    | _, _ -> ((5, fd, vip), Program.Exit 0)

  let to_value (a, b, c) = Value.List [ Value.Int a; Value.Int b; Value.Int c ]

  let of_value = function
    | Value.List [ Value.Int a; Value.Int b; Value.Int c ] -> (a, b, c)
    | _ -> failwith "bad"
end

(* writes a file in its (chrooted) namespace and lists what it sees *)
module Fs_writer = struct
  type state = int * string  (* phase, payload *)

  let name = "podtest.fs_writer"
  let start args = (0, Value.to_str args)

  let step (phase, payload) (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> ((1, payload), Program.Sys (Syscall.Fs_put ("/data.txt", payload)))
    | 1, _ -> ((2, payload), Program.Sys (Syscall.Fs_get "/data.txt"))
    | 2, Syscall.Ret (Syscall.Rdata d) ->
      ((3, payload), Program.Sys (Syscall.Log ("read: " ^ d)))
    | 3, _ -> ((4, payload), Program.Sys (Syscall.Fs_list "/"))
    | 4, Syscall.Ret (Syscall.Rnames names) ->
      ((5, payload), Program.Sys (Syscall.Log ("ls: " ^ String.concat "," names)))
    | _, _ -> ((5, payload), Program.Exit 0)

  let to_value (p, s) = Value.List [ Value.Int p; Value.Str s ]

  let of_value = function
    | Value.List [ Value.Int p; Value.Str s ] -> (p, s)
    | _ -> failwith "bad"
end

module Clock_logger = struct
  type state = int

  let name = "podtest.clock"
  let start _ = 0

  let step phase (outcome : Syscall.outcome) =
    match (phase, outcome) with
    | 0, _ -> (1, Program.Sys Syscall.Clock_gettime)
    | 1, Syscall.Ret (Syscall.Rtime t) ->
      (2, Program.Sys (Syscall.Log (Printf.sprintf "clock=%d" t)))
    | _, _ -> (2, Program.Exit 0)

  let to_value p = Value.Int p
  let of_value = Value.to_int
end

let registered = ref false

let register_programs () =
  if not !registered then begin
    registered := true;
    Program.register_if_absent (module Pid_logger);
    Program.register_if_absent (module Long_sleeper);
    Program.register_if_absent (module Killer);
    Program.register_if_absent (module Podserver);
    Program.register_if_absent (module Podclient);
    Program.register_if_absent (module Clock_logger);
    Program.register_if_absent (module Fs_writer)
  end

(* --- namespace unit tests --- *)

let test_namespace_pids () =
  let ns = Namespace.create () in
  let v1 = Namespace.fresh_vpid ns 501 in
  let v2 = Namespace.fresh_vpid ns 502 in
  check tint "first vpid" 1 v1;
  check tint "second vpid" 2 v2;
  check tbool "rpid lookup" true (Namespace.rpid_of_vpid ns 1 = Some 501);
  check tbool "vpid lookup" true (Namespace.vpid_of_rpid ns 502 = Some 2);
  Namespace.forget_rpid ns 501;
  check tbool "forgotten" true (Namespace.rpid_of_vpid ns 1 = None);
  Namespace.bind_vpid ns ~vpid:7 ~rpid:900;
  check tbool "explicit bind" true (Namespace.vpid_of_rpid ns 900 = Some 7);
  let v3 = Namespace.fresh_vpid ns 903 in
  check tbool "next_vpid advanced past bound" true (v3 > 7)

let test_namespace_addrs () =
  let ns = Namespace.create () in
  let vip = Addr.make_ip 10 1 0 1 and rip = Addr.make_ip 172 16 0 5 in
  Namespace.set_vip_map ns [ (vip, rip) ];
  check tbool "out" true
    (Addr.equal (Namespace.translate_addr_out ns { Addr.ip = vip; port = 80 })
       { Addr.ip = rip; port = 80 });
  check tbool "in" true
    (Addr.equal (Namespace.translate_addr_in ns { Addr.ip = rip; port = 81 })
       { Addr.ip = vip; port = 81 });
  (* unknown addresses pass through unchanged *)
  let other = Addr.make_ip 8 8 8 8 in
  check tbool "unknown unchanged" true
    (Addr.equal_ip (Namespace.translate_addr_out ns { Addr.ip = other; port = 1 }).Addr.ip other)

(* The reference model: the namespace's address map as a plain assoc
   list, first entry wins in both directions.  The indexed namespace must
   answer every lookup exactly as this does. *)
module List_model = struct
  type t = { mutable map : (Addr.ip * Addr.ip) list }

  let create () = { map = [] }

  (* the pod's own entry goes in front when the map lacks its vip *)
  let set_vip_map ?own t map =
    t.map <-
      (match own with
       | Some ((vip, _) as entry) when not (List.mem_assoc vip map) -> entry :: map
       | Some _ | None -> map)

  let rebind_vip t ~vip ~rip =
    if List.exists (fun (v, _) -> Addr.equal_ip v vip) t.map then
      t.map <- List.map (fun (v, r) -> if Addr.equal_ip v vip then (v, rip) else (v, r)) t.map

  let rip_of_vip t vip =
    match List.assoc_opt vip t.map with Some rip -> rip | None -> vip

  let vip_of_rip t rip =
    match List.find_opt (fun (_, r) -> Addr.equal_ip r rip) t.map with
    | Some (v, _) -> v
    | None -> rip

  let translate_addr_out t (a : Addr.t) = { a with Addr.ip = rip_of_vip t a.ip }
  let translate_addr_in t (a : Addr.t) = { a with Addr.ip = vip_of_rip t a.ip }
end

(* One pool of six addresses serves as both vips and rips, so random maps
   carry duplicate vips, duplicate rips, one rip under two vips, and
   addresses that are a vip in one entry and a rip in another. *)
let addr_pool = Array.init 6 (fun i -> Addr.make_ip 10 0 0 (i + 1))

type ns_op =
  | Set of (int * int) option * (int * int) list
  | Rebind of int * int
  | Rip_of of int
  | Vip_of of int
  | Out of int * int
  | In of int * int
  | Check_all

let pp_ns_op = function
  | Set (own, m) ->
    Printf.sprintf "set%s [%s]"
      (match own with Some (v, r) -> Printf.sprintf " own=%d->%d" v r | None -> "")
      (String.concat "; " (List.map (fun (v, r) -> Printf.sprintf "%d->%d" v r) m))
  | Rebind (v, r) -> Printf.sprintf "rebind %d->%d" v r
  | Rip_of v -> Printf.sprintf "rip_of %d" v
  | Vip_of r -> Printf.sprintf "vip_of %d" r
  | Out (a, p) -> Printf.sprintf "out %d:%d" a p
  | In (a, p) -> Printf.sprintf "in %d:%d" a p
  | Check_all -> "check_all"

let gen_ns_ops =
  let open QCheck.Gen in
  let a = int_bound (Array.length addr_pool - 1) in
  let op =
    frequency
      [ (2, map2 (fun own m -> Set (own, m)) (opt (pair a a)) (list_size (int_bound 8) (pair a a)));
        (4, map2 (fun v r -> Rebind (v, r)) a a);
        (2, map (fun v -> Rip_of v) a);
        (2, map (fun r -> Vip_of r) a);
        (1, map2 (fun x p -> Out (x, p)) a (int_bound 9));
        (1, map2 (fun x p -> In (x, p)) a (int_bound 9));
        (1, return Check_all) ]
  in
  list_size (int_range 1 30) op

(* Lookups are only checked where the sequence asks for them, so rebinds
   also hit namespaces that have not indexed their map yet.  The rebinds go
   through a table the namespace reads; the model applies them to its
   list. *)
let prop_namespace_matches_list_model =
  QCheck.Test.make ~name:"indexed address map matches the list model" ~count:2000
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat ", " (List.map pp_ns_op ops))
       gen_ns_ops)
    (fun ops ->
      let table = Namespace.table () in
      let ns = Namespace.create ~table () and m = List_model.create () in
      let ip i = addr_pool.(i) in
      let all_agree () =
        Array.for_all
          (fun x ->
            Addr.equal_ip (Namespace.rip_of_vip ns x) (List_model.rip_of_vip m x)
            && Addr.equal_ip (Namespace.vip_of_rip ns x) (List_model.vip_of_rip m x))
          addr_pool
      in
      let step = function
        | Set (own, map) ->
          let own = Option.map (fun (v, r) -> (ip v, ip r)) own in
          let map = List.map (fun (v, r) -> (ip v, ip r)) map in
          Namespace.set_vip_map ?own ns map;
          List_model.set_vip_map ?own m map;
          true
        | Rebind (v, r) ->
          Namespace.rebind table ~vip:(ip v) ~rip:(ip r);
          List_model.rebind_vip m ~vip:(ip v) ~rip:(ip r);
          true
        | Rip_of v ->
          Addr.equal_ip (Namespace.rip_of_vip ns (ip v)) (List_model.rip_of_vip m (ip v))
        | Vip_of r ->
          Addr.equal_ip (Namespace.vip_of_rip ns (ip r)) (List_model.vip_of_rip m (ip r))
        | Out (x, port) ->
          let a = { Addr.ip = ip x; port } in
          Addr.equal (Namespace.translate_addr_out ns a) (List_model.translate_addr_out m a)
        | In (x, port) ->
          let a = { Addr.ip = ip x; port } in
          Addr.equal (Namespace.translate_addr_in ns a) (List_model.translate_addr_in m a)
        | Check_all -> all_agree ()
      in
      List.for_all step ops && all_agree ())

(* A restored pod's map is its restored set's fresh bindings followed by
   every live pod's current one, so a stale (vip, old_rip) can sit behind
   the fresh (vip, new_rip): the fresh entry answers for the vip, the
   stale one still answers for the old rip until the vip is rebound. *)
let test_namespace_stale_duplicate () =
  let table = Namespace.table () in
  let ns = Namespace.create ~table () in
  let vip = Addr.make_ip 10 1 0 1 and other = Addr.make_ip 10 1 0 2 in
  let fresh = Addr.make_ip 172 16 2 11 and stale = Addr.make_ip 172 16 1 11 in
  let other_rip = Addr.make_ip 172 16 3 11 in
  Namespace.set_vip_map ns [ (vip, fresh); (other, other_rip); (vip, stale) ];
  check tbool "fresh entry answers the vip" true (Namespace.rip_of_vip ns vip = fresh);
  check tbool "fresh rip maps back" true (Namespace.vip_of_rip ns fresh = vip);
  check tbool "stale rip still maps back" true (Namespace.vip_of_rip ns stale = vip);
  let moved = Addr.make_ip 172 16 4 11 in
  Namespace.rebind table ~vip ~rip:moved;
  check tbool "rebind moves the vip" true (Namespace.rip_of_vip ns vip = moved);
  check tbool "new rip maps back" true (Namespace.vip_of_rip ns moved = vip);
  check tbool "stale rip forgotten" true (Namespace.vip_of_rip ns stale = stale);
  check tbool "fresh rip forgotten" true (Namespace.vip_of_rip ns fresh = fresh);
  check tbool "other vip untouched" true (Namespace.rip_of_vip ns other = other_rip);
  Namespace.rebind table ~vip:(Addr.make_ip 10 9 9 9) ~rip:moved;
  check tbool "rebinding an unknown vip is a no-op" true
    (Namespace.vip_of_rip ns moved = vip
     && Namespace.rip_of_vip ns (Addr.make_ip 10 9 9 9) = Addr.make_ip 10 9 9 9)

(* --- the registry's rebind table --- *)

(* The reference for the registry is the eager broadcast: one list model
   per pod, and a rebind applied at once to the model of every pod still
   registered.  The pods read the rebind table instead, and only when they
   translate; every lookup must answer as the model does, on live pods
   and on pods that left the registry.  A restored pod's reference is the
   copy its snapshot stands for: its partial map followed by every live
   pod's binding. *)
type reg_op =
  | Create of int * int * int  (* slot (its pod id), vip, rip *)
  | Restore of int * int * int * (int * int) list  (* a create, then a restored map *)
  | Destroy of int  (* a pod created so far, by creation order *)
  | Set_map of int * (int * int) list
  | Rebinds of (int * int) list
  | Look_rip of int * int
  | Look_vip of int * int
  | Look_out of int * int
  | Look_in of int * int
  | Look_all of int

let pp_reg_op = function
  | Create (s, v, r) -> Printf.sprintf "create #%d %d->%d" s v r
  | Restore (s, v, r, m) ->
    Printf.sprintf "restore #%d %d->%d [%s]" s v r
      (String.concat "; " (List.map (fun (v, r) -> Printf.sprintf "%d->%d" v r) m))
  | Destroy k -> Printf.sprintf "destroy %d" k
  | Set_map (k, m) ->
    Printf.sprintf "set %d [%s]" k
      (String.concat "; " (List.map (fun (v, r) -> Printf.sprintf "%d->%d" v r) m))
  | Rebinds rs ->
    Printf.sprintf "rebind [%s]"
      (String.concat "; " (List.map (fun (v, r) -> Printf.sprintf "%d->%d" v r) rs))
  | Look_rip (k, v) -> Printf.sprintf "rip_of %d %d" k v
  | Look_vip (k, r) -> Printf.sprintf "vip_of %d %d" k r
  | Look_out (k, x) -> Printf.sprintf "out %d %d" k x
  | Look_in (k, x) -> Printf.sprintf "in %d %d" k x
  | Look_all k -> Printf.sprintf "all %d" k

(* Slots are pod ids, so a create often replaces a live pod of the same
   id; the long rebind runs rebind most vips several times.  Half the
   sequences draw any address for a create.  The other half restore pods
   too, and there every create gives slot [s] the vip [2s] and the rip
   [2s] or [2s + 1], so the live pods' vips and rips stay distinct, the
   invariant [Cluster] keeps and under which a restored namespace answers
   as the copy would.  Their rebinds still draw any address, so two vips
   may move onto one rip; the copy then lists the live bindings in
   ascending vip order, as [Pod.restore_vip_map] specifies. *)
let gen_reg_ops =
  let open QCheck.Gen in
  let a = int_bound (Array.length addr_pool - 1) in
  let k = int_bound 15 in
  let distinct = map2 (fun s c -> (s, 2 * s, (2 * s) + c)) (int_bound 2) (int_bound 1) in
  let ops creates =
    let op =
      frequency
        (creates
        @ [ (2, map (fun k -> Destroy k) k);
            (2, map2 (fun k m -> Set_map (k, m)) k (list_size (int_bound 8) (pair a a)));
            (4, map (fun rs -> Rebinds rs) (list_size (int_range 1 3) (pair a a)));
            (1, map (fun rs -> Rebinds rs) (list_size (int_range 20 90) (pair a a)));
            (1, map2 (fun k v -> Look_rip (k, v)) k a);
            (1, map2 (fun k r -> Look_vip (k, r)) k a);
            (1, map2 (fun k x -> Look_out (k, x)) k a);
            (1, map2 (fun k x -> Look_in (k, x)) k a);
            (1, map (fun k -> Look_all k) k) ])
    in
    list_size (int_range 1 60) op
  in
  oneof
    [ ops [ (3, map3 (fun s v r -> Create (s, v, r)) (int_bound 3) a a) ];
      ops
        [ (2, map (fun (s, v, r) -> Create (s, v, r)) distinct);
          ( 2,
            map2 (fun (s, v, r) m -> Restore (s, v, r, m)) distinct
              (list_size (int_bound 4) (pair a a)) ) ] ]

type reg_pod = { pod : Pod.t; model : List_model.t; mutable registered : bool }

let reg_base_id = 70_000

let prop_registry_matches_broadcast =
  QCheck.Test.make ~name:"logged rebinds match the eager broadcast" ~count:500
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat ", " (List.map pp_reg_op ops))
       gen_reg_ops)
    (fun ops ->
      let env = make_env () in
      let ip i = addr_pool.(i) in
      let pods = ref [||] in
      let nth k = !pods.(k mod Array.length !pods) in
      let agrees e x =
        Addr.equal_ip (Namespace.rip_of_vip e.pod.Pod.ns x) (List_model.rip_of_vip e.model x)
        && Addr.equal_ip (Namespace.vip_of_rip e.pod.Pod.ns x) (List_model.vip_of_rip e.model x)
      in
      let look k f = Array.length !pods = 0 || f (nth k) in
      let create slot v r =
        let pod_id = reg_base_id + slot in
        Array.iter (fun e -> if e.pod.Pod.pod_id = pod_id then e.registered <- false) !pods;
        let pod = Pod.create ~pod_id ~name:"reg" ~vip:(ip v) ~rip:(ip r) env.k0 in
        let model = List_model.create () in
        List_model.set_vip_map model [ (ip v, ip r) ];
        let e = { pod; model; registered = true } in
        pods := Array.append !pods [| e |];
        e
      in
      let step = function
        | Create (slot, v, r) ->
          ignore (create slot v r);
          true
        | Restore (slot, v, r, map) ->
          let e = create slot v r in
          let map = List.map (fun (v, r) -> (ip v, ip r)) map in
          let live =
            Array.to_list !pods
            |> List.filter_map (fun e ->
                   if e.registered then Some (e.pod.Pod.vip, e.pod.Pod.rip) else None)
            |> List.sort compare
          in
          Pod.restore_vip_map e.pod map;
          List_model.set_vip_map ~own:(e.pod.Pod.vip, e.pod.Pod.rip) e.model (map @ live);
          true
        | Destroy k ->
          look k (fun e ->
              Pod.destroy e.pod;
              e.registered <- false;
              true)
        | Set_map (k, map) ->
          look k (fun e ->
              let map = List.map (fun (v, r) -> (ip v, ip r)) map in
              Pod.set_vip_map e.pod map;
              List_model.set_vip_map ~own:(e.pod.Pod.vip, e.pod.Pod.rip) e.model map;
              true)
        | Rebinds rs ->
          List.iter
            (fun (v, r) ->
              Pod.rebind_vip ~vip:(ip v) ~rip:(ip r);
              Array.iter
                (fun e -> if e.registered then List_model.rebind_vip e.model ~vip:(ip v) ~rip:(ip r))
                !pods)
            rs;
          true
        | Look_rip (k, v) ->
          look k (fun e ->
              Addr.equal_ip (Namespace.rip_of_vip e.pod.Pod.ns (ip v)) (List_model.rip_of_vip e.model (ip v)))
        | Look_vip (k, r) ->
          look k (fun e ->
              Addr.equal_ip (Namespace.vip_of_rip e.pod.Pod.ns (ip r)) (List_model.vip_of_rip e.model (ip r)))
        | Look_out (k, x) ->
          look k (fun e ->
              let a = { Addr.ip = ip x; port = 7 } in
              Addr.equal (Namespace.translate_addr_out e.pod.Pod.ns a) (List_model.translate_addr_out e.model a))
        | Look_in (k, x) ->
          look k (fun e ->
              let a = { Addr.ip = ip x; port = 7 } in
              Addr.equal (Namespace.translate_addr_in e.pod.Pod.ns a) (List_model.translate_addr_in e.model a))
        | Look_all k -> look k (fun e -> Array.for_all (agrees e) addr_pool)
      in
      Fun.protect
        ~finally:(fun () -> Array.iter (fun e -> if e.registered then Pod.destroy e.pod) !pods)
        (fun () ->
          List.for_all step ops
          && Array.for_all (fun e -> Array.for_all (agrees e) addr_pool) !pods))

(* The migration-abort shape: the destination's copy replaces the source
   in the registry and is then destroyed, and the source resumes.  The
   source keeps the bindings it had when it left, however many rebinds
   come after. *)
let test_departed_keeps_bindings () =
  let env = make_env () in
  let src = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  let peer = Addr.make_ip 10 1 0 2 in
  Pod.set_vip_map src [ (peer, Addr.make_ip 172 16 0 2) ];
  let r1 = Addr.make_ip 172 16 1 2 in
  Pod.rebind_vip ~vip:peer ~rip:r1;
  let dst =
    Pod.create ~pod_id:src.Pod.pod_id ~name:src.Pod.name ~vip:src.Pod.vip
      ~rip:(Addr.make_ip 172 16 1 1) env.k1
  in
  check tbool "destination replaced the source" true
    (match Pod.find src.Pod.pod_id with Some p -> p == dst | None -> false);
  Pod.rebind_vip ~vip:peer ~rip:(Addr.make_ip 172 16 2 2);
  Pod.destroy dst;
  for i = 0 to 999 do
    Pod.rebind_vip ~vip:peer ~rip:(Addr.make_ip 172 16 3 (i land 255))
  done;
  check tbool "source sees the rebind from before it left" true
    (Addr.equal_ip (Namespace.rip_of_vip src.Pod.ns peer) r1);
  check tbool "and maps it back" true (Addr.equal_ip (Namespace.vip_of_rip src.Pod.ns r1) peer)

(* A map installed after a rebind supersedes it. *)
let test_map_after_rebind () =
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  let peer = Addr.make_ip 10 1 0 2 and r0 = Addr.make_ip 172 16 0 2 in
  Pod.rebind_vip ~vip:peer ~rip:(Addr.make_ip 172 16 1 2);
  Pod.set_vip_map pod [ (peer, r0) ];
  check tbool "the new map answers" true (Addr.equal_ip (Namespace.rip_of_vip pod.Pod.ns peer) r0);
  let r2 = Addr.make_ip 172 16 2 2 in
  Pod.rebind_vip ~vip:peer ~rip:r2;
  check tbool "a later rebind applies" true (Addr.equal_ip (Namespace.rip_of_vip pod.Pod.ns peer) r2);
  Pod.destroy pod

(* Eight pods with the full map, as an idle fleet after a restart: rebinds
   index none of them, and a lookup indexes only its own namespace. *)
let test_rebinds_leave_idle_namespaces () =
  let env = make_env () in
  let pods = List.init 8 (fun i -> fresh_pod env ~vip_last:(20 + i) ~rip_last:(20 + i) ()) in
  let map = List.map (fun (p : Pod.t) -> (p.vip, p.rip)) pods in
  List.iter (fun p -> Pod.set_vip_map p map) pods;
  for i = 0 to 1999 do
    let p = List.nth pods (i mod 8) in
    Pod.rebind_vip ~vip:p.Pod.vip ~rip:(Addr.make_ip 192 168 (i lsr 8) (i land 255))
  done;
  check tbool "no namespace indexed" true
    (List.for_all (fun (p : Pod.t) -> not (Namespace.indexed p.ns)) pods);
  let first = List.hd pods and last = List.nth pods 7 in
  check tbool "a lookup reads the latest rebind" true
    (Addr.equal_ip (Namespace.rip_of_vip first.ns last.vip) (Addr.make_ip 192 168 7 207));
  check tbool "only the pod that translated is indexed" true
    (Namespace.indexed first.ns && not (Namespace.indexed last.ns));
  List.iter Pod.destroy pods

(* --- pod behaviour --- *)

let test_getpid_virtualized () =
  register_programs ();
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  let _p1 = Pod.spawn pod ~program:"podtest.pid_logger" ~args:Value.Unit in
  let _p2 = Pod.spawn pod ~program:"podtest.pid_logger" ~args:Value.Unit in
  run env;
  (* both report their vpids (1 and 2), not the host pids (which are >= 100) *)
  check tbool "vpid 1" true (List.mem "pid=1" !logged);
  check tbool "vpid 2" true (List.mem "pid=2" !logged)

let test_kill_by_vpid () =
  register_programs ();
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  let victim = Pod.spawn pod ~program:"podtest.long_sleeper" ~args:Value.Unit in
  (* victim got vpid 1 *)
  let _killer = Pod.spawn pod ~program:"podtest.killer" ~args:(Value.Int 1) in
  run env;
  check tbool "killed log" true (List.mem "killed" !logged);
  check tbool "victim dead" true (victim.Proc.exit_code = Some 137)

let test_kill_unknown_vpid_esrch () =
  register_programs ();
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  let _killer = Pod.spawn pod ~program:"podtest.killer" ~args:(Value.Int 99) in
  run env;
  check tbool "esrch" true (List.mem "kill failed: ESRCH" !logged)

let test_virtual_addresses_end_to_end () =
  register_programs ();
  let env = make_env () in
  let pa = fresh_pod env ~kernel:env.k0 ~vip_last:1 ~rip_last:1 () in
  (* the rip of pb lives on node 1's subnet *)
  incr next_pod_id;
  let pb =
    Pod.create ~pod_id:!next_pod_id ~name:"pb" ~vip:(Addr.make_ip 10 1 0 2)
      ~rip:(Addr.make_ip 172 16 1 2) env.k1
  in
  let map = [ (pa.Pod.vip, pa.Pod.rip); (pb.Pod.vip, pb.Pod.rip) ] in
  Pod.set_vip_map pa map;
  Pod.set_vip_map pb map;
  let _server = Pod.spawn pb ~program:"podtest.server" ~args:Value.Unit in
  let _client = Pod.spawn pa ~program:"podtest.client" ~args:(Value.Int pb.Pod.vip) in
  run env;
  (* the server saw the client's VIRTUAL address *)
  check tbool "server sees peer vip" true
    (List.mem ("peer=" ^ Addr.ip_to_string pa.Pod.vip) !logged);
  check tbool "payload" true (List.mem "got: virtual hello" !logged);
  (* the client's own address reads back as its vip *)
  check tbool "client sees own vip" true
    (List.mem ("myaddr=" ^ Addr.ip_to_string pa.Pod.vip) !logged)

let test_suspend_resume () =
  register_programs ();
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  let p = Pod.spawn pod ~program:"podtest.pid_logger" ~args:Value.Unit in
  Engine.schedule env.engine ~delay:Simtime.zero (fun () -> Pod.suspend pod);
  Engine.run ~until:(Simtime.ms 10) ~max_events:10000 env.engine;
  check tbool "frozen, not exited" true (p.Proc.exit_code = None);
  Pod.resume pod;
  run env;
  check tbool "exited after resume" true (p.Proc.exit_code = Some 0)

let test_destroy () =
  register_programs ();
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  let p = Pod.spawn pod ~program:"podtest.long_sleeper" ~args:Value.Unit in
  Engine.run ~until:(Simtime.ms 1) ~max_events:10000 env.engine;
  Pod.destroy pod;
  run env;
  check tbool "member killed" true (p.Proc.exit_code = Some 137);
  check tbool "unregistered" true (Pod.find pod.Pod.pod_id = None);
  check tbool "rip detached" true (Fabric.node_of_ip env.fabric pod.Pod.rip = None)

let test_time_virtualization () =
  register_programs ();
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  (* pretend a checkpoint happened at t=500ms and we restarted at t=0 *)
  Pod.apply_time_bias pod ~saved_clock:(Simtime.ms 500) ~current_clock:Simtime.zero;
  let _p = Pod.spawn pod ~program:"podtest.clock" ~args:Value.Unit in
  run env;
  let t =
    List.find_map
      (fun s ->
        if String.length s > 6 && String.equal (String.sub s 0 6) "clock=" then
          Some (int_of_string (String.sub s 6 (String.length s - 6)))
        else None)
      !logged
  in
  match t with
  | Some t -> check tbool "clock continues from checkpoint" true (t >= Simtime.ms 500)
  | None -> Alcotest.fail "no clock log"

let test_time_virtualization_off () =
  register_programs ();
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  pod.Pod.virtualize_time <- false;
  Pod.apply_time_bias pod ~saved_clock:(Simtime.ms 500) ~current_clock:Simtime.zero;
  let _p = Pod.spawn pod ~program:"podtest.clock" ~args:Value.Unit in
  run env;
  let t =
    List.find_map
      (fun s ->
        if String.length s > 6 && String.equal (String.sub s 0 6) "clock=" then
          Some (int_of_string (String.sub s 6 (String.length s - 6)))
        else None)
      !logged
  in
  match t with
  | Some t -> check tbool "absolute time when disabled" true (t < Simtime.ms 500)
  | None -> Alcotest.fail "no clock log"

let test_fs_namespace_isolation () =
  register_programs ();
  let env = make_env () in
  (* both kernels mount the same shared file system *)
  let shared = Zapc_simos.Simfs.create () in
  Kernel.set_fs env.k0 shared;
  Kernel.set_fs env.k1 shared;
  let pa = fresh_pod env ~kernel:env.k0 ~vip_last:1 ~rip_last:1 () in
  let pb = fresh_pod env ~kernel:env.k1 ~vip_last:2 ~rip_last:2 () in
  let _ = Pod.spawn pa ~program:"podtest.fs_writer" ~args:(Value.Str "alpha") in
  let _ = Pod.spawn pb ~program:"podtest.fs_writer" ~args:(Value.Str "beta") in
  run env;
  (* each pod reads back its own content under the same virtual path *)
  check tbool "pod A sees its data" true (List.mem "read: alpha" !logged);
  check tbool "pod B sees its data" true (List.mem "read: beta" !logged);
  (* listings are un-chrooted: pods see "/data.txt", not their real prefix *)
  check tbool "ls unchrooted" true (List.mem "ls: /data.txt" !logged);
  (* on the real store the files live under distinct pod roots *)
  check tbool "A's file" true
    (Zapc_simos.Simfs.get shared (Pod.fs_root pa ^ "/data.txt") = Some "alpha");
  check tbool "B's file" true
    (Zapc_simos.Simfs.get shared (Pod.fs_root pb ^ "/data.txt") = Some "beta")

let test_members_ordering () =
  register_programs ();
  let env = make_env () in
  let pod = fresh_pod env ~vip_last:1 ~rip_last:1 () in
  let a = Pod.spawn pod ~program:"podtest.long_sleeper" ~args:Value.Unit in
  let b = Pod.spawn pod ~program:"podtest.long_sleeper" ~args:Value.Unit in
  let members = Pod.members pod in
  check tint "two members" 2 (List.length members);
  (match members with
   | [ (v1, p1); (v2, p2) ] ->
     check tint "vpid order" 1 v1;
     check tint "vpid order 2" 2 v2;
     check tbool "procs match" true (p1 == a && p2 == b)
   | _ -> Alcotest.fail "bad members")

(* A namespace that never translates while thousands of rebinds go by:
   the table keeps one entry per distinct rebound vip, however many
   rebinds each takes, and the namespace answers with the latest. *)
let test_one_entry_per_vip () =
  let table = Namespace.table () in
  let ns = Namespace.create ~table () in
  let peer = Addr.make_ip 10 1 0 2 in
  Namespace.set_vip_map ns [ (peer, Addr.make_ip 172 16 0 2) ];
  for i = 0 to 2999 do
    Namespace.rebind table ~vip:peer ~rip:(Addr.make_ip 172 16 5 (i land 255));
    Namespace.rebind table ~vip:(Addr.make_ip 10 2 0 (i land 63))
      ~rip:(Addr.make_ip 172 17 (i lsr 8) (i land 255))
  done;
  check tint "one entry per rebound vip" 65 (Namespace.rebound table);
  check tbool "the namespace never translated" false (Namespace.indexed ns);
  let latest = Addr.make_ip 172 16 5 (2999 land 255) in
  check tbool "and answers with the latest rebind" true
    (Addr.equal_ip (Namespace.rip_of_vip ns peer) latest
     && Addr.equal_ip (Namespace.vip_of_rip ns latest) peer
     && Addr.equal_ip (Namespace.vip_of_rip ns (Addr.make_ip 172 16 5 0)) (Addr.make_ip 172 16 5 0))

let () =
  Alcotest.run "pod"
    [ ( "namespace",
        [ Alcotest.test_case "pids" `Quick test_namespace_pids;
          Alcotest.test_case "addresses" `Quick test_namespace_addrs;
          QCheck_alcotest.to_alcotest prop_namespace_matches_list_model;
          Alcotest.test_case "stale duplicate shadowed" `Quick
            test_namespace_stale_duplicate ] );
      ( "rebind log",
        [ QCheck_alcotest.to_alcotest prop_registry_matches_broadcast;
          Alcotest.test_case "departed pod keeps its bindings" `Quick
            test_departed_keeps_bindings;
          Alcotest.test_case "map installed after a rebind" `Quick test_map_after_rebind;
          Alcotest.test_case "rebinds leave idle namespaces alone" `Quick
            test_rebinds_leave_idle_namespaces;
          Alcotest.test_case "one entry per rebound vip" `Quick
            test_one_entry_per_vip ] );
      ( "virtualization",
        [ Alcotest.test_case "getpid" `Quick test_getpid_virtualized;
          Alcotest.test_case "kill by vpid" `Quick test_kill_by_vpid;
          Alcotest.test_case "kill unknown vpid" `Quick test_kill_unknown_vpid_esrch;
          Alcotest.test_case "virtual addresses e2e" `Quick test_virtual_addresses_end_to_end;
          Alcotest.test_case "time virtualization" `Quick test_time_virtualization;
          Alcotest.test_case "time virtualization off" `Quick test_time_virtualization_off ] );
      ( "lifecycle",
        [ Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "destroy" `Quick test_destroy;
          Alcotest.test_case "fs namespace isolation" `Quick test_fs_namespace_isolation;
          Alcotest.test_case "members" `Quick test_members_ordering ] ) ]

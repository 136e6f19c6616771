(* The pod's virtual private namespace.

   Resource identifiers visible to processes inside a pod are virtual: PIDs
   and network addresses stay constant for the life of the application, and
   the namespace remaps them to the real identifiers of whatever node the
   pod currently runs on.  This is what decouples the application from the
   host and makes migration to nodes with different PID spaces and IP
   subnets possible (paper section 3). *)

module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr

module Iptbl = Hashtbl.Make (struct
  type t = Addr.ip

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* The address map is an ordered list of (vip, rip) entries where the
   first entry wins in both directions.  It is kept as installed until the
   first lookup or rebind, then replaced by an index over its entry
   positions: installing a map stays O(1) ([Cluster.link_pods] hands one
   shared list to every pod of an application) and a namespace that never
   translates never pays for the tables. *)
type index = {
  vips : Addr.ip array;  (* entry position -> vip *)
  rips : Addr.ip array;  (* entry position -> current rip *)
  by_vip : int list Iptbl.t;  (* vip -> its live positions, ascending *)
  by_rip : int list Iptbl.t;  (* rip -> its live positions, ascending *)
}

type addrs =
  | Installed of (Addr.ip * Addr.ip) option * (Addr.ip * Addr.ip) list  (* own entry, map *)
  | Indexed of index

type t = {
  vpid_to_rpid : (int, int) Hashtbl.t;
  rpid_to_vpid : (int, int) Hashtbl.t;
  mutable next_vpid : int;
  (* vip -> rip for every pod of the application (installed by the Agent,
     rewritten on migration); and the reverse map. *)
  mutable addrs : addrs;
}

let create () =
  { vpid_to_rpid = Hashtbl.create 8; rpid_to_vpid = Hashtbl.create 8; next_vpid = 1;
    addrs = Installed (None, []) }

(* --- PIDs --- *)

let fresh_vpid t rpid =
  let vpid = t.next_vpid in
  t.next_vpid <- t.next_vpid + 1;
  Hashtbl.replace t.vpid_to_rpid vpid rpid;
  Hashtbl.replace t.rpid_to_vpid rpid vpid;
  vpid

let bind_vpid t ~vpid ~rpid =
  Hashtbl.replace t.vpid_to_rpid vpid rpid;
  Hashtbl.replace t.rpid_to_vpid rpid vpid;
  if vpid >= t.next_vpid then t.next_vpid <- vpid + 1

let rpid_of_vpid t vpid = Hashtbl.find_opt t.vpid_to_rpid vpid
let vpid_of_rpid t rpid = Hashtbl.find_opt t.rpid_to_vpid rpid

let forget_rpid t rpid =
  match vpid_of_rpid t rpid with
  | None -> ()
  | Some vpid ->
    Hashtbl.remove t.rpid_to_vpid rpid;
    Hashtbl.remove t.vpid_to_rpid vpid

let vpids t =
  Hashtbl.fold (fun vpid _ acc -> vpid :: acc) t.vpid_to_rpid [] |> List.sort Int.compare

let next_vpid t = t.next_vpid
let set_next_vpid t n = t.next_vpid <- n

(* --- network addresses --- *)

let set_vip_map ?own t map = t.addrs <- Installed (own, map)

let positions tbl ip = match Iptbl.find_opt tbl ip with Some ps -> ps | None -> []

let rec insert i = function
  | j :: rest when j < i -> j :: insert i rest
  | ps -> i :: ps

let link tbl ip i = Iptbl.replace tbl ip (insert i (positions tbl ip))

let unlink tbl ip i =
  match List.filter (fun j -> j <> i) (positions tbl ip) with
  | [] -> Iptbl.remove tbl ip
  | ps -> Iptbl.replace tbl ip ps

(* An entry equal to an earlier one is dropped: the two always move
   together (only a rebind of their common vip moves either), so the
   earlier one answers every lookup the later one could. *)
let build map =
  let n = List.length map in
  let ix =
    { vips = Array.make n 0; rips = Array.make n 0; by_vip = Iptbl.create n;
      by_rip = Iptbl.create n }
  in
  let next = ref 0 in
  List.iter
    (fun (vip, rip) ->
      let same_vip = positions ix.by_vip vip in
      if not (List.exists (fun j -> Addr.equal_ip ix.rips.(j) rip) same_vip) then begin
        let i = !next in
        incr next;
        ix.vips.(i) <- vip;
        ix.rips.(i) <- rip;
        link ix.by_vip vip i;
        link ix.by_rip rip i
      end)
    map;
  ix

let index t =
  match t.addrs with
  | Indexed ix -> ix
  | Installed (own, map) ->
    let map =
      match own with
      | Some ((vip, _) as entry) when not (List.exists (fun (v, _) -> Addr.equal_ip v vip) map) ->
        entry :: map
      | Some _ | None -> map
    in
    let ix = build map in
    t.addrs <- Indexed ix;
    ix

(* Gratuitous-ARP-style update: a pod re-acquired its virtual address on a
   new node.  Namespaces that never knew the vip are left untouched, like
   an ARP cache without the entry.  Every entry of the vip moves to the new
   rip; from then on the first of them shadows the rest in both directions,
   so only the first stays indexed. *)
let rebind_vip t ~vip ~rip =
  let ix = index t in
  match positions ix.by_vip vip with
  | [] -> ()
  | first :: _ as ps ->
    List.iter (fun i -> unlink ix.by_rip ix.rips.(i) i) ps;
    ix.rips.(first) <- rip;
    link ix.by_rip rip first;
    Iptbl.replace ix.by_vip vip [ first ]

let rip_of_vip t vip =
  let ix = index t in
  match positions ix.by_vip vip with i :: _ -> ix.rips.(i) | [] -> vip

let vip_of_rip t rip =
  let ix = index t in
  match positions ix.by_rip rip with i :: _ -> ix.vips.(i) | [] -> rip

let translate_addr_out t (a : Addr.t) = { a with Addr.ip = rip_of_vip t a.ip }
let translate_addr_in t (a : Addr.t) = { a with Addr.ip = vip_of_rip t a.ip }

let to_value t =
  Value.assoc
    [ ("next_vpid", Value.Int t.next_vpid);
      ("vpids", Value.list Value.int (vpids t)) ]

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
   first lookup, then replaced by an index over its entry positions, which
   is never mutated: installing a map stays O(1) ([Cluster.link_pods]
   hands one shared list to every pod of an application) and a namespace
   that never translates never pays for the tables. *)
type index = {
  entries : (Addr.ip * Addr.ip) array;
  by_vip : int Iptbl.t;  (* vip -> its first position *)
  by_rip : int list Iptbl.t;  (* rip -> its positions, ascending *)
}

type addrs =
  | Installed of (Addr.ip * Addr.ip) option * (Addr.ip * Addr.ip) list
  | Indexed of index

module Ipmap = Map.Make (Int)

(* (vip, rip) bindings with distinct vips and distinct rips, both ways. *)
type bindings = { rip_of : Addr.ip Ipmap.t; vip_of : Addr.ip Ipmap.t }

(* The rebind table: the last rebind of each vip, kept once for all
   namespaces instead of pushed into each.  Persistent, so a namespace
   that stops reading it keeps the value it stopped at. *)
type rebinds = {
  last : (Addr.ip * int) Ipmap.t;  (* vip -> rip and stamp of its last rebind *)
  onto : Addr.ip list Ipmap.t;  (* rip -> the vips whose last rebind points at it *)
  stamp : int;  (* rebinds so far *)
}

type table = { mutable now : rebinds }

type t = {
  vpid_to_rpid : (int, int) Hashtbl.t;
  rpid_to_vpid : (int, int) Hashtbl.t;
  mutable next_vpid : int;
  (* vip -> rip for every pod of the application (installed by the Agent,
     rewritten on migration); and the reverse map. *)
  mutable addrs : addrs;
  mutable rest : bindings;  (* consulted after the map (a restore's live pods) *)
  mutable table : table;
  mutable installed : int;  (* the table's stamp when the map was installed *)
}

let no_bindings = { rip_of = Ipmap.empty; vip_of = Ipmap.empty }
let no_rebinds = { last = Ipmap.empty; onto = Ipmap.empty; stamp = 0 }
let table () = { now = no_rebinds }

let create ?(table = table ()) () =
  { vpid_to_rpid = Hashtbl.create 8; rpid_to_vpid = Hashtbl.create 8; next_vpid = 1;
    addrs = Installed (None, []); rest = no_bindings; table; installed = table.now.stamp }

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

let positions tbl ip = match Iptbl.find tbl ip with ps -> ps | exception Not_found -> []

let build map =
  let entries = Array.of_list map in
  let n = Array.length entries in
  let ix = { entries; by_vip = Iptbl.create n; by_rip = Iptbl.create n } in
  for i = n - 1 downto 0 do
    let vip, rip = entries.(i) in
    Iptbl.replace ix.by_vip vip i;
    Iptbl.replace ix.by_rip rip (i :: positions ix.by_rip rip)
  done;
  ix

let index t =
  match t.addrs with
  | Indexed ix -> ix
  | Installed (own, map) ->
    let known vip =
      List.exists (fun (v, _) -> Addr.equal_ip v vip) map || Ipmap.mem vip t.rest.rip_of
    in
    let map = match own with Some ((vip, _) as e) when not (known vip) -> e :: map | _ -> map in
    let ix = build map in
    t.addrs <- Indexed ix;
    ix

let set_vip_map ?own ?(rest = no_bindings) t map =
  t.addrs <- Installed (own, map);
  t.rest <- rest;
  t.installed <- t.table.now.stamp

let bind b ~vip ~rip = { rip_of = Ipmap.add vip rip b.rip_of; vip_of = Ipmap.add rip vip b.vip_of }

let unbind b ~vip ~rip =
  let drop k v m =
    match Ipmap.find_opt k m with Some v' when Addr.equal_ip v' v -> Ipmap.remove k m | _ -> m
  in
  { rip_of = drop vip rip b.rip_of; vip_of = drop rip vip b.vip_of }

(* --- the rebind table --- *)

let rebind table ~vip ~rip =
  let rb = table.now in
  let onto =
    match Ipmap.find_opt vip rb.last with
    | Some (old, _) ->
      (match List.filter (fun v -> not (Addr.equal_ip v vip)) (Ipmap.find old rb.onto) with
       | [] -> Ipmap.remove old rb.onto
       | vs -> Ipmap.add old vs rb.onto)
    | None -> rb.onto
  in
  let stamp = rb.stamp + 1 in
  table.now <-
    { last = Ipmap.add vip (rip, stamp) rb.last;
      onto = Ipmap.add rip (vip :: Option.value ~default:[] (Ipmap.find_opt rip onto)) onto;
      stamp }

let detach t = t.table <- { now = t.table.now }
let rebound table = Ipmap.cardinal table.now.last

(* --- lookups --- *)

(* A rebind touches only the entries of its vip and leaves them in a state
   that depends on nothing but its rip, so a later rebind of a vip
   overrides an earlier one and rebinds of different vips commute: the
   last rebind of each known vip since the map was installed is all a
   lookup needs. *)
let moved t rb vip =
  match Ipmap.find vip rb.last with
  | _, stamp -> stamp > t.installed
  | exception Not_found -> false

(* [rip], the installed rip of a known [vip], or the rip it moved to. *)
let current t vip rip =
  let rb = t.table.now in
  if rb.stamp <= t.installed then rip
  else
    match Ipmap.find vip rb.last with
    | moved_to, stamp when stamp > t.installed -> moved_to
    | _ -> rip
    | exception Not_found -> rip

let indexed t = match t.addrs with Indexed _ -> true | Installed _ -> false

let rip_of_vip t vip =
  let ix = index t in
  match Iptbl.find ix.by_vip vip with
  | i -> current t vip (snd ix.entries.(i))
  | exception Not_found ->
    (match Ipmap.find vip t.rest.rip_of with
     | rip -> current t vip rip
     | exception Not_found -> vip)

(* The entries that now hold [rip] are those installed with it whose vip
   has not moved, plus the first entry of each known vip that moved onto
   it.  The map's entries come first, in order; the rest's follow in vip
   order. *)
let vip_of_rip t rip =
  let ix = index t and rb = t.table.now in
  if rb.stamp <= t.installed then
    match positions ix.by_rip rip with
    | i :: _ -> fst ix.entries.(i)
    | [] -> (match Ipmap.find rip t.rest.vip_of with v -> v | exception Not_found -> rip)
  else begin
    let stayed i = not (moved t rb (fst ix.entries.(i))) in
    let onto = List.filter (moved t rb) (Option.value ~default:[] (Ipmap.find_opt rip rb.onto)) in
    let first =
      List.fold_left
        (fun best v ->
          match Iptbl.find ix.by_vip v with i -> min i best | exception Not_found -> best)
        (match List.find_opt stayed (positions ix.by_rip rip) with Some i -> i | None -> max_int)
        onto
    in
    if first < max_int then fst ix.entries.(first)
    else
      (* no vip of the map holds [rip], so a vip that moved onto it is the rest's *)
      let vips = List.filter (fun v -> Ipmap.mem v t.rest.rip_of) onto in
      let vips =
        match Ipmap.find rip t.rest.vip_of with
        | v when not (moved t rb v) -> v :: vips
        | _ | (exception Not_found) -> vips
      in
      match vips with [] -> rip | v :: vs -> List.fold_left min v vs
  end

let translate_addr_out t (a : Addr.t) = { a with Addr.ip = rip_of_vip t a.ip }
let translate_addr_in t (a : Addr.t) = { a with Addr.ip = vip_of_rip t a.ip }

let to_value t =
  Value.assoc
    [ ("next_vpid", Value.Int t.next_vpid);
      ("vpids", Value.list Value.int (vpids t)) ]

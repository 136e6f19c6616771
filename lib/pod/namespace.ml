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
   first lookup or applied rebind, then replaced by an index over its entry
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
  | Installed of {
      own : (Addr.ip * Addr.ip) option;
      map : (Addr.ip * Addr.ip) list;
      mutable length : int;  (* of [map], -1 until a compaction counts it *)
    }
  | Indexed of index

(* The rebind log: every gratuitous-ARP announcement [(vip, rip)] in
   order, kept once for all namespaces instead of pushed into each.  A
   generation is the log's storage between two compactions.  Below the
   log's length its entries are written once; [shadow.(p)] is set once,
   when a later entry for the same vip arrives at that position.  A
   compaction starts a new generation instead of rewriting this one, so a
   namespace that left the registry keeps reading the generation it left
   in. *)
type gen = {
  g_vips : Addr.ip array;
  g_rips : Addr.ip array;
  shadow : int array;  (* position of the next entry for the same vip, max_int while none *)
}

type log = {
  mutable gen : gen;
  mutable len : int;
  latest : int Iptbl.t;  (* vip -> position of its last entry *)
  followers : (int, t) Hashtbl.t;  (* the registered namespaces, by key *)
  mutable next_key : int;
}

(* A registered namespace follows the log to its end; one that left the
   registry follows it up to [until], the log's length when it left. *)
and follow =
  | Alone
  | Registered of log * int  (* its key in [followers] *)
  | Departed of gen * int  (* the generation it left in, until *)

and t = {
  vpid_to_rpid : (int, int) Hashtbl.t;
  rpid_to_vpid : (int, int) Hashtbl.t;
  mutable next_vpid : int;
  (* vip -> rip for every pod of the application (installed by the Agent,
     rewritten on migration); and the reverse map. *)
  mutable addrs : addrs;
  mutable follow : follow;
  mutable seen : int;  (* log entries before this one are applied or superseded *)
}

let create () =
  { vpid_to_rpid = Hashtbl.create 8; rpid_to_vpid = Hashtbl.create 8; next_vpid = 1;
    addrs = Installed { own = None; map = []; length = 0 }; follow = Alone; seen = 0 }

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
  | Installed { own; map; length = _ } ->
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
let apply_rebind t ~vip ~rip =
  let ix = index t in
  match positions ix.by_vip vip with
  | [] -> ()
  | first :: _ as ps ->
    List.iter (fun i -> unlink ix.by_rip ix.rips.(i) i) ps;
    ix.rips.(first) <- rip;
    link ix.by_rip rip first;
    Iptbl.replace ix.by_vip vip [ first ]

(* --- the rebind log --- *)

(* A rebind touches only the entries of its vip and leaves them in a state
   that depends on nothing but its rip, so rebinds of different vips
   commute and a later rebind of a vip overrides an earlier one.  Replaying
   [seen, until) therefore skips an entry whose vip comes again before
   [until]: the answers are those of applying every entry in order. *)
let replay t g ~until =
  for p = t.seen to until - 1 do
    if g.shadow.(p) >= until then apply_rebind t ~vip:g.g_vips.(p) ~rip:g.g_rips.(p)
  done;
  t.seen <- until

let catch_up t =
  match t.follow with
  | Alone -> ()
  | Registered (log, _) -> if t.seen < log.len then replay t log.gen ~until:log.len
  | Departed (g, until) ->
    replay t g ~until;
    t.follow <- Alone

let min_capacity = 64

let new_gen cap =
  { g_vips = Array.make cap 0; g_rips = Array.make cap 0; shadow = Array.make cap max_int }

let log () =
  { gen = new_gen min_capacity; len = 0; latest = Iptbl.create 64;
    followers = Hashtbl.create 64; next_key = 0 }

let log_length log = log.len

let leave t =
  match t.follow with
  | Registered (log, key) ->
    Hashtbl.remove log.followers key;
    t.follow <- (if t.seen < log.len then Departed (log.gen, log.len) else Alone)
  | Departed _ | Alone -> ()

let follow log t =
  Hashtbl.replace log.followers log.next_key t;
  t.follow <- Registered (log, log.next_key);
  log.next_key <- log.next_key + 1;
  t.seen <- log.len

(* Whether [k] pending entries outnumber the namespace's map. *)
let outnumbered t k =
  match t.addrs with
  | Indexed ix -> k > Array.length ix.vips
  | Installed m ->
    if m.length < 0 then m.length <- List.length m.map;
    k > m.length

(* The log is full.  Keep only what a registered namespace may still need:
   the entries at or after the earliest cursor that no later entry
   shadows.  A follower whose pending entries outnumber its map applies
   them first, so what is kept never exceeds the largest map of a lagging
   follower.  The new storage leaves room for four times what is kept or
   the number of followers, so the walk over the followers costs O(1) per
   announcement.  Departed namespaces are not visited: they hold on to the
   generation they left in, which this leaves as it is. *)
let compact log =
  let g = log.gen and n = log.len in
  (* live.(p): the entries at positions >= p that no later entry shadows *)
  let live = Array.make (n + 1) 0 in
  for p = n - 1 downto 0 do
    live.(p) <- (if g.shadow.(p) >= n then live.(p + 1) + 1 else live.(p + 1))
  done;
  let start =
    Hashtbl.fold
      (fun _ t m ->
        if t.seen < n && outnumbered t live.(t.seen) then catch_up t;
        min t.seen m)
      log.followers n
  in
  let keep = live.(start) in
  let g' = new_gen (max min_capacity (4 * max keep (Hashtbl.length log.followers))) in
  let q = ref 0 in
  for p = start to n - 1 do
    if g.shadow.(p) >= n then begin
      g'.g_vips.(!q) <- g.g_vips.(p);
      g'.g_rips.(!q) <- g.g_rips.(p);
      incr q
    end
  done;
  (* an unshadowed entry at [p >= start] moves to [keep - live.(p)] *)
  Iptbl.filter_map_inplace (fun _ p -> if p < start then None else Some (keep - live.(p))) log.latest;
  Hashtbl.iter (fun _ t -> t.seen <- keep - live.(t.seen)) log.followers;
  log.gen <- g';
  log.len <- keep

let announce log ~vip ~rip =
  if log.len = Array.length log.gen.g_vips then compact log;
  let g = log.gen and p = log.len in
  g.g_vips.(p) <- vip;
  g.g_rips.(p) <- rip;
  (match Iptbl.find_opt log.latest vip with Some q -> g.shadow.(q) <- p | None -> ());
  Iptbl.replace log.latest vip p;
  log.len <- p + 1

(* --- lookups --- *)

let set_vip_map ?own t map =
  t.addrs <- Installed { own; map; length = -1 };
  (* the new map supersedes every rebind announced so far *)
  match t.follow with
  | Registered (log, _) -> t.seen <- log.len
  | Departed _ -> t.follow <- Alone
  | Alone -> ()

let rebind_vip t ~vip ~rip =
  catch_up t;
  apply_rebind t ~vip ~rip

let indexed t = match t.addrs with Indexed _ -> true | Installed _ -> false

let rip_of_vip t vip =
  catch_up t;
  let ix = index t in
  match positions ix.by_vip vip with i :: _ -> ix.rips.(i) | [] -> vip

let vip_of_rip t rip =
  catch_up t;
  let ix = index t in
  match positions ix.by_rip rip with i :: _ -> ix.vips.(i) | [] -> rip

let translate_addr_out t (a : Addr.t) = { a with Addr.ip = rip_of_vip t a.ip }
let translate_addr_in t (a : Addr.t) = { a with Addr.ip = vip_of_rip t a.ip }

let to_value t =
  Value.assoc
    [ ("next_vpid", Value.Int t.next_vpid);
      ("vpids", Value.list Value.int (vpids t)) ]

(* Checkpoint image storage: one copy model, one stored form, three
   backends that differ only in data chosen at [create].

   Every physical name maps to one entry: its pristine recipe, checksum,
   accounted bytes and a fixed row of copy slots.  A slot's location is a
   SAN replica, a node's RAM or nowhere, and every read, heal, outage and
   corruption walks or indexes that one row.  [Sb_plain] is the SAN/NAS of
   the paper's cluster (slot i = replica i, each holding the image
   verbatim).  [Sb_buddy] is the peer-memory backend: slot 0 is the owner
   node's RAM and slot 1 a partner ("buddy") node's RAM over the per-node
   links, bypassing the shared SAN entirely — LiveStack's argument that
   cluster-scale checkpoint traffic must avoid any central choke point.
   When a node dies the Supervisor calls [node_died]; surviving copies are
   re-buddied onto the next live node.

   Every stored image is a recipe: a skeleton plus its encoded bytes as
   chunks.  A plain image is one inline chunk with nothing hashed.
   [Sb_dedup] instead splits it into FNV-addressed chunks (Zapc_ckpt.Chunk)
   — real chunks of the Wire encoding plus virtual chunks of the modelled
   memory regions — and stores each distinct chunk once in a refcounted
   pool.  Identical text/data across epochs, replicas and sibling pods (the
   16 BT ranks all declare the same regions) collapses to one stored copy,
   and the savings multiply with delta chains: an unchanged region dedupes
   even inside a full checkpoint.  A modelled region is interned once per
   distinct (name, size, generation) tag: the first recipe that lists the
   tag interns its chunks one by one, and every later one takes a
   reference on the tag's region entry, whose chunk references go when its
   last listing recipe does.

   Reads are memoized per store generation: every call that changes what a
   read can see moves [gen], and until it moves a key's resolved image is
   served again, replaying the counters its resolving read bumped.  A
   restart key is read by whoever checks it before the restart, by the
   Manager and by the restoring Agent, whose [take] is the last read and
   drops the key's memo entry.

   Compression ([compress]) composes with every backend: the stored/flushed
   byte accounting shrinks to the image's modelled compressed size
   (Image.comp_size) while the virtual-CPU compressor cost is charged by
   the Agent.  The bytes that restart must reproduce are never transformed,
   so restart stays checksum-identical across every backend combination.

   A key names its current entry, and a delta's entry holds the entry its
   base key named when the delta was put.  An entry is reference-counted
   like a chunk or a region: the key that names it and each live delta
   based on it hold one reference.  [put key] binds the new entry and
   retires the key's old one; [remove key] retires it too.  A retired
   entry that live deltas still reference keeps its bytes (copy-on-write)
   until the last of them goes, and then releases its own base in turn —
   without this, overwriting a delta's base would swap the bytes the chain
   resolves against and [get] would materialize a wrong image with a valid
   per-link checksum.  Since a chain holds entries, not key names, a later
   put or remove of the base key cannot retarget it. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Image = Zapc_ckpt.Image
module Delta = Zapc_ckpt.Delta
module Chunk = Zapc_ckpt.Chunk

(* One distinct chunk in the content-addressed pool.  [c_bytes] is the real
   content for encoded-bytes chunks and [None] for virtual region chunks
   (the simulation models region content as (name, size, generation) tags —
   there are no page bytes to keep, only accounting). *)
type chunk = {
  c_size : int;
  c_bytes : string option;
  mutable c_refs : int;  (* referencing stored entries (per occurrence) *)
}

(* One encoded-bytes chunk of a recipe: a pool reference, or the bytes
   themselves — a plain image's single chunk, a pool address that collided
   with different content (never observed — the safety valve keeps a hash
   collision from corrupting images), or a corrupted copy's shadow. *)
type ch = Cref of int | Cinline of string

(* One distinct modelled region tag: its virtual chunk addresses, each
   holding one pool reference for the whole entry, and the number of
   region listings in stored recipes that point here. *)
type region = {
  r_tag : string * int * int;  (* (name, size, generation) *)
  addrs : int array;
  mutable refs : int;
}

(* Every stored image is a recipe. *)
type stored = {
  skel : Image.t;  (* the image minus its encoded bytes *)
  chs : ch array;  (* encoded bytes, in chunk order *)
  vrefs : region array;  (* modelled regions, one per listing (accounting) *)
}

(* Where a copy slot lives: a SAN replica, a node's RAM, or nowhere (a buddy
   entry with no live partner, or one whose copies all died). *)
type loc = San | Ram of int | Nowhere

type slot = {
  loc : loc;
  mutable data : (stored * int) option;  (* the copy and its checksum *)
}

(* One stored image: the pristine recipe, its checksum, its accounted
   (flush/backfill) byte size, and its copy slots.  The pristine recipe is
   the source of truth for chunk refcounts and heal-time backfill;
   corruption injection only ever touches a slot's copy.  A delta's
   [e_base] is the entry its base key named at put time ([None] for a full
   image, or a delta whose base key held nothing then). *)
type entry = {
  e_stored : stored;
  e_sum : int;
  e_bytes : int;
  copies : slot array;
  e_base : entry option;
  e_serial : int;  (* the put that made it: its key in [live] *)
  mutable e_refs : int;  (* the key naming it + each live delta based on it *)
}

type t = {
  engine : Engine.t;
  compress : bool;
  chunked : bool;  (* split images into the content-addressed pool *)
  place : int -> loc array;  (* writer's node -> one location per slot *)
  bps : float;  (* shared SAN flush bandwidth *)
  nodes : int;  (* cluster size buddy partners are drawn from *)
  fails : string option array;  (* injected per-slot outages *)
  dead : (int, unit) Hashtbl.t;
  chunks : (int, chunk) Hashtbl.t;  (* content-addressed chunk pool *)
  regions : (string * int * int, region) Hashtbl.t;  (* interned region tags *)
  heads : (string, entry) Hashtbl.t;  (* public key -> its current entry *)
  live : (int, entry) Hashtbl.t;  (* put serial -> every entry not yet freed *)
  mutable serial : int;
  metrics : Metrics.t;
  mutable bytes_written : int;
  mutable fail_writes : string option;
  trace : Span.t;  (* successful writes become [storage_put] spans *)
  (* contention: each link (the shared SAN, each buddy owner's own link)
     serializes its own flushes; distinct links run in parallel *)
  links_free : (loc, Simtime.t) Hashtbl.t;
  (* running totals behind the dedup_factor / compress_ratio gauges *)
  mutable dd_logical : int;
  mutable dd_unique : int;
  mutable comp_in : int;
  mutable comp_out : int;
  (* read memo: a key's resolved image and the counters its resolving read
     bumped, in order; valid while [memo_gen = gen] *)
  mutable gen : int;
  mutable memo_gen : int;
  memo : (string, Zapc_codec.Value.t option * string list) Hashtbl.t;
}

(* Next live node after [after] (never [after] itself); None if no other
   node is alive. *)
let next_alive ~nodes ~dead after =
  let rec go i =
    if i >= nodes then None
    else
      let cand = (after + i) mod nodes in
      if Hashtbl.mem dead cand then go (i + 1) else Some cand
  in
  go 1

let create ?metrics ~trace ?(bps = 180e6) ?(backend = Params.Sb_plain)
    ?(compress = false) ?(nodes = 2) engine =
  let nodes = Stdlib.max 1 nodes in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let dead = Hashtbl.create 4 in
  (* Plain and dedup: two independent SAN replicas. *)
  let san = [| San; San |] in
  (* Buddy: slot 0 is the writer's own RAM, slot 1 the next live node's. *)
  let buddy node =
    let owner = ((node mod nodes) + nodes) mod nodes in
    [| Ram owner;
       (match next_alive ~nodes ~dead owner with Some p -> Ram p | None -> Nowhere) |]
  in
  let place, chunked =
    match backend with
    | Params.Sb_plain -> ((fun _ -> san), false)
    | Params.Sb_dedup -> ((fun _ -> san), true)
    | Params.Sb_buddy -> (buddy, false)
  in
  { engine; compress; chunked; place; bps; nodes;
    fails = Array.make (Array.length (place 0)) None;
    dead; chunks = Hashtbl.create 64; regions = Hashtbl.create 16;
    heads = Hashtbl.create 16; live = Hashtbl.create 16; serial = 0;
    metrics;
    bytes_written = 0; fail_writes = None;
    trace; links_free = Hashtbl.create 8;
    dd_logical = 0; dd_unique = 0; comp_in = 0; comp_out = 0;
    gen = 0; memo_gen = 0; memo = Hashtbl.create 16 }

(* Every call that changes what a read can see moves the generation, which
   makes the whole read memo stale. *)
let changed t = t.gen <- t.gen + 1

let replica_count t = Array.length t.fails

let set_fail_writes t reason = t.fail_writes <- reason

let set_replica_fail t ~replica reason =
  if replica >= 0 && replica < Array.length t.fails then begin
    t.fails.(replica) <- reason;
    changed t
  end

let alive t = function
  | San -> true
  | Ram n -> not (Hashtbl.mem t.dead n)
  | Nowhere -> false

(* A slot a read may use or a write may land in: not outaged, location up. *)
let usable t i loc = t.fails.(i) = None && alive t loc

(* --- chunk pool --------------------------------------------------------- *)

let unref_chunk t h =
  match Hashtbl.find_opt t.chunks h with
  | None -> ()
  | Some c ->
    c.c_refs <- c.c_refs - 1;
    if c.c_refs <= 0 then begin
      Hashtbl.remove t.chunks h;
      Metrics.incr t.metrics "storage.dedup_chunks_freed"
    end

(* A region entry's chunks go with its last listing. *)
let unref_region t r =
  r.refs <- r.refs - 1;
  if r.refs = 0 then begin
    Hashtbl.remove t.regions r.r_tag;
    Array.iter (unref_chunk t) r.addrs
  end

let unref_stored t r =
  Array.iter (function Cref h -> unref_chunk t h | Cinline _ -> ()) r.chs;
  Array.iter (unref_region t) r.vrefs

(* A chunk's bytes; raises [Exit] if a referenced chunk vanished from the
   pool. *)
let chunk_bytes t = function
  | Cinline s -> s
  | Cref h ->
    (match Hashtbl.find_opt t.chunks h with
     | Some { c_bytes = Some b; _ } -> b
     | _ -> raise Exit)

(* Rebuild the image a recipe describes.  [None] if a referenced chunk
   vanished from the pool (treated as corruption by the caller). *)
let materialize t { skel; chs; _ } =
  match
    if Array.length chs = 1 then chunk_bytes t chs.(0)
    else String.concat "" (Array.to_list (Array.map (chunk_bytes t) chs))
  with
  | encoded -> Some { skel with Image.encoded }
  | exception Exit -> None

(* A plain image: one inline chunk holding its whole encoding, nothing
   hashed or pooled. *)
let inline (image : Image.t) =
  { skel = { image with Image.encoded = "" }; chs = [| Cinline image.Image.encoded |];
    vrefs = [||] }

(* --- entry lifetime --------------------------------------------------------

   An entry lives while the key names it or a live delta is based on it.
   Its last reference frees its chunks and then drops its own reference on
   its base, which may free that in turn. *)

let rec release t e =
  e.e_refs <- e.e_refs - 1;
  if e.e_refs = 0 then begin
    Hashtbl.remove t.live e.e_serial;
    unref_stored t e.e_stored;
    Option.iter (release t) e.e_base
  end

(* The key lets go of its entry: overwritten ([why] =
   storage.cow_preserved) or removed (storage.gc_deferred), counted when
   live deltas keep the entry's bytes. *)
let retire t e ~why =
  if e.e_refs > 1 then Metrics.incr t.metrics why;
  release t e

let remove t key =
  match Hashtbl.find_opt t.heads key with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.heads key;
    retire t e ~why:"storage.gc_deferred";
    changed t

(* --- writes -------------------------------------------------------------- *)

(* Split the image into pool chunks, interning new ones (refs counted per
   occurrence; a region tag's chunks once per distinct tag, the tag's entry
   per listing).  Returns the recipe plus this put's distinct-new byte
   count — the only bytes the store actually grows by.  A repeated region
   tag counts a hit for each of its chunks, as interning them again would. *)
let intern_chunks t (image : Image.t) =
  let new_bytes = ref 0 and hits = ref 0 and fresh = ref 0 in
  let intern h size bytes =
    match Hashtbl.find_opt t.chunks h with
    | Some c ->
      (match bytes, c.c_bytes with
       | Some b, Some b' when not (String.equal b b') -> `Collision
       | _ ->
         c.c_refs <- c.c_refs + 1;
         incr hits;
         `Ref)
    | None ->
      Hashtbl.add t.chunks h { c_size = size; c_bytes = bytes; c_refs = 1 };
      incr fresh;
      new_bytes := !new_bytes + size;
      `Ref
  in
  let chs =
    List.map
      (fun (h, b) ->
        match intern h (String.length b) (Some b) with
        | `Ref -> Cref h
        | `Collision ->
          new_bytes := !new_bytes + String.length b;
          Cinline b)
      (Chunk.split image.Image.encoded)
    |> Array.of_list
  in
  let region ((name, size, gen) as tag) =
    match Hashtbl.find_opt t.regions tag with
    | Some r ->
      r.refs <- r.refs + 1;
      hits := !hits + Array.length r.addrs;
      r
    | None ->
      let addrs =
        List.map
          (fun (addr, csize) ->
            ignore (intern addr csize None);
            addr)
          (Chunk.region_chunks ~name ~size ~gen)
        |> Array.of_list
      in
      let r = { r_tag = tag; addrs; refs = 1 } in
      Hashtbl.add t.regions tag r;
      r
  in
  let vrefs = Array.of_list (List.map region image.Image.regions) in
  if !hits > 0 then Metrics.add t.metrics "storage.dedup_chunk_hits" !hits;
  if !fresh > 0 then Metrics.add t.metrics "storage.dedup_chunks_new" !fresh;
  ({ skel = { image with Image.encoded = "" }; chs; vrefs }, !new_bytes)

let fail_put t reason =
  Metrics.incr t.metrics "storage.write_failures";
  Error reason

(* [node] is the writing Agent's node — the owner of the buddy backend's
   primary copy (ignored by the other backends).  [op]/[parent] stitch the
   write into the operation's causal trace. *)
let put ?op ?parent ?(node = 0) t key image =
  match t.fail_writes with
  | Some reason -> fail_put t reason
  | None ->
    (* Resolve write targets first: a write with nowhere to land must fail
       without touching the chunk pool or the keyspace. *)
    let locs = t.place node in
    let landed = Array.mapi (fun i loc -> usable t i loc) locs in
    if not (Array.exists Fun.id landed) then fail_put t "all replicas unavailable"
    else begin
      let sum = Image.checksum image in
      let logical_bytes = image.Image.logical_size in
      let asize = if t.compress then Image.comp_size image else logical_bytes in
      (* The recipe and its accounted bytes: an inline image is written
         whole ([asize]) to every copy; a chunked one grows the shared pool
         once, by this put's distinct-new bytes (compressed at the image's
         ratio). *)
      let stored, e_bytes, written =
        if t.chunked then begin
          let recipe, uniq = intern_chunks t image in
          t.dd_logical <- t.dd_logical + logical_bytes;
          t.dd_unique <- t.dd_unique + uniq;
          Metrics.add t.metrics "storage.dedup_bytes_logical" logical_bytes;
          Metrics.add t.metrics "storage.dedup_bytes_unique" uniq;
          Metrics.set_gauge t.metrics "storage.dedup_factor"
            (float_of_int t.dd_logical /. float_of_int (Stdlib.max 1 t.dd_unique));
          let ratio = float_of_int asize /. float_of_int (Stdlib.max 1 logical_bytes) in
          let once = int_of_float (ratio *. float_of_int uniq) in
          (recipe, once, once)
        end
        else
          let copies = Array.fold_left (fun n l -> if l then n + 1 else n) 0 landed in
          (inline image, asize, copies * asize)
      in
      if t.compress then begin
        t.comp_in <- t.comp_in + logical_bytes;
        t.comp_out <- t.comp_out + asize;
        Metrics.add t.metrics "storage.compress_in_bytes" logical_bytes;
        Metrics.add t.metrics "storage.compress_out_bytes" asize;
        Metrics.add t.metrics "storage.compress_saved_bytes" (logical_bytes - asize);
        Metrics.set_gauge t.metrics "storage.compress_ratio"
          (float_of_int t.comp_out /. float_of_int (Stdlib.max 1 t.comp_in))
      end;
      if Array.exists (function Ram _ -> true | San | Nowhere -> false) locs then begin
        Metrics.incr t.metrics "storage.buddy_puts";
        if Array.mem Nowhere locs then Metrics.incr t.metrics "storage.buddy_degraded"
      end;
      (* A delta holds the entry its base key names now, taken before the
         key's old entry is retired: a delta put over its own key keeps
         its base. *)
      let e_base =
        match image.Image.base_key with
        | Some bkey -> Hashtbl.find_opt t.heads bkey
        | None -> None
      in
      Option.iter (fun b -> b.e_refs <- b.e_refs + 1) e_base;
      let copies =
        Array.mapi
          (fun i loc -> { loc; data = (if landed.(i) then Some (stored, sum) else None) })
          locs
      in
      let e =
        { e_stored = stored; e_sum = sum; e_bytes; copies; e_base; e_serial = t.serial;
          e_refs = 1 }
      in
      t.serial <- t.serial + 1;
      Hashtbl.replace t.live e.e_serial e;
      Option.iter (retire t ~why:"storage.cow_preserved") (Hashtbl.find_opt t.heads key);
      Hashtbl.replace t.heads key e;
      changed t;
      t.bytes_written <- t.bytes_written + written;
      Metrics.incr t.metrics "storage.puts";
      Metrics.add t.metrics "storage.bytes_written" written;
      Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
        "storage.put_bytes"
        (float_of_int image.Image.logical_size);
      let now = Engine.now t.engine in
      Span.end_span t.trace ~time:now
        (Span.begin_span t.trace ~time:now ?op ?parent ~pod:image.Image.pod_id
           Zapc_obs.Phase.Storage_put);
      Ok ()
    end

(* --- reads --------------------------------------------------------------- *)

(* One stored link, exactly as written: walk the entry's copy slots in
   order, skipping unusable slots and copies that fail to materialize
   byte-identically.  [bump] counts a storage.* event of the read. *)
let raw_get t ~bump e =
  let rec go i =
    if i >= Array.length e.copies then None
    else
      let s = e.copies.(i) in
      match s.data with
      | Some (st, sum) when usable t i s.loc ->
        (match materialize t st with
         | Some img when Image.checksum img = sum ->
           if i > 0 then bump "storage.replica_fallbacks";
           Some img
         | Some _ | None ->
           bump "storage.corruption_detected";
           go (i + 1))
      | Some _ | None -> go (i + 1)
  in
  go 0

(* The longest chain a read follows: the Agent's chains stop at
   Params.max_delta_chain, far below this, so only a longer chain of
   hand-written deltas misses. *)
let max_resolve_depth = 64

(* Resolve a public key to its pod image: fetch the chain link
   (checksum-verified, with copy fallback), recurse to the base entry bound
   at put, apply the decoded delta to the decoded base.  Each link is
   materialized and decoded once and nothing is re-encoded: callers get
   the value the full checkpoint taken at the same instant encodes, on
   every backend.  A delta with no base entry misses; a link that fails to
   decode or to apply breaks the chain above it. *)
let resolve_key t ~bump key =
  bump "storage.gets";
  let miss () =
    bump "storage.get_misses";
    None
  in
  match Hashtbl.find_opt t.heads key with
  | None -> miss ()
  | Some e0 ->
    let rec resolve e depth =
      if depth > max_resolve_depth then None
      else
        match raw_get t ~bump e with
        | None -> None
        | Some image ->
          (match image.Image.base_key with
           | None -> Some (Image.to_pod_image image)
           | Some _ ->
             (match
                Option.map
                  (fun base -> Delta.apply ~base (Image.to_pod_image image))
                  (Option.bind e.e_base (fun b -> resolve b (depth + 1)))
              with
              | None -> None
              | Some full ->
                bump "storage.delta_resolved";
                Some full
              | exception _ ->
                bump "storage.chain_broken";
                None))
    in
    (match resolve e0 0 with
     | Some v -> Some v
     | None | (exception Zapc_codec.Value.Decode_error _) -> miss ())

(* A read through the memo: a key resolved since the store last changed is
   served again, replaying the counters its resolving read bumped, in
   order; [keep] leaves it memoized. *)
let read ~keep t key =
  if t.memo_gen <> t.gen then begin
    Hashtbl.reset t.memo;
    t.memo_gen <- t.gen
  end;
  match Hashtbl.find_opt t.memo key with
  | Some (image, bumped) ->
    List.iter (Metrics.incr t.metrics) bumped;
    if not keep then Hashtbl.remove t.memo key;
    image
  | None ->
    let bumped = ref [] in
    let bump name =
      Metrics.incr t.metrics name;
      bumped := name :: !bumped
    in
    let image = resolve_key t ~bump key in
    if keep then Hashtbl.replace t.memo key (image, List.rev !bumped);
    image

let get t key = read ~keep:true t key
let take t key = read ~keep:false t key

(* The key's entry's first copy a read may use, unverified. *)
let first_usable t key =
  match Hashtbl.find_opt t.heads key with
  | None -> None
  | Some e ->
    let rec go i =
      if i >= Array.length e.copies then None
      else
        match e.copies.(i) with
        | { data = Some (st, _); loc } when usable t i loc -> Some st
        | _ -> go (i + 1)
    in
    go 0

(* Cheap, side-effect-free existence check: the key's entry is present in
   some usable slot.  No chain walk, no metrics, no materialization — a
   corrupt-everywhere key still answers true (only a verifying [get] can
   tell). *)
let mem t key = Option.is_some (first_usable t key)

(* The chain link's base reference, read from the same unverified copy
   [mem] finds: a copy's recipe shares its skeleton with the pristine one
   (corruption only shadows chunk bytes), so no materialization is needed. *)
let base_key t key =
  match first_usable t key with
  | Some st -> st.skel.Image.base_key
  | None -> None

(* The key's entry's copy slot [replica], if in range. *)
let slot t ~replica key =
  match Hashtbl.find_opt t.heads key with
  | Some e when replica >= 0 && replica < Array.length e.copies -> Some e.copies.(replica)
  | Some _ | None -> None

(* Does this slot physically hold the key's entry?  Ignores outage flags —
   tests use this to observe the replication factor directly. *)
let replica_has t ~replica key =
  match slot t ~replica key with Some { data = Some _; _ } -> true | _ -> false

(* --- healing ------------------------------------------------------------- *)

(* Clear the per-slot outages AND restore the replication factor: every
   empty slot whose location is alive (typically one that missed a put
   during its outage) is backfilled from the pristine recipe.  Without the
   backfill a key written during an outage silently runs below its
   replication factor forever. *)
let heal_replicas t =
  changed t;
  Array.fill t.fails 0 (Array.length t.fails) None;
  Hashtbl.iter
    (fun _ e ->
      Array.iter
        (fun s ->
          if s.data = None && alive t s.loc then begin
            s.data <- Some (e.e_stored, e.e_sum);
            Metrics.incr t.metrics "storage.rereplicated";
            Metrics.add t.metrics "storage.rereplicated_bytes" e.e_bytes
          end)
        e.copies)
    t.live

(* A node died: its RAM (and every buddy copy in it) is gone.  Every entry
   that kept a copy there is re-buddied from its surviving copy onto the
   next live node; an entry whose both copies are gone is lost (that is the
   peer-memory trade-off the bench quantifies).  SAN entries have no RAM
   slot, so nothing else changes. *)
let node_died t node =
  if not (Hashtbl.mem t.dead node) then begin
    changed t;
    Hashtbl.replace t.dead node ();
    Hashtbl.iter
      (fun _ e ->
        if Array.exists (fun s -> s.loc = Ram node) e.copies then begin
          let survivor =
            Array.find_opt
              (fun s -> s.loc <> Ram node && s.data <> None && alive t s.loc)
              e.copies
          in
          match survivor with
          | Some ({ loc = Ram o; _ } as s) ->
            e.copies.(0) <- s;
            e.copies.(1) <-
              (match next_alive ~nodes:t.nodes ~dead:t.dead o with
               | Some np ->
                 Metrics.incr t.metrics "storage.buddy_reassigned";
                 { loc = Ram np; data = s.data }
               | None ->
                 Metrics.incr t.metrics "storage.buddy_degraded";
                 { loc = Nowhere; data = None })
          | Some { loc = San | Nowhere; _ } | None ->
            Array.iteri (fun i _ -> e.copies.(i) <- { loc = Nowhere; data = None }) e.copies;
            Metrics.incr t.metrics "storage.buddy_lost"
        end)
      t.live
  end

(* --- corruption injection ------------------------------------------------ *)

(* Flip a byte of one slot's copy of the key's entry while keeping its
   stale checksum, so only a verifying read notices.  The
   mutation shadows the copy's first chunk inline in that copy only — the
   shared pool (and the other slots' recipes) stays pristine, exactly like
   flipping one replica's disk block. *)
let corrupt t ~replica key =
  match slot t ~replica key with
  | Some ({ data = Some (r, sum); _ } as s) when Array.length r.chs > 0 ->
    (match chunk_bytes t r.chs.(0) with
     | exception Exit -> false
     | "" -> false
     | bytes ->
       let b = Bytes.of_string bytes in
       let i = Bytes.length b / 2 in
       Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
       let chs = Array.copy r.chs in
       chs.(0) <- Cinline (Bytes.to_string b);
       s.data <- Some ({ r with chs }, sum);
       changed t;
       true)
  | Some _ | None -> false

(* --- flushing ------------------------------------------------------------ *)

(* Per-key flush size: what actually travels for the key's entry (a delta
   flushes its delta bytes; a dedup put flushes only its distinct-new
   bytes; compression shrinks both). *)
let flush_bytes t key =
  match Hashtbl.find_opt t.heads key with None -> None | Some e -> Some e.e_bytes

(* The link a key's flush rides: its first slot's location — the shared SAN,
   or the buddy owner's own link. *)
let link t key =
  match Hashtbl.find_opt t.heads key with Some e -> e.copies.(0).loc | None -> Nowhere

(* A flush's fixed latency, and the per-node link bandwidth of the buddy
   backend's peer-memory transfers. *)
let flush_latency = Simtime.us 500
let buddy_bps = 1e9

(* Uncontended single-transfer time (latency + bytes at the link's
   bandwidth) — what one flush costs with the fabric to itself. *)
let flush_time t key =
  match flush_bytes t key with
  | None -> Simtime.zero
  | Some bytes ->
    let bps = match link t key with Ram _ -> buddy_bps | San | Nowhere -> t.bps in
    Simtime.add flush_latency (Simtime.ns (int_of_float (float_of_int bytes /. bps *. 1e9)))

(* Contended flush: each link serializes its flushes behind one queue — the
   shared SAN is one link for the whole cluster, each buddy owner has its
   own, so flushes from different nodes proceed in parallel.  This queueing
   is what turns the SAN into the choke point at fleet scale — and what the
   buddy backend exists to bypass. *)
let flush t key ~on_done =
  let xfer = flush_time t key in
  let now = Engine.now t.engine in
  let l = link t key in
  let free = match Hashtbl.find_opt t.links_free l with Some f -> f | None -> Simtime.zero in
  let fin = Simtime.add (Simtime.max now free) xfer in
  Hashtbl.replace t.links_free l fin;
  Engine.schedule t.engine ~label:"storage.flush" ~delay:(Simtime.sub fin now) on_done

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.heads []
  |> List.sort String.compare

(* --- reference-count audit ----------------------------------------------- *)

(* Recount every reference from the heads and the live entries, and list
   each stored count that differs from its recount.  A live entry with no
   reference left outlived its last one; a referenced entry, region or
   chunk that is gone was freed early. *)
let check_refs t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let got tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let tally tbl k = Hashtbl.replace tbl k (got tbl k + 1) in
  let erefs = Hashtbl.create 16 and rrefs = Hashtbl.create 16 and crefs = Hashtbl.create 64 in
  let hold who e =
    match Hashtbl.find_opt t.live e.e_serial with
    | Some e' when e' == e -> tally erefs e.e_serial
    | Some _ | None -> err "%s holds freed entry %d" who e.e_serial
  in
  Hashtbl.iter (fun key e -> hold ("key " ^ key) e) t.heads;
  Hashtbl.iter
    (fun _ e ->
      Option.iter (hold (Printf.sprintf "entry %d" e.e_serial)) e.e_base;
      Array.iter (function Cref h -> tally crefs h | Cinline _ -> ()) e.e_stored.chs;
      Array.iter (fun r -> tally rrefs r.r_tag) e.e_stored.vrefs)
    t.live;
  Hashtbl.iter (fun _ r -> Array.iter (tally crefs) r.addrs) t.regions;
  let against what show stored count recount =
    Hashtbl.iter
      (fun k v ->
        if count v <> got recount k then
          err "%s %s: count %d, recount %d" what (show k) (count v) (got recount k))
      stored;
    Hashtbl.iter
      (fun k _ -> if not (Hashtbl.mem stored k) then err "%s %s freed early" what (show k))
      recount
  in
  against "entry" string_of_int t.live (fun e -> e.e_refs) erefs;
  against "region" (fun (name, _, _) -> name) t.regions (fun r -> r.refs) rrefs;
  against "chunk" (Printf.sprintf "%x") t.chunks (fun c -> c.c_refs) crefs;
  List.sort String.compare !errs

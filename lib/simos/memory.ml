(* Per-process memory accounting.

   Programs declare their working set through mem_alloc/mem_free; the
   checkpoint charges these bytes to the pod image (a real checkpointer
   writes the address space — here the *computational* state travels in the
   program's Value encoding, and regions model the footprint of the
   application at the paper's scale, e.g. BT/NAS's hundreds of MB).

   For incremental checkpointing every region carries a dirty bit: set when
   the region is created, resized, freed or explicitly touched, cleared when
   a checkpoint of this process has been durably stored.  [dirty_bytes] is
   what a delta checkpoint must write for this process — only the regions
   modified since the last stored snapshot.

   For content-addressed dedup every region additionally carries a *write
   generation*: a counter bumped on every mutation of the region, persisted
   through checkpoint images.  The simulation does not store page contents,
   so (name, size, generation) is the model of a region's bytes: two regions
   agreeing on all three hold identical modelled content.  Sibling ranks of
   an SPMD program allocate the same regions with the same history, which is
   exactly the cross-rank text/data redundancy dedup exploits. *)

module Value = Zapc_codec.Value

type t = {
  regions : (string, int) Hashtbl.t;
  gens : (string, int) Hashtbl.t;  (* region name -> write generation *)
  dirty : (string, unit) Hashtbl.t;  (* region names modified since last snapshot *)
  mutable version : int;  (* bumped on every mutation *)
  mutable total : int;
  mutable peak : int;
  mutable epochs : int;  (* dirty-set snapshots taken (pre-copy rounds) *)
}

let create () =
  { regions = Hashtbl.create 8; gens = Hashtbl.create 8; dirty = Hashtbl.create 8;
    version = 0; total = 0; peak = 0; epochs = 0 }

let mark_dirty t name =
  t.version <- t.version + 1;
  Hashtbl.replace t.gens name
    (1 + (match Hashtbl.find_opt t.gens name with Some g -> g | None -> 0));
  Hashtbl.replace t.dirty name ()

let alloc t name size =
  let old = match Hashtbl.find_opt t.regions name with Some s -> s | None -> 0 in
  Hashtbl.replace t.regions name size;
  mark_dirty t name;
  t.total <- t.total - old + size;
  if t.total > t.peak then t.peak <- t.total

let free t name =
  match Hashtbl.find_opt t.regions name with
  | None -> ()
  | Some s ->
    Hashtbl.remove t.regions name;
    mark_dirty t name;
    Hashtbl.remove t.gens name;  (* a freed region has no content to tag *)
    t.total <- t.total - s

let touch t name = if Hashtbl.mem t.regions name then mark_dirty t name

let total t = t.total
let peak t = t.peak
let version t = t.version

let clear_dirty t = Hashtbl.reset t.dirty

(* Bytes of the regions still present that were modified since the last
   [clear_dirty]; a dirtied-then-freed region contributes nothing (there is
   no page content left to write, the free itself travels in the region
   descriptors). *)
let dirty_bytes t =
  Hashtbl.fold
    (fun name () acc ->
      match Hashtbl.find_opt t.regions name with
      | Some size -> acc + size
      | None -> acc)
    t.dirty 0

let dirty_regions t =
  Hashtbl.fold (fun name () acc -> name :: acc) t.dirty []
  |> List.sort String.compare

(* One pre-copy round: atomically capture the dirty set (still-present
   regions with their sizes, sorted) and clear it, so mutations from here
   on accumulate toward the *next* round. *)
let snapshot_dirty t =
  let captured =
    Hashtbl.fold
      (fun name () acc ->
        match Hashtbl.find_opt t.regions name with
        | Some size -> (name, size) :: acc
        | None -> acc)
      t.dirty []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Hashtbl.reset t.dirty;
  t.epochs <- t.epochs + 1;
  captured

let epochs t = t.epochs

let gen t name =
  match Hashtbl.find_opt t.gens name with Some g -> g | None -> 0

(* Each region encodes as [size; gen] so the content tag survives a
   checkpoint-restart cycle (dedup addresses stay stable across restarts). *)
let to_value t =
  let kvs =
    Hashtbl.fold
      (fun k size acc -> (k, Value.List [ Value.Int size; Value.Int (gen t k) ]) :: acc)
      t.regions []
  in
  let kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs in
  Value.Assoc kvs

let region_of_value = function
  | Value.List [ s; g ] -> (Value.to_int s, Value.to_int g)
  | _ -> Value.decode_error "memory region: expected [size; gen]"

let of_value v =
  let t = create () in
  List.iter
    (fun (k, rv) ->
      let size, g = region_of_value rv in
      Hashtbl.replace t.regions k size;
      Hashtbl.replace t.gens k g;
      (* restored regions start dirty: the first post-restart delta must
         write them (the conservative, always-safe default) *)
      Hashtbl.replace t.dirty k ();
      t.version <- t.version + 1;
      t.total <- t.total + size;
      if t.total > t.peak then t.peak <- t.total)
    (Value.to_assoc v);
  t

(* Delta (incremental) pod images.

   A delta records only what changed since a stored base image: the pod
   header fields, the always-small sections (sockets, meta, pipes, GM
   ports — queue contents at a quiesced instant), the per-process
   structured state of the processes that changed (diffed by Value
   equality, keyed by vpid), and the full vpid order of the new image.
   The modelled address-space payload charged to the delta is only the
   *dirty* region bytes ([dirty_bytes], from Zapc_simos.Memory tracking),
   which is where the size win over a full checkpoint comes from.

   [apply base delta] reconstructs the full pod image Value exactly —
   field order, process order and contents are Value-identical to the
   full checkpoint taken at the same instant, so the Wire encodings are
   byte-identical.  Storage relies on this to materialize chains
   transparently for restart. *)

module Value = Zapc_codec.Value

let tag = "delta"

let is_delta (v : Value.t) =
  match v with Value.Tag (t, _) -> String.equal t tag | _ -> false

let field_int v k = Value.to_int (Value.field k v)

let vpid_of_proc p = field_int p "vpid"

(* Diff [full] against [base]: both are full pod-image Assoc values. *)
let make ~(base_key : string) ~(base : Value.t) ~(full : Value.t)
    ~(dirty_bytes : int) : Value.t =
  let base_procs = Value.to_list (fun v -> v) (Value.field "procs" base) in
  let full_procs = Value.to_list (fun v -> v) (Value.field "procs" full) in
  let base_by_vpid = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace base_by_vpid (vpid_of_proc p) p) base_procs;
  let changed =
    List.filter
      (fun p ->
        match Hashtbl.find_opt base_by_vpid (vpid_of_proc p) with
        | Some bp -> not (Value.equal bp p)
        | None -> true)
      full_procs
  in
  let order = List.map (fun p -> Value.int (vpid_of_proc p)) full_procs in
  Value.tag tag
    (Value.assoc
       [ ("base_key", Value.str base_key);
         ("pod_id", Value.field "pod_id" full);
         ("name", Value.field "name" full);
         ("vip", Value.field "vip" full);
         ("clock", Value.field "clock" full);
         ("next_vpid", Value.field "next_vpid" full);
         ("memory_bytes", Value.field "memory_bytes" full);
         ("dirty_bytes", Value.int dirty_bytes);
         ("sockets", Value.field "sockets" full);
         ("meta", Value.field "meta" full);
         ("pipes", Value.field "pipes" full);
         ("gm_ports", Value.field "gm_ports" full);
         ("procs_changed", Value.List changed);
         ("procs_order", Value.List order) ])

let body v =
  match v with
  | Value.Tag (t, b) when String.equal t tag -> b
  | _ -> Value.decode_error "not a delta image"

let base_key v = Value.to_str (Value.field "base_key" (body v))
let dirty_bytes v = field_int (body v) "dirty_bytes"
let pod_id v = field_int (body v) "pod_id"
let name v = Value.to_str (Value.field "name" (body v))

(* Rebuild the full pod image from a materialized base and one delta.  The
   Assoc field order below must match Pod_ckpt.checkpoint exactly. *)
let apply ~(base : Value.t) (delta : Value.t) : Value.t =
  let b = body delta in
  let base_procs = Value.to_list (fun v -> v) (Value.field "procs" base) in
  let by_vpid = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace by_vpid (vpid_of_proc p) p) base_procs;
  List.iter
    (fun p -> Hashtbl.replace by_vpid (vpid_of_proc p) p)
    (Value.to_list (fun v -> v) (Value.field "procs_changed" b));
  let procs =
    List.map
      (fun vpid ->
        match Hashtbl.find_opt by_vpid vpid with
        | Some p -> p
        | None -> Value.decode_error "delta: vpid %d missing from base and delta" vpid)
      (Value.to_list Value.to_int (Value.field "procs_order" b))
  in
  Value.assoc
    [ ("pod_id", Value.field "pod_id" b);
      ("name", Value.field "name" b);
      ("vip", Value.field "vip" b);
      ("clock", Value.field "clock" b);
      ("next_vpid", Value.field "next_vpid" b);
      ("memory_bytes", Value.field "memory_bytes" b);
      ("sockets", Value.field "sockets" b);
      ("meta", Value.field "meta" b);
      ("pipes", Value.field "pipes" b);
      ("gm_ports", Value.field "gm_ports" b);
      ("procs", Value.List procs) ]

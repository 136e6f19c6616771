(* Serialized checkpoint images.

   An image is the Wire encoding of a pod image Value plus a small logical
   header.  [logical_size] is what a real checkpointer would have written:
   the structured state plus the modelled address-space bytes (the
   simulation stores memory as region descriptors, see DESIGN.md).

   A *delta* image (see Delta) additionally records the storage key of its
   base in [base_key]; its logical size charges only the dirty region
   bytes, which is the whole point of incremental checkpointing. *)

module Value = Zapc_codec.Value
module Wire = Zapc_codec.Wire

type t = {
  pod_id : int;
  name : string;
  encoded : string;  (* Wire-encoded pod image (full or delta) *)
  logical_size : int;
  regions : (string * int * int) list;
      (* modelled memory region tags (name, size, gen) — the content
         addresses the dedup backend chunks virtual memory by *)
  base_key : string option;  (* Some key iff this is a delta image *)
}

let of_pod_image (image : Value.t) =
  let encoded = Wire.encode image in
  let regions = Compress.regions_of_image image in
  if Delta.is_delta image then
    {
      pod_id = Delta.pod_id image;
      name = Delta.name image;
      encoded;
      logical_size = String.length encoded + Delta.dirty_bytes image;
      regions;
      base_key = Some (Delta.base_key image);
    }
  else
    let memory_bytes = Value.to_int (Value.field "memory_bytes" image) in
    {
      pod_id = Value.to_int (Value.field "pod_id" image);
      name = Value.to_str (Value.field "name" image);
      encoded;
      logical_size = String.length encoded + memory_bytes;
      regions;
      base_key = None;
    }

let to_pod_image (t : t) : Value.t = Wire.decode t.encoded

(* The address-space bytes an image charges are its logical size beyond
   the Wire bytes: memory_bytes for a full image, dirty_bytes for a delta. *)
let comp_size (t : t) =
  Compress.modelled_size ~encoded:t.encoded
    ~mem_bytes:(t.logical_size - String.length t.encoded) t.regions

(* FNV-1a over the identifying fields and the encoded bytes.  Cheap,
   deterministic, and sensitive to any single-byte mutation — enough to model
   an end-to-end integrity check on stored images (storage verifies it on
   every read and falls back to a replica on mismatch).  The base_key of a
   delta participates so a damaged chain link cannot go unnoticed. *)
let checksum (t : t) =
  let mix = Compress.fnv_mix and fold = Compress.fnv_fold in
  let h = fold (fold Compress.fnv_basis t.encoded) t.name in
  let h = match t.base_key with None -> h | Some k -> fold (mix h 0x01) k in
  let h = mix h (t.pod_id land 0xff) in
  let h = mix h (t.logical_size land 0xff) in
  mix h ((t.logical_size lsr 8) land 0xff)

let pp ppf t =
  Format.fprintf ppf "image(%s#%d, %d bytes logical, %d encoded%s)" t.name t.pod_id
    t.logical_size (String.length t.encoded)
    (match t.base_key with None -> "" | Some k -> ", delta of " ^ k)

(* Compression stage of the image pipeline (modelled).

   DMTCP gzips checkpoint images by default because image bytes dominate
   checkpoint cost; this module brings the same stage to the simulated
   pipeline as a *cost model*: the stored/flushed byte count shrinks by a
   deterministic per-image ratio while the compressor charges virtual CPU
   time (Params.compress_bps) to the checkpoint.  The bytes that must stay
   byte-identical for restart (the Wire encoding) are never transformed —
   only the accounting changes, matching how the simulation models
   address-space pages as region descriptors rather than real contents.

   The ratio is drawn from two deterministic sources:
   - the encoded (structured-state) bytes compress according to a byte-
     histogram entropy estimate of the actual Wire string;
   - each modelled memory region compresses according to an *entropy tag*
     derived from its name (FNV-1a folded into [0.15, 0.90)), so a given
     region compresses identically on every rank, node and epoch — some
     regions are gzip-friendly zero-ish arrays, others are incompressible
     random fill, and the bench can show where compression wins and loses. *)

module Value = Zapc_codec.Value

(* FNV-1a, 62-bit ([land max_int] keeps the state a positive OCaml int):
   one mix step and one string fold, shared by the entropy tags, the
   content-addressed chunker, the region-chunk addresses and the image
   checksum. *)
let fnv_basis = 0xcb29ce484222325

let fnv_mix h byte = (h lxor byte) * 0x100000001b3 land max_int

let fnv_fold h (s : string) =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

let fnv s = fnv_fold fnv_basis s

(* Deterministic per-region compressibility: the fraction of the region's
   bytes that survive compression, in [0.15, 0.90). *)
let entropy_of_tag name =
  0.15 +. (float_of_int (fnv name land 0xffff) /. 65536.0 *. 0.75)

(* Crude Shannon-entropy estimate of a string (bits per byte / 8), clamped
   to [0.12, 0.98]: the modelled compressed fraction of the structured
   state.  Deterministic and content-derived. *)
let encoded_ratio (s : string) =
  let n = String.length s in
  if n = 0 then 1.0
  else begin
    let counts = Array.make 256 0 in
    for i = 0 to n - 1 do
      let c = Char.code (String.unsafe_get s i) in
      Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
    done;
    let total = float_of_int n in
    let bits =
      Array.fold_left
        (fun acc c ->
          if c = 0 then acc
          else
            let p = float_of_int c /. total in
            acc -. (p *. (Float.log p /. Float.log 2.0)))
        0.0 counts
    in
    Float.min 0.98 (Float.max 0.12 (bits /. 8.0))
  end

(* (name, size, generation) list out of one process's "mem" field (both the
   tagged [size; gen] shape and the legacy bare-size shape). *)
let regions_of_mem (mem : Value.t) =
  List.map
    (fun (name, rv) ->
      match rv with
      | Value.List [ s; g ] -> (name, Value.to_int s, Value.to_int g)
      | _ -> (name, Value.to_int rv, 1))
    (Value.to_assoc mem)

let regions_of_procs (procs : Value.t) =
  List.concat_map
    (fun p ->
      match Value.field_opt "mem" p with
      | Some mem -> regions_of_mem mem
      | None -> [])
    (Value.to_list (fun v -> v) procs)

(* All modelled memory regions of a full or delta pod image, in document
   order (a full image lists every live region; a delta only the regions of
   processes that changed). *)
let regions_of_image (v : Value.t) =
  let procs_of b name =
    match Value.field_opt name b with
    | Some procs -> regions_of_procs procs
    | None -> []
  in
  if Delta.is_delta v then
    let b = match v with Value.Tag (_, b) -> b | _ -> v in
    procs_of b "procs_changed"
  else procs_of v "procs"

(* Compressed size of [bytes] of address space described by [regions]:
   each region's share shrinks by its entropy tag; a byte count beyond the
   described regions (or an empty description) compresses at a neutral
   0.6. *)
let region_weighted ~bytes regions =
  let described = List.fold_left (fun a (_, s, _) -> a + s) 0 regions in
  if bytes <= 0 then 0
  else if described <= 0 then int_of_float (float_of_int bytes *. 0.6)
  else begin
    let scale = Float.min 1.0 (float_of_int bytes /. float_of_int described) in
    let out =
      List.fold_left
        (fun acc (name, size, _) ->
          acc +. (float_of_int size *. scale *. entropy_of_tag name))
        0.0 regions
    in
    let out =
      if described < bytes then
        out +. (float_of_int (bytes - described) *. 0.6)
      else out
    in
    int_of_float out
  end

(* Modelled compressed size of a full or delta pod image: the Wire bytes at
   their measured entropy plus the charged address-space bytes at their
   region-tag entropy.  Always <= the logical size and deterministic for a
   given image. *)
let modelled_size ~(encoded : string) ~mem_bytes regions =
  let enc_out =
    int_of_float (float_of_int (String.length encoded) *. encoded_ratio encoded)
  in
  Stdlib.max 1 (enc_out + region_weighted ~bytes:mem_bytes regions)

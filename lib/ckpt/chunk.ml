(* Content-addressed chunking of checkpoint images.

   Storage dedup splits an image into fixed-size chunks addressed by an
   FNV-1a hash of their content and stores each distinct chunk once,
   refcounted.  Two kinds of chunk exist, mirroring the two halves of
   [Image.logical_size]:

   - *encoded* chunks carry real bytes: [split] cuts the Wire encoding into
     [chunk_bytes]-sized pieces hashed by content, and [reassemble] glues
     them back byte-identically (qcheck-verified).  Identical encoded spans
     across epochs and replicas collapse to one stored copy.

   - *region* chunks are virtual: the simulation models address-space pages
     as (name, size, write-generation) descriptors, so a region chunk's
     address is derived from that tag plus the chunk index.  No pod identity
     enters the address — sibling ranks of an SPMD app (16 BT ranks) declare
     the same regions with the same mutation history, so their text/data
     chunks share addresses and the fleet stores them once. *)

let chunk_bytes = 4096
let region_chunk_bytes = 65536

let hash = Compress.fnv

(* Cut [s] into <= [chunk_bytes] pieces, each addressed by its content hash.
   The last chunk may be short; an empty string yields no chunks. *)
let split (s : string) : (int * string) list =
  let n = String.length s in
  let rec go off acc =
    if off >= n then List.rev acc
    else
      let len = min chunk_bytes (n - off) in
      let piece = String.sub s off len in
      go (off + len) ((hash piece, piece) :: acc)
  in
  go 0 []

let reassemble (chunks : (int * string) list) : string =
  String.concat "" (List.map snd chunks)

(* Fold the decimal digits of [n], as [string_of_int] prints them, into an
   FNV-1a state.  The digits come off the non-positive side, so [min_int]
   (whose negation overflows) prints exactly. *)
let mix_int h n =
  let rec digits h m =
    let h = if m <= -10 then digits h (m / 10) else h in
    Compress.fnv_mix h (Char.code '0' - (m mod 10))
  in
  if n < 0 then digits (Compress.fnv_mix h (Char.code '-')) n else digits h (-n)

(* Virtual chunks of one modelled region: (address, size) pairs covering
   [size] bytes in [region_chunk_bytes] steps.  The address hashes the
   region tag (name, generation), the chunk index and the chunk size —
   deterministic, pod-agnostic, and distinct across generations so a
   mutated region re-uploads while an untouched one fully dedupes.  It is
   [hash (Printf.sprintf "R\x00%s\x00%d\x00%d\x00%d" name gen idx csize)],
   computed by continuing one hash over the constant tag prefix instead of
   printing a string per chunk. *)
let region_chunks ~(name : string) ~(size : int) ~(gen : int) :
    (int * int) list =
  let mix = Compress.fnv_mix in
  let tag =
    let h = Compress.fnv_fold (mix (mix Compress.fnv_basis (Char.code 'R')) 0) name in
    mix (mix_int (mix h 0) gen) 0
  in
  let rec go off idx acc =
    if off >= size then List.rev acc
    else
      let csize = min region_chunk_bytes (size - off) in
      let addr = mix_int (mix (mix_int tag idx) 0) csize in
      go (off + csize) (idx + 1) ((addr, csize) :: acc)
  in
  if size <= 0 then [] else go 0 0 []

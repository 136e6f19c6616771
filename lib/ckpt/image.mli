(** Serialized checkpoint images.

    An image is the Wire encoding of a pod-image Value plus a logical-size
    header.  [logical_size] is what a real checkpointer would have written:
    the structured state plus the modelled address-space bytes (the
    simulation stores memory as region descriptors — see DESIGN.md).

    A {e delta} image ({!Delta}) records its base's storage key in
    [base_key] and charges only the dirty region bytes to [logical_size]. *)

module Value = Zapc_codec.Value

type t = {
  pod_id : int;
  name : string;
  encoded : string;  (** Wire-encoded pod image (full or delta) *)
  logical_size : int;
  regions : (string * int * int) list;
      (** modelled memory region tags (name, size, generation) — the
          content addresses the dedup backend chunks virtual memory by *)
  base_key : string option;  (** [Some key] iff this is a delta image *)
}

val of_pod_image : Value.t -> t
val to_pod_image : t -> Value.t

val comp_size : t -> int
(** Modelled compressed size ({!Compress.modelled_size}); what a
    compressing storage backend accounts and flushes for this image.
    Computed on each call: only a compressing backend needs it. *)

val checksum : t -> int
(** Deterministic content checksum (FNV-1a over the encoded bytes and the
    identifying fields, including [base_key]).  Storage computes it at
    [put] and verifies it at [get] — per chain link for deltas — to detect
    corrupted replicas. *)

val pp : Format.formatter -> t -> unit

(** Delta (incremental) pod images.

    A delta carries the pod header, the always-small sections (sockets,
    meta, pipes, GM ports), the processes whose structured state changed
    since the base (diffed by Value equality, keyed by vpid) and the new
    image's vpid order, plus a [base_key] back-reference to the stored base
    image.  Its modelled address-space payload is only the dirty region
    bytes reported by {!Zapc_simos.Memory}.

    {!apply} reconstructs a pod image {e Value-identical} (hence
    Wire-byte-identical) to the full checkpoint taken at the same instant;
    storage uses it to materialize delta chains transparently. *)

module Value = Zapc_codec.Value

val is_delta : Value.t -> bool

val make :
  base_key:string -> base:Value.t -> full:Value.t -> dirty_bytes:int -> Value.t
(** Diff [full] against [base] (both full pod-image values). *)

val apply : base:Value.t -> Value.t -> Value.t
(** [apply ~base delta] rebuilds the full pod image.
    @raise Zapc_codec.Value.Decode if [delta] is malformed or references a
    vpid found in neither the base nor the delta. *)

val base_key : Value.t -> string
val dirty_bytes : Value.t -> int
val pod_id : Value.t -> int
val name : Value.t -> string

(** Binary serialization of {!Value.t}.

    Self-describing, length-safe format: each node is a one-byte tag followed
    by its payload; variable-length integers use LEB128.  Streams start with a
    4-byte magic and a format version so that images written by one "kernel"
    can be validated by another (the paper's portability requirement). *)

val encode : Value.t -> string
(** Serialize with magic + version header, written in place into a string
    of exactly the encoded size. *)

val decode : string -> Value.t
(** @raise Value.Decode_error on corrupt input, bad magic, or version
    mismatch. *)

val encode_raw : Buffer.t -> Value.t -> unit
(** Headerless encode, appended to [buf] (used for nested streams). *)

val decode_raw : string -> int -> Value.t * int
(** [decode_raw s off] decodes one headerless value at [off]; returns the
    value and the offset just past it. *)

val encoded_size : Value.t -> int
(** Exact encoded size in bytes (without header), added up node by node
    without encoding. *)

(** Portable intermediate representation for checkpoint data.

    The paper stresses that pod checkpoints record "higher-level semantic
    information specified in an intermediate format rather than kernel
    specific data in native format to keep the format portable across
    different kernels".  [Value.t] is that format: a small self-describing
    algebraic value.  Everything that goes into a checkpoint image — process
    state, socket state, queue contents, namespace tables — is first lowered
    to a [Value.t] and only then serialized by {!Wire}.

    A [Value.t] is never mutated after it is built, [F64s] arrays included:
    storage shares one decoded image among all its readers, so a program
    restored from a value copies any array it goes on to change. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | F64s of float array  (** compact numeric payloads (grids, matrices) *)
  | List of t list
  | Assoc of (string * t) list  (** record-like, order-preserving *)
  | Tag of string * t  (** variant-like constructor wrapper *)

exception Decode_error of string

val decode_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Decode_error} with a formatted message. *)

(** {1 Constructors} *)

val unit : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val str : string -> t
val f64s : float array -> t
val list : ('a -> t) -> 'a list -> t
val assoc : (string * t) list -> t
val tag : string -> t -> t
val option : ('a -> t) -> 'a option -> t
val pair : ('a -> t) -> ('b -> t) -> 'a * 'b -> t

(** {1 Accessors}

    All raise {!Decode_error} on shape mismatch. *)

val to_bool : t -> bool
val to_int : t -> int
val to_float : t -> float
val to_str : t -> string
val to_f64s : t -> float array
val to_list : (t -> 'a) -> t -> 'a list
val to_assoc : t -> (string * t) list
val to_tag : t -> string * t
val to_option : (t -> 'a) -> t -> 'a option
val to_pair : (t -> 'a) -> (t -> 'b) -> t -> 'a * 'b

val field : string -> t -> t
(** [field k v] looks up key [k] in an [Assoc]. *)

val field_opt : string -> t -> t option

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Minimal JSON reader used to validate our own exporters (the toolchain
    has no JSON dependency).  Strict enough for the @obs smoke check and
    unit tests: full value grammar, [\uXXXX] escapes decoded as raw
    code-point bytes, no trailing garbage accepted.  It also holds the one
    string escaper and number format the exporters ({!Metrics},
    {!Flight}, {!Chrome}) write with. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [parse s] is [Ok v] or [Error msg] with a byte offset in [msg]. *)
val parse : string -> (t, string) result

val parse_file : string -> (t, string) result

(** [member k v] is the value bound to [k] when [v] is an object. *)
val member : string -> t -> t option

val to_list : t -> t list option
val to_float : t -> float option
val to_string_opt : t -> string option

(** {1 Writing} *)

(** The body of a JSON string literal: quote, backslash and control
    characters escaped. *)
val escape : string -> string

(** A JSON number: integral values below 1e15 without a fraction, others
    as [%.6g]; nan and infinities (which JSON lacks) as [0]. *)
val number : float -> string

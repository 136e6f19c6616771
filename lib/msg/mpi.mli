(** An MPI-like message-passing library for simulated programs — the
    MPICH-2/PVM analogue the paper's workloads run on.

    Every operation is a {e resumable state machine}: the application embeds
    a {!pending} value in its (checkpointable) program state, issues the
    returned action, and feeds each syscall outcome back through {!step}
    until the operation completes.  Both {!comm} and {!pending} round-trip
    through Value, so a process can be checkpointed at any instant —
    including halfway through a collective — and restarted transparently.

    Wire format: framed messages (see {!Frame}) over one TCP connection per
    peer pair, established eagerly at init (rank r connects to all lower
    ranks and accepts from all higher ones; peers are identified by their
    virtual addresses, which the pod namespace keeps stable across
    migration).  Collectives use binomial trees. *)

module Value = Zapc_codec.Value
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall

val any_src : int
val any_tag : int

type comm = {
  rank : int;
  size : int;
  vips : int array;  (** rank -> virtual address *)
  port : int;
  mutable listen_fd : int;
  fds : int array;  (** rank -> connected fd, -1 if none *)
  rxbuf : string array;  (** per-peer partial frame bytes *)
  mutable inbox : (int * int * string) list;  (** (src, tag, payload) FIFO *)
}

val make : rank:int -> size:int -> vips:int array -> port:int -> comm

type pending
(** An operation in flight; serializable, part of the program state. *)

type result =
  | R_ok
  | R_msg of { src : int; tag : int; data : string }
  | R_floats of float array
  | R_gather of (int * string) list  (** at the root, ordered by rank *)
  | R_fail of string

(** {1 Operations}

    Each returns the pending machine plus the first action to issue. *)

val init : comm -> pending * Program.action
(** Establish the full connection mesh (listen, connect to lower ranks with
    refused-connection retry, accept from higher ranks). *)

val send : comm -> peer:int -> tag:int -> string -> pending * Program.action
val recv : comm -> src:int -> tag:int -> pending * Program.action
(** [src] may be {!any_src} and [tag] may be {!any_tag}. *)

val barrier : comm -> pending * Program.action
val reduce_sum : comm -> root:int -> float array -> pending * Program.action
(** No paper application reduces to one root; [test_msg] covers it. *)

val allreduce_sum : comm -> float array -> pending * Program.action

val bcast : comm -> root:int -> string -> pending * Program.action
(** The payload argument is meaningful at the root only; completes with
    [R_msg] carrying the broadcast data on every rank.  No paper
    application broadcasts; [test_msg] covers it. *)

val gather : comm -> root:int -> string -> pending * Program.action
(** Completes with [R_gather] at the root, [R_ok] elsewhere. *)

val scatter : comm -> root:int -> string list -> pending * Program.action
(** The root hands piece [i] to rank [i]; completes with [R_msg] carrying
    the local piece everywhere ([pieces] is meaningful at the root only).
    No paper application scatters; [test_msg] covers it. *)

val step :
  comm ->
  pending ->
  Syscall.outcome ->
  [ `Again of pending * Program.action | `Done of result ]

(** {1 Serialization} *)

val comm_to_value : comm -> Value.t
val comm_of_value : Value.t -> comm
val pending_to_value : pending -> Value.t
val pending_of_value : Value.t -> pending

(** {1 Argument plumbing for MPI-style programs} *)

val std_args :
  rank:int -> size:int -> vips:int array -> port:int -> app:Value.t -> Value.t

val parse_args : Value.t -> int * int * int array * int * Value.t
(** (rank, size, vips, port, app-specific). *)

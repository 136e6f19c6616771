(** Simulated programs: explicit, checkpointable transition systems.

    A program consumes the outcome of its previous action and produces the
    next one; its whole execution context — including the control point —
    lives in a state value that round-trips through {!Zapc_codec.Value}.
    This is what makes processes transparently checkpointable in the
    simulation: the kernel can save (program name, encoded state, pending
    syscall) at any instant, exactly as a kernel-level checkpointer saves
    the address space and task state, and programs never cooperate with the
    checkpointer.

    Programs are looked up by name in a global registry at spawn and restart
    time — the analogue of re-executing a binary from shared storage. *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime

type action =
  | Compute of Simtime.t  (** occupy a CPU for this much virtual time *)
  | Sys of Syscall.t
  | Exit of int

module type S = sig
  type state

  val name : string
  val start : Value.t -> state
  val step : state -> Syscall.outcome -> state * action
  val to_value : state -> Value.t
  (** The state's image.  It must share no mutable buffer with [state]:
      copy every array or [Bytes.t] that [step] updates in place.  The
      Agent keeps an image (the base of the next delta or pre-copy round)
      while the program runs on. *)

  val of_value : Value.t -> state
end

type instance

val register : ?id:'s Type.Id.t -> (module S with type state = 's) -> unit
(** [id], if given, names the program's state type, so that
    {!inspect} can hand the live state of its instances back typed.
    @raise Invalid_argument on duplicate names. *)

val register_if_absent : ?id:'s Type.Id.t -> (module S with type state = 's) -> unit
val lookup : string -> (module S) option

val spawn : string -> Value.t -> instance
(** Instantiate a registered program with arguments.
    @raise Invalid_argument if the program is unknown. *)

val restore : string -> Value.t -> instance
(** Re-instantiate from a checkpointed state value. *)

val step_instance : instance -> Syscall.outcome -> action
val snapshot : instance -> string * Value.t

val inspect : instance -> 'a Type.Id.t -> 'a option
(** [inspect inst id] is the instance's live state if its program
    registered [id] itself (another id of the same type does not
    match); [None] otherwise.  A
    read-only view for host-side harnesses: where {!snapshot} encodes the
    whole state, this costs nothing, so a predicate polled after every
    event can read one field.  Mutating the state would bypass the
    program's own discipline. *)

val name_of : instance -> string

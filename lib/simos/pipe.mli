(** Unidirectional in-kernel pipes: the interprocess-communication resource
    (besides sockets) that pod checkpoints must capture.  Reference counts
    track how many fd-table entries point at each end. *)

module Sockbuf = Zapc_simnet.Sockbuf
module Waitq = Zapc_simnet.Waitq

type t = {
  id : int;
  buf : Sockbuf.t;
  capacity : int;
  mutable rd_refs : int;
  mutable wr_refs : int;
  rd_waiters : Waitq.t;  (** woken on write and on the last writer's close *)
  wr_waiters : Waitq.t;  (** woken on read and on the last reader's close *)
}

val default_capacity : int
val create : id:int -> t
val space : t -> int

type rres = Pdata of string | Peof | Pblock

val read : t -> int -> rres

type wres = Pwrote of int | Pepipe | Pwblock

val write : t -> string -> wres
val after_read : t -> unit
val close_read : t -> unit
val close_write : t -> unit

(** {1 Wakeups}

    Each end has one {!Waitq.t}.  A waiter is queued at most once (a closure
    already queued is not added again), and a wake empties the queue and
    runs its waiters in first-registration order. *)

val wake_readers : t -> unit
val wake_writers : t -> unit
val wait_readable : t -> (unit -> unit) -> unit
val wait_writable : t -> (unit -> unit) -> unit

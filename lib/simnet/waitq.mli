(** A wait queue: the closures to run when a resource (a socket direction,
    a pipe end, a GM port) becomes ready.  Sockets, pipes and GM ports all
    queue their waiters here.

    A closure is queued at most once: {!add} of a closure already queued
    (physical equality) does nothing.  A blocked process registers its one
    waker ([Proc.t.waker]) every time it blocks, so a process stays on a
    queue at most once however often it re-blocks before the resource
    fires. *)

type t

val create : unit -> t

val add : t -> (unit -> unit) -> unit
(** Queue a closure unless the same closure is already queued. *)

val wake : t -> unit
(** Empty the queue, then run its closures in first-registration order.  A
    closure added while they run lands in the next batch. *)

val length : t -> int
(** Closures currently queued. *)

(** A wait queue: the closures to run when a resource (a socket direction,
    a pipe end, a GM port) becomes ready.  Sockets, pipes and GM ports all
    queue their waiters here.

    A closure is queued at most once: {!add} of a closure already queued
    (physical equality) does nothing.  A blocked process registers its one
    waker ([Proc.t.waker]) every time it blocks, so a process stays on a
    queue at most once however often it re-blocks before the resource
    fires.

    Every queue has a distinct positive id, and {!wake} passes it to each
    closure it runs.  A poller's waker records it, so the kernel knows
    which queues fired (and so lost the waker) since it last blocked. *)

type t

val create : unit -> t

val id : t -> int
(** Distinct among all queues created by the program, and [> 0]. *)

val no_id : int
(** Never a queue's id: what wakeups that come from no queue (a sleep's
    timer, a child's exit) pass to a waker. *)

val add : t -> (int -> unit) -> unit
(** Queue a closure unless the same closure is already queued. *)

val wake : t -> unit
(** Empty the queue, then run its closures in first-registration order,
    each given the queue's {!id}.  A closure added while they run lands in
    the next batch. *)

val length : t -> int
(** Closures currently queued. *)

val count : t -> (int -> unit) -> int
(** How many times this closure (physical equality) is queued: 0 or 1
    while {!add} deduplicates.  Exported for [test_apps], which checks that
    no process's waker sits twice on one queue. *)

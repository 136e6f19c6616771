(** A process's poll set: the cached half of [Syscall.Poll].

    It holds the process's last request list resolved against its fd
    table, and which of the wait queues a blocked poll registers on are
    {e armed}: they received the waker when a poll blocked, and have not
    fired since.  A poll re-checks only the {e candidates}:
    - the entries with a queue that is not armed: never armed (a new fd,
      a new want, a fresh set), or fired since the last block (a fire
      empties the queue, so the waker is no longer on it).  This covers
      the entries reported ready last time, whose queue fired to make
      them ready, until the next block re-arms it;
    - the entries that ask not to read ([want_read = false]) or name no
      open fd: the read queue is what carries a hangup, so without it a
      hangup could arrive unseen.

    {b Exactness.}  Every other entry was not ready when its queues were
    armed (the poll that blocked found nothing), and none of them fired
    since.  Whenever an fd goes from not ready to ready, the queue a poll
    registers on for it fires ([test_simos] "poll" checks this against
    {!scan} after every engine event), so such an entry is still not ready,
    and the result equals a scan of every entry, in request order, records
    included.

    A blocked poll re-queues the waker only on the queues that are not
    armed.  A queue loses the waker only by firing, and the waker sees
    every fire ({!note}), so the waker ends up on exactly the queues a
    re-registration on every entry would leave it on.

    The set is keyed on the physical request list, the fd table and its
    {!Fdtable.generation}; a different list or any fd table change rebuilds
    it.  A rebuild keeps a queue armed when the set it replaces had it
    armed for an entry asking for that queue's direction (a pipe end
    registers on its queue either way, so its arming alone says nothing),
    so a list that changes one request re-checks only that one.  A
    readiness change that no queue reports (a larger send buffer) drops
    every set on the node.  The set is derived state: pod
    images never carry it, and a restored process starts without one. *)

type t

val create : unit -> t

val poll : t -> Fdtable.t -> Syscall.poll_req list -> (int * Zapc_simnet.Socket.poll_events) list
(** The ready entries, in request order, with their event records (a name
    with no open fd reports [pollerr]): what {!scan} answers.  Rebuilds
    the set first unless it was built for this list and this table at its
    current generation. *)

val scan : Fdtable.t -> Syscall.poll_req list -> (int * Zapc_simnet.Socket.poll_events) list
(** What a poll without a set answers: every request checked, in order.
    Exported for [test_simos], which holds {!poll} to it. *)

val arm : t -> (int -> unit) -> unit
(** A poll just found nothing ready and blocks: queue the waker on every
    queue of the set that is not armed, and arm it. *)

val note : t -> int -> unit
(** The waker was run by the queue with this id ([Waitq.no_id] for a
    timer or a child's exit): that queue no longer holds it, so the
    entries registered on it are candidates until the next {!arm}. *)

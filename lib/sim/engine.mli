(** Discrete-event simulation engine.

    A single engine drives an entire simulated cluster: the virtual clock
    advances to the timestamp of each scheduled event in turn and the event's
    callback runs to completion (callbacks may schedule further events).
    Determinism: ties in timestamps fire in scheduling order.  The event
    queue is a calendar queue ({!Calq}). *)

type t

val create : ?seed:int -> unit -> t

val now : t -> Simtime.t
val rng : t -> Rng.t

val schedule : t -> ?label:string -> delay:Simtime.t -> (unit -> unit) -> unit
(** Run the callback [delay] after the current virtual time.  [label] is a
    cheap callsite tag for the profiler (e.g. ["net.deliver"]); it is
    ignored — not even captured — unless profiling is on. *)

val schedule_at : t -> ?label:string -> at:Simtime.t -> (unit -> unit) -> unit

val run : ?until:Simtime.t -> ?max_events:int -> t -> unit
(** Process events until the queue is empty, [until] is reached, or
    [max_events] have fired.  Raises [Stalled] never — an empty queue simply
    stops.  The clock never moves backward: running to an [until] that is
    already past is a no-op. *)

val pending : t -> int
(** Number of queued events. *)

val events_processed : t -> int

(** {1 Cancellable timers}

    A [timer] wraps a callback that is re-armed far more often than it
    fires (TCP retransmit on every ACK, heartbeat rescheduling).  However
    often it is re-armed, at most one trampoline sits in the event queue:
    arming later just moves the deadline (the queued trampoline lazily
    re-queues itself), and cancelling clears the deadline so the pending
    trampoline degenerates to a no-op instead of a dead closure per
    re-arm. *)

type timer

val timer : ?label:string -> (unit -> unit) -> timer
(** Create an inactive timer around [fn]; [label] tags its queue entries
    for the profiler. *)

val timer_arm_in : t -> timer -> delay:Simtime.t -> unit

val timer_cancel : timer -> unit
(** Deactivate; a queued trampoline, if any, becomes a no-op. *)

val timer_active : timer -> bool
(** Exported for [test_sim], which checks the arm, fire and cancel cycle. *)

(** {1 Profiler}

    Off by default; when enabled, each scheduled callback is wrapped at
    schedule time to count executions and accumulate host wall-clock time
    per label.  The run loop itself is untouched, so the default hot path pays
    nothing.  Event counts are deterministic for a seeded run; host times
    are wall-clock measurements and are not (keep them out of regression
    gates). *)

val set_profiling : t -> bool -> unit
(** Enabling keeps any counts accumulated so far; disabling drops them.
    Events already queued keep the instrumentation they were scheduled
    with. *)

val profiling : t -> bool

val profile : t -> (string * int * float) list
(** [(label, executed count, host seconds)] per label, sorted by count
    descending then label; [[]] when profiling is off.  Callbacks scheduled
    without a label accumulate under ["unlabeled"]. *)

exception Deadlock of string
(** Raised by [run_until_quiescent] helpers elsewhere when forward progress
    is required but the queue drained unexpectedly. *)

(** Simulated process (the kernel task structure).

    Scheduling invariant: a [Running] process always has exactly one pending
    engine event that will eventually release its CPU; [Ready] processes sit
    in the run queue ([in_runq] guards duplicates); a [Blocked] process has
    its single {!field-waker} queued at most once on each resource it waits
    for, and re-executes its pending system call on wakeup; [Stopped]
    remembers which of Running/Ready/Blocked to return to on SIGCONT (plus
    whether a wakeup fired while stopped); it stays [Running] only while the
    event that holds its CPU is still pending.  The checkpoint saves exactly the mutable fields below that
    cannot be reconstructed. *)

module Simtime = Zapc_sim.Simtime

type run_state = Ready | Running | Blocked | Stopped | Zombie

type t = {
  pid : int;
  mutable rstate : run_state;
  mutable inst : Program.instance;
  mutable pending_sys : Syscall.t option;  (** blocked syscall, virtual form *)
  mutable pending_compute : Simtime.t option;  (** remaining compute time *)
  mutable next_outcome : Syscall.outcome;  (** fed to the next step call *)
  mutable block_deadline : Simtime.t option;  (** absolute sleep/poll deadline *)
  mutable fds : Fdtable.t;
  mutable mem : Memory.t;
  mutable alarm_deadline : Simtime.t option;  (** app-level timeout mechanism *)
  mutable cpu_time : Simtime.t;
  mutable exit_code : int option;
  mutable exit_time : Simtime.t option;
  mutable stopped_from : run_state;
  mutable retry_after_cont : bool;
  mutable in_runq : bool;
  mutable pod : int option;  (** pod membership tag *)
  mutable filter : filter option;  (** pod syscall interposition *)
  mutable exit_watchers : (int -> unit) list;
  mutable waker : int -> unit;
      (** the process's one wakeup closure, set once by
          [Kernel.create_proc]: every blocking system call queues this same
          closure, so a wait queue holds it at most once.  Its argument is
          the id of the queue that ran it ([Waitq.no_id] from a timer or a
          child's exit), which it records in {!field-pollset}. *)
  mutable pollset : Pollset.t option;
      (** the cache behind [Syscall.Poll], made at the process's first
          poll and dropped when it exits: derived from the fd table and the
          wakeups, never imaged (a restored process starts without one) *)
}

(** System-call interposition — the pod virtualization hook: [f_pre]
    rewrites a call before the kernel executes it (virtual -> real
    identifiers), [f_post] rewrites the outcome (real -> virtual), and
    [f_spawn_child] lets the pod adopt children created inside it. *)
and filter = {
  f_pre : t -> Syscall.t -> Syscall.t;
  f_post : t -> Syscall.t -> Syscall.outcome -> Syscall.outcome;
  f_spawn_child : t -> t -> unit;
}

val create : pid:int -> Program.instance -> t

val is_alive : t -> bool
val pp : Format.formatter -> t -> unit

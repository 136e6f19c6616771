(* Simulated process (the kernel task structure).

   Scheduling invariant: a [Running] process always has exactly one pending
   engine event that will eventually release its CPU; [Ready] processes sit
   in the run queue ([in_runq] guards duplicates); a [Blocked] process has
   its single [waker] queued at most once on each resource it waits for;
   [Stopped] remembers which of Running/Ready/Blocked to return to on SIGCONT
   (plus whether a wakeup fired while stopped); it stays "Running" only
   while the event that holds its CPU is still pending. *)

module Simtime = Zapc_sim.Simtime

type run_state = Ready | Running | Blocked | Stopped | Zombie

let run_state_to_string = function
  | Ready -> "ready"
  | Running -> "running"
  | Blocked -> "blocked"
  | Stopped -> "stopped"
  | Zombie -> "zombie"

type t = {
  pid : int;
  mutable rstate : run_state;
  mutable inst : Program.instance;
  mutable pending_sys : Syscall.t option;     (* blocked syscall, virtual form *)
  mutable pending_compute : Simtime.t option; (* remaining compute time *)
  mutable next_outcome : Syscall.outcome;     (* fed to the next step call *)
  mutable block_deadline : Simtime.t option;  (* absolute; sleep/poll timeout *)
  mutable fds : Fdtable.t;
  mutable mem : Memory.t;
  mutable alarm_deadline : Simtime.t option;  (* application timeout mechanism *)
  mutable cpu_time : Simtime.t;
  mutable exit_code : int option;
  mutable exit_time : Simtime.t option;
  mutable stopped_from : run_state;
  mutable retry_after_cont : bool;
  mutable in_runq : bool;
  mutable pod : int option;                   (* pod membership tag *)
  mutable filter : filter option;             (* pod syscall interposition *)
  mutable exit_watchers : (int -> unit) list;
  mutable waker : int -> unit;                (* the one closure it blocks with *)
  mutable pollset : Pollset.t option;         (* from its first poll; never imaged *)
}

(* System-call interposition, the pod virtualization hook: [f_pre] rewrites a
   syscall before the kernel executes it (virtual -> real identifiers),
   [f_post] rewrites the outcome (real -> virtual), and [f_spawn_child] lets
   the pod adopt children created inside it. *)
and filter = {
  f_pre : t -> Syscall.t -> Syscall.t;
  f_post : t -> Syscall.t -> Syscall.outcome -> Syscall.outcome;
  f_spawn_child : t -> t -> unit;
}

let create ~pid inst =
  {
    pid;
    rstate = Ready;
    inst;
    pending_sys = None;
    pending_compute = None;
    next_outcome = Syscall.Started;
    block_deadline = None;
    fds = Fdtable.create ();
    mem = Memory.create ();
    alarm_deadline = None;
    cpu_time = Simtime.zero;
    exit_code = None;
    exit_time = None;
    stopped_from = Ready;
    retry_after_cont = false;
    in_runq = false;
    pod = None;
    filter = None;
    exit_watchers = [];
    waker = ignore;
    pollset = None;
  }

let is_alive p = match p.rstate with Zombie -> false | _ -> true

let pp ppf p =
  Format.fprintf ppf "pid=%d %s prog=%s" p.pid (run_state_to_string p.rstate)
    (Program.name_of p.inst)

(** The per-node simulated kernel: process table, multi-CPU round-robin
    scheduler, signal delivery, and the system-call executor bridging
    programs to the network stack, pipes, timers and memory accounting.

    Scheduling invariant: a [Running] process always has exactly one pending
    engine event that will release its CPU; a [Blocked] process has its one
    waker ([Proc.t.waker], made by {!create_proc}) queued at most once on
    each resource it waits for, and its pending system call is re-executed
    on wakeup (restartable-syscall semantics — also how restored processes
    resume after a restart). *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Errno = Zapc_simnet.Errno
module Fabric = Zapc_simnet.Fabric
module Netstack = Zapc_simnet.Netstack
module Socket = Zapc_simnet.Socket

type t = {
  node_id : int;
  hostname : string;
  engine : Engine.t;
  net : Netstack.t;
  config : Kconfig.t;
  procs : (int, Proc.t) Hashtbl.t;
  runq : Proc.t Queue.t;
  mutable idle_cpus : int;
  cpus : int;
  mutable next_pid : int;
  mutable next_pipe_id : int;
  sock_refs : (int, int) Hashtbl.t;  (** socket id -> fd reference count *)
  rng : Zapc_sim.Rng.t;
  gm : Zapc_simnet.Gmdev.t;  (** kernel-bypass messaging device *)
  mutable fs : Simfs.t;  (** shared across nodes (SAN-backed); see Cluster *)
  mutable on_log : t -> Proc.t -> string -> unit;
  mutable exited : int;
}

val create :
  ?config:Kconfig.t -> ?cpus:int -> ?hostname:string -> node_id:int -> Fabric.t -> t

val engine : t -> Engine.t
val netstack : t -> Netstack.t
val now : t -> Simtime.t
val find_proc : t -> int -> Proc.t option
val processes : t -> Proc.t list
val alive_count : t -> int
val remove_proc : t -> int -> unit

val crash : t -> unit
(** Failure injection: node power loss.  Every live process terminates as
    if SIGKILLed (exit code 137); no cleanup code runs. *)

val set_logger : t -> (t -> Proc.t -> string -> unit) -> unit
(** Receives every Log system call. *)

val set_fs : t -> Simfs.t -> unit
(** Mount a (cluster-shared) file system; fresh kernels start with a
    private one. *)

val fs : t -> Simfs.t
val gm : t -> Zapc_simnet.Gmdev.t

val alloc_pipe_id : t -> int
(** Draw a fresh node-unique pipe id (the counter behind [Syscall.Pipe]);
    restore paths must use this instead of inventing ids so restored pipes
    never collide with live ones. *)

(** {1 Socket fd reference counting}

    Sockets are shared between fd tables (spawn inherits descriptors); the
    kernel closes the socket when the last reference drops.  Restore code
    that installs descriptors directly must take references too. *)

val ref_socket : t -> Socket.t -> unit
val unref_socket : t -> Socket.t -> unit

(** {1 Processes} *)

val create_proc : t -> Program.instance -> Proc.t
(** Register a new process, with its waker, without scheduling it
    (restore path). *)

val enqueue : t -> Proc.t -> unit
(** Make a [Ready] process runnable. *)

val spawn : t -> program:string -> args:Zapc_codec.Value.t -> Proc.t
(** Instantiate a registered program and schedule it.
    @raise Invalid_argument if the program is unknown. *)

val signal_proc : t -> Proc.t -> Signal.t -> unit
val signal : t -> int -> Signal.t -> (unit, Errno.t) result
val terminate : t -> Proc.t -> int -> unit

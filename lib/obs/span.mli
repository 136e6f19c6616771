(** Typed span/instant recorder: the one trace recorder of the system.

    A span is a named interval keyed by (operation id, pod, node), with an
    optional causal parent (another span's id — possibly recorded on a
    different node; ids are unique per recorder, and one recorder is shared
    cluster-wide, so parent links resolve across nodes).  An instant is a
    point event (a protocol phase boundary).  Spans are opened with
    {!begin_span} and closed either through the returned handle
    ({!end_span}) or by name ({!end_named}), which closes the most recently
    opened still-open span with that name and pod.  The open-span set is a
    hashtable keyed by span id, so closing is O(1) on the handle path and
    O(open) only for the by-name search.

    Every open, close and instant is delivered, as it is recorded, to each
    {!subscribe}d callback in subscription order (the flight recorder, the
    fault injector's phase triggers, tests).  A recorder can be switched
    off: an off recorder records nothing, notifies no one, and hands out
    span id [-1].  Recording is append-only and deterministic: two runs
    with the same seed produce identical span lists. *)

type span = {
  sp_id : int;            (** unique per recorder, allocation order *)
  sp_name : string;       (** e.g. ["standalone"], ["mgr_sync"] *)
  sp_op : int;            (** operation id (manager generation), 0 if n/a *)
  sp_pod : int;           (** pod id, [-1] for manager/cluster scope *)
  sp_node : int;          (** node id, [-1] for manager/cluster scope *)
  sp_parent : int option; (** causal parent span id, [None] for roots *)
  sp_begin : Zapc_sim.Simtime.t;
  mutable sp_end : Zapc_sim.Simtime.t option;  (** [None] while open *)
}

type instant = {
  in_time : Zapc_sim.Simtime.t;
  in_pod : int;
  in_node : int;
  in_what : string;
}

(** Subscriber payload: [Closed] fires with [sp_end] already set. *)
type event = Opened of span | Closed of span | Instant of instant

type t

val create : unit -> t
(** A fresh recorder, switched on. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Switch recording on or off.  Off, every call below that records is a
    no-op: {!begin_span} returns a span with id [-1] that {!end_span}
    ignores, and {!end_named} returns [false]. *)

(** Forget all spans and instants (open spans included).  Subscriptions
    survive. *)
val clear : t -> unit

val subscribe : t -> (event -> unit) -> unit
(** Call [fn] synchronously on every open, close (including the closes of
    {!end_all_for_pod}) and instant, after it is recorded.  Subscribers
    fire in subscription order. *)

val unsubscribe_all : t -> unit
(** Drop every subscription (a harness that reuses nothing between runs
    keeps stale callbacks from firing into dead state).  Exported for
    [chaos], [golden] and [test_obs], which reuse recorders across runs. *)

val begin_span :
  t -> time:Zapc_sim.Simtime.t -> ?op:int -> ?node:int -> ?parent:int ->
  pod:int -> string -> span
(** Open a span.  Its [sp_id] is the handle to pass as a child's
    [?parent]; [-1] when the recorder is off. *)

(** Close [span] at [time]; no-op if already closed. *)
val end_span : t -> time:Zapc_sim.Simtime.t -> span -> unit

(** [end_named t ~time ~pod name] closes the most recently opened still-open
    span matching [name] and [pod]; returns [false] when none is open. *)
val end_named : t -> time:Zapc_sim.Simtime.t -> pod:int -> string -> bool

(** Close every open span belonging to [pod] (abort paths), oldest first. *)
val end_all_for_pod : t -> time:Zapc_sim.Simtime.t -> pod:int -> unit

val instant :
  t -> time:Zapc_sim.Simtime.t -> ?node:int -> pod:int -> string -> unit

(** Chronological (begin-time, then id) order. *)
val spans : t -> span list

(** Chronological order. *)
val instants : t -> instant list

(** Still-open spans, ascending id (= opening order).  Exported for
    [test_obs], which checks what [end_all_for_pod] leaves open. *)
val open_spans : t -> span list

val open_count : t -> int

val find_span : t -> int -> span option
(** Lookup by id over all recorded spans (O(spans)).  Exported for
    [test_obs], which follows parent links. *)

(** Latest timestamp seen by any begin/end/instant, [Simtime.zero] when
    empty.  Exporters use it to close unfinished spans. *)
val last_time : t -> Zapc_sim.Simtime.t

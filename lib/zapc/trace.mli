(** Protocol tracing: the cluster's {!Zapc_obs.Span} recorder, and the
    paper's Figure-2 timeline rendered from its phase instants — in
    particular that the standalone checkpoint overlaps the Manager
    synchronization and that resume gates on both conditions.

    Phase boundaries are {!Zapc_obs.Span.instant}s, phases are typed spans
    keyed by (operation id, pod, node); consumers read them with
    {!Zapc_obs.Span.instants}/{!Zapc_obs.Span.spans} or
    {!Zapc_obs.Span.subscribe} to the stream. *)

type t = Zapc_obs.Span.t

val create : unit -> t
(** A fresh recorder, switched on (one not attached to any cluster). *)

val recorder : t -> Zapc_obs.Span.t
(** The recorder itself. *)

val parent_arg : int -> int option
(** [Some id] when [id >= 0], else [None] — normalizes a span id carried
    as an int (an off recorder's [-1]) into a
    [?parent] argument. *)

val dump_chrome : t -> string -> unit
(** Write the span stream as Chrome [trace_event] JSON
    (see {!Zapc_obs.Chrome}). *)

val render_checkpoint : t -> string
(** One line per pod with phase offsets (ms) from the Manager broadcast. *)

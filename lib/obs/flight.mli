(** Flight recorder: bounded per-node rings of recent spans, instants and
    metric deltas, dumped as a deterministic JSON artifact when an
    operation aborts, a chaos fault fires, or the supervisor declares a
    node dead — a post-mortem without re-running under full tracing.

    Entries carry only scalars (no span handles), so {!Span} can feed the
    recorder without a dependency cycle, and every field serializes
    exactly: times are integer nanoseconds ([Simtime.t = int]). *)

type entry =
  | Span_open of {
      f_time : Zapc_sim.Simtime.t;
      f_id : int;
      f_name : string;
      f_op : int;
      f_pod : int;
      f_parent : int option;
    }
  | Span_close of { f_time : Zapc_sim.Simtime.t; f_id : int }
  | Instant of { f_time : Zapc_sim.Simtime.t; f_pod : int; f_what : string }
  | Metric of { f_time : Zapc_sim.Simtime.t; f_name : string; f_value : float }

type t

val create : ?cap:int -> unit -> t
(** [cap] (default 64, clamped to >= 1) entries are retained per node;
    older entries are overwritten. *)

val capacity : t -> int

val record : t -> node:int -> entry -> unit
(** Append to the node's ring ([-1] = manager/cluster scope). *)

val entries : t -> node:int -> entry list
(** The node's retained entries, oldest first. *)

val nodes : t -> int list
(** Nodes with at least one retained entry, ascending ([-1] included). *)

val set_dump_dir : t -> string option -> unit
(** Where {!trip} writes [FLIGHT_<seq>_<reason>.json]; [None] (the
    default) keeps dumps in memory only ({!last_dump}). *)

val trip : t -> time:Zapc_sim.Simtime.t -> reason:string -> unit
(** Snapshot every ring into a JSON artifact: stored as {!last_dump},
    written to the dump directory when one is set, and counted in
    {!trips}.  The rings keep recording afterwards. *)

val trips : t -> int
val last_dump : t -> string option

val to_string : t -> time:Zapc_sim.Simtime.t -> reason:string -> string
(** The dump JSON without tripping:
    [{"reason","time","seq","nodes":[{"node","entries":[...]}]}]. *)

val entries_of_json : Json.t -> (int * entry) list option
(** Decode a parsed dump back into [(node, entry)] pairs in dump order;
    [None] on any malformed entry.  Exported for [test_obs] and [chaos],
    which assert the dump round-trips. *)

val clear : t -> unit

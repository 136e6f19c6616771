(** Always-on metrics registry: named counters, gauges and fixed-bucket
    histograms.  A registry is cheap enough to leave enabled in every
    simulation run — counters are a hashtable lookup plus an integer add,
    histograms a binary-search into a small bucket array.

    Naming convention (see doc/OBSERVABILITY.md): dotted lower-case paths,
    subsystem first — ["mgr.ckpt.ok"], ["sup.mttr_ms"],
    ["storage.replica_fallbacks"], ["net.tcp.retransmits"].  Histogram names
    carry their unit as a suffix (["_ms"], ["_bytes"]). *)

type t

val create : unit -> t

(** Drop every registered instrument (the {!set_on_record} observer is
    kept). *)
val clear : t -> unit

val set_on_record : t -> (string -> float -> unit) option -> unit
(** At most one observer, fired on every counter {!add}/{!incr} (with the
    delta) and every histogram {!observe} (with the sample) — the flight
    recorder's metric-delta feed.  Gauge writes are not observed. *)

(** {1 Counters} — monotonically increasing integers. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit

(** [counter t name] is the current value, or [0] when [name] was never
    incremented. *)
val counter : t -> string -> int

(** [names t] is every registered instrument name — counters, gauges and
    histograms — sorted and without duplicates. *)
val names : t -> string list

(** {1 Gauges} — last-write-wins floats, or callback-backed values sampled
    at read/snapshot time (prometheus collect style). *)

val set_gauge : t -> string -> float -> unit

(** [gauge_fn t name f] registers [f] to be evaluated whenever the gauge is
    read or the registry is snapshotted. *)
val gauge_fn : t -> string -> (unit -> float) -> unit

(** [gauge t name] evaluates the gauge, [0.] when absent. *)
val gauge : t -> string -> float

(** {1 Histograms} — fixed ascending bucket upper bounds plus an implicit
    +inf overflow bucket.  Tracks count/sum/min/max exactly; quantiles are
    estimated by linear interpolation inside the owning bucket and clamped
    to the observed [min..max]. *)

(** Byte-size-oriented bounds: 1 KiB .. 4 GiB, factor-4 geometric. *)
val default_bytes_buckets : float array

(** [exp_buckets ~start ~factor ~n] builds [n] geometric bounds
    [start, start*factor, ...].  Raises [Invalid_argument] unless
    [start > 0.], [factor > 1.] and [n >= 1].  No caller needs custom
    bounds yet; [test_obs] checks the constructor. *)
val exp_buckets : start:float -> factor:float -> n:int -> float array

(** [observe t ?buckets name v] records [v] into histogram [name], creating
    it with [buckets] (default: latency bounds of 0.1 .. 10_000 ms) on first
    use. *)
val observe : t -> ?buckets:float array -> string -> float -> unit

val hist_count : t -> string -> int
val hist_sum : t -> string -> float

(** Interpolated quantiles; [0.] for an absent or empty histogram. *)
val p50 : t -> string -> float
val p90 : t -> string -> float
val p99 : t -> string -> float

(** {1 Snapshot} *)

(** Flat JSON object, instrument names sorted, of the shape
    [{"counters":{..},"gauges":{..},"histograms":{"x":{"count":..,"sum":..,
    "min":..,"max":..,"p50":..,"p90":..,"p99":..,"buckets":[[ub,n],..]}}}].
    Deterministic for a deterministic run. *)
val to_json : t -> string

val dump : t -> string -> unit
(** [dump t path] writes [to_json t] to [path]. *)

(** Critical-path analysis: from the closed spans of one finished operation
    and its window [t0, t1], report which phase dominates the end-to-end
    latency.

    The walk runs backwards from [t1]; at every point the innermost span
    covering it (latest begin) is charged, so leaf phases ([Suspend],
    [Net_ckpt], [Standalone], [Storage_put], …) win over their containers;
    stretches covered by no candidate span are charged to ["other"].  The
    report names each phase by {!Phase.to_string}.
    Spans covering the whole window (the operation span itself) attribute
    nothing and are skipped.  Every charged nanosecond is charged exactly
    once: the phase durations sum to [cp_total]. *)

type report = {
  cp_total : Zapc_sim.Simtime.t;                  (** [t1 - t0] *)
  cp_phases : (string * Zapc_sim.Simtime.t) list; (** duration desc, then name *)
  cp_dominant : string;                           (** head phase, [""] if none *)
}

val analyze :
  spans:Span.span list ->
  t0:Zapc_sim.Simtime.t -> t1:Zapc_sim.Simtime.t -> report
(** Open spans in [spans] are ignored (the caller analyzes after the op
    closed everything). *)

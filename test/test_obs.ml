(* Unit tests of the observability layer: the metrics registry (counters,
   gauges, histogram quantiles, JSON snapshot), the span recorder, the
   Chrome trace_event exporter, the JSON reader used to validate the
   exporters, the Stats percentile/empty-render fixes, and the recorder's
   subscriber lifecycle. *)

module Simtime = Zapc_sim.Simtime
module Stats = Zapc_sim.Stats
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Chrome = Zapc_obs.Chrome
module Json = Zapc_obs.Json
module Flight = Zapc_obs.Flight
module Critpath = Zapc_obs.Critpath
module Phase = Zapc_obs.Phase

let str = Phase.to_string

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float 1e-6

let ok_json s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "JSON rejected: %s\n%s" e s

(* --- metrics --- *)

let test_counters () =
  let m = Metrics.create () in
  check tint "absent counter reads 0" 0 (Metrics.counter m "x");
  Metrics.incr m "x";
  Metrics.incr m "x";
  Metrics.add m "x" 40;
  check tint "incr/add accumulate" 42 (Metrics.counter m "x");
  Metrics.clear m;
  check tint "clear resets" 0 (Metrics.counter m "x")

let test_gauges () =
  let m = Metrics.create () in
  check tfloat "absent gauge reads 0" 0.0 (Metrics.gauge m "g");
  Metrics.set_gauge m "g" 1.5;
  Metrics.set_gauge m "g" 2.5;
  check tfloat "last write wins" 2.5 (Metrics.gauge m "g");
  let n = ref 0 in
  Metrics.gauge_fn m "f" (fun () -> Stdlib.incr n; float_of_int !n);
  check tfloat "callback sampled at read" 1.0 (Metrics.gauge m "f");
  check tfloat "resampled each read" 2.0 (Metrics.gauge m "f")

let test_histogram_quantiles () =
  let m = Metrics.create () in
  check tfloat "empty quantile is 0" 0.0 (Metrics.p50 m "h");
  for i = 1 to 100 do
    Metrics.observe m "h" (float_of_int i)
  done;
  check tint "count" 100 (Metrics.hist_count m "h");
  check tfloat "sum" 5050.0 (Metrics.hist_sum m "h");
  let p50 = Metrics.p50 m "h" and p99 = Metrics.p99 m "h" in
  check tbool "p50 in the middle" true (p50 >= 40.0 && p50 <= 60.0);
  check tbool "p99 near the top" true (p99 >= 90.0 && p99 <= 100.0);
  check tbool "quantiles ordered" true
    (p50 <= Metrics.p90 m "h" && Metrics.p90 m "h" <= p99);
  (* quantiles are clamped to the observed range even in the +inf bucket *)
  Metrics.observe m "o" 1e12;
  check tfloat "overflow clamps to max" 1e12 (Metrics.p99 m "o")

let test_exp_buckets () =
  let b = Metrics.exp_buckets ~start:1.0 ~factor:2.0 ~n:4 in
  check tbool "geometric" true (b = [| 1.0; 2.0; 4.0; 8.0 |]);
  check tbool "bad start rejected" true
    (try ignore (Metrics.exp_buckets ~start:0.0 ~factor:2.0 ~n:2); false
     with Invalid_argument _ -> true)

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr m "a.count";
  Metrics.set_gauge m "b.level" 3.25;
  Metrics.observe m "c_ms" 7.0;
  Metrics.observe m "c_ms" 9.0;
  let v = ok_json (Metrics.to_json m) in
  let num path1 path2 =
    Option.bind (Json.member path1 v) (fun o ->
        Option.bind (Json.member path2 o) Json.to_float)
  in
  check tbool "counter exported" true (num "counters" "a.count" = Some 1.0);
  check tbool "gauge exported" true (num "gauges" "b.level" = Some 3.25);
  (match Option.bind (Json.member "histograms" v) (Json.member "c_ms") with
   | Some h ->
     check tbool "hist count" true
       (Option.bind (Json.member "count" h) Json.to_float = Some 2.0);
     check tbool "hist sum" true
       (Option.bind (Json.member "sum" h) Json.to_float = Some 16.0)
   | None -> Alcotest.fail "histogram missing from snapshot");
  (* snapshot of a deterministic registry is itself deterministic *)
  check tbool "deterministic" true (String.equal (Metrics.to_json m) (Metrics.to_json m))

(* A membership probe is pure instrumentation-wise: [Storage.mem] used to be
   implemented as [get t key <> None], so every liveness poll inflated
   storage.gets/get_misses (and paid a full materialize+verify).  The whole
   registry snapshot must be byte-identical across any number of probes. *)
let test_storage_mem_metric_neutral () =
  let module Engine = Zapc_sim.Engine in
  let module Storage = Zapc.Storage in
  let module Value = Zapc_codec.Value in
  let engine = Engine.create ~seed:3 () in
  let m = Metrics.create () in
  let storage = Storage.create ~trace:(Zapc.Trace.create ()) ~metrics:m engine in
  let img =
    Zapc_ckpt.Image.of_pod_image
      (Value.assoc
         [ ("pod_id", Value.int 7); ("name", Value.str "probe");
           ("memory_bytes", Value.int 8192) ])
  in
  (match Storage.put storage "probe.k" img with
   | Ok () -> ()
   | Error e -> Alcotest.failf "put failed: %s" e);
  let before = Metrics.to_json m in
  for _ = 1 to 50 do
    check tbool "present key answers true" true (Storage.mem storage "probe.k");
    check tbool "absent key answers false" false (Storage.mem storage "nope")
  done;
  check Alcotest.string "registry untouched by mem probes" before
    (Metrics.to_json m);
  check tint "no reads counted" 0 (Metrics.counter m "storage.gets");
  check tint "no misses counted" 0 (Metrics.counter m "storage.get_misses");
  (* a real read still counts, proving the registry is live *)
  check tbool "get serves" true (Storage.get storage "probe.k" <> None);
  check tint "get counted" 1 (Metrics.counter m "storage.gets")

(* --- spans --- *)

let ms = Simtime.ms

let test_span_basic () =
  let r = Span.create () in
  let s = Span.begin_span r ~time:(ms 1) ~op:7 ~pod:3 Phase.Standalone in
  check tint "one open" 1 (List.length (Span.open_spans r));
  Span.end_span r ~time:(ms 5) s;
  Span.end_span r ~time:(ms 9) s;
  (match Span.spans r with
   | [ sp ] ->
     check tbool "close is idempotent" true (sp.Span.sp_end = Some (ms 5));
     check tint "op kept" 7 sp.Span.sp_op
   | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  check tint "none open" 0 (List.length (Span.open_spans r))

let test_span_end_named () =
  let r = Span.create () in
  let _outer = Span.begin_span r ~time:(ms 1) ~pod:1 Phase.Suspend in
  let _inner = Span.begin_span r ~time:(ms 2) ~pod:1 Phase.Suspend in
  let _other = Span.begin_span r ~time:(ms 3) ~pod:2 Phase.Suspend in
  check tbool "closes most recent of the pod" true
    (Span.end_named r ~time:(ms 4) ~pod:1 Phase.Suspend);
  (match Span.spans r with
   | [ a; b; c ] ->
     check tbool "outer still open" true (a.Span.sp_end = None);
     check tbool "inner closed" true (b.Span.sp_end = Some (ms 4));
     check tbool "other pod untouched" true (c.Span.sp_end = None)
   | _ -> Alcotest.fail "expected 3 spans");
  check tbool "no match returns false" false
    (Span.end_named r ~time:(ms 5) ~pod:9 Phase.Suspend);
  Span.end_all_for_pod r ~time:(ms 6) ~pod:1;
  check tint "only pod 2 left open" 1 (List.length (Span.open_spans r));
  check tbool "last_time tracks" true (Simtime.compare (Span.last_time r) (ms 6) = 0)

let test_span_chronological () =
  let r = Span.create () in
  let a = Span.begin_span r ~time:(ms 5) ~pod:1 Phase.Paused in
  let b = Span.begin_span r ~time:(ms 2) ~pod:1 Phase.Suspend in
  Span.end_span r ~time:(ms 6) a;
  Span.end_span r ~time:(ms 7) b;
  Span.instant r ~time:(ms 4) ~node:0 ~pod:1 Phase.Resumed;
  Span.instant r ~time:(ms 3) ~node:0 ~pod:1 Phase.Suspended;
  check tbool "spans sorted by begin time" true
    (List.map (fun s -> s.Span.sp_name) (Span.spans r) = Phase.[ Suspend; Paused ]);
  check tbool "instants sorted by time" true
    (List.map (fun i -> i.Span.in_what) (Span.instants r) = Phase.[ Suspended; Resumed ])

let test_span_parent_links () =
  let r = Span.create () in
  (* two subscribers, each logging (subscriber, event) into one shared log:
     every event must reach both, first subscriber first *)
  let log = ref [] in
  Span.subscribe r (fun e -> log := (1, e) :: !log);
  Span.subscribe r (fun e -> log := (2, e) :: !log);
  let root = Span.begin_span r ~time:(ms 1) ~pod:(-1) ~node:(-1) Phase.Ckpt_op in
  let child =
    Span.begin_span r ~time:(ms 2) ~parent:root.Span.sp_id ~pod:3 ~node:1
      Phase.Pod_ckpt
  in
  Span.instant r ~time:(ms 3) ~node:1 ~pod:3 Phase.Meta_sent;
  check tbool "root has no parent" true (root.Span.sp_parent = None);
  check tbool "child links its parent" true
    (child.Span.sp_parent = Some root.Span.sp_id);
  check tbool "ids are distinct" true (root.Span.sp_id <> child.Span.sp_id);
  check tbool "parent resolves" true
    (match Span.find_span r root.Span.sp_id with
     | Some sp -> sp.Span.sp_name = Phase.Ckpt_op
     | None -> false);
  Span.end_span r ~time:(ms 4) child;
  Span.end_span r ~time:(ms 5) root;
  let label = function
    | Span.Opened sp -> "open " ^ str sp.Span.sp_name
    | Span.Closed sp -> "close " ^ str sp.Span.sp_name
    | Span.Instant i -> "instant " ^ str i.Span.in_what
  in
  let recorded =
    List.map
      (fun (what, p) -> what ^ " " ^ str p)
      Phase.
        [ ("open", Ckpt_op); ("open", Pod_ckpt); ("instant", Meta_sent);
          ("close", Pod_ckpt); ("close", Ckpt_op) ]
  in
  check (Alcotest.list Alcotest.string) "both subscribers, recording order"
    (List.concat_map (fun l -> [ "1 " ^ l; "2 " ^ l ]) recorded)
    (List.rev_map (fun (n, e) -> string_of_int n ^ " " ^ label e) !log);
  check tbool "close carries the end time" true
    (List.for_all
       (function _, Span.Closed sp -> sp.Span.sp_end <> None | _ -> true)
       !log);
  Span.unsubscribe_all r;
  ignore (Span.begin_span r ~time:(ms 6) ~pod:0 Phase.Paused);
  check tint "subscribers detached" 10 (List.length !log)

(* --- chrome exporter --- *)

let test_chrome_export () =
  let r = Span.create () in
  let s = Span.begin_span r ~time:(ms 1) ~op:1 ~node:0 ~pod:1 Phase.Pod_ckpt in
  ignore (Span.begin_span r ~time:(ms 2) ~pod:(-1) Phase.Mgr_sync);
  Span.end_span r ~time:(ms 4) s;
  Span.instant r ~time:(ms 3) ~node:0 ~pod:1 Phase.Meta_sent;
  let v = ok_json (Chrome.to_string r) in
  let events =
    match Option.bind (Json.member "traceEvents" v) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents"
  in
  let phase ev = Option.bind (Json.member "ph" ev) Json.to_string_opt in
  let named ph name =
    List.find_opt
      (fun ev ->
        phase ev = Some ph
        && Option.bind (Json.member "name" ev) Json.to_string_opt = Some name)
      events
  in
  check tbool "metadata rows present" true (named "M" "process_name" <> None);
  (match named "X" (str Phase.Pod_ckpt) with
   | Some ev ->
     let num k = Option.bind (Json.member k ev) Json.to_float in
     check tbool "ts in us" true (num "ts" = Some 1000.0);
     check tbool "dur in us" true (num "dur" = Some 3000.0);
     check tbool "pid = node+1" true (num "pid" = Some 1.0)
   | None -> Alcotest.fail "pod_ckpt X event missing");
  (* the still-open mgr_sync is closed at last_time and flagged *)
  (match named "X" (str Phase.Mgr_sync) with
   | Some ev ->
     check tbool "unfinished flagged" true
       (Option.bind (Json.member "args" ev) (Json.member "unfinished") <> None)
   | None -> Alcotest.fail "open span not exported");
  check tbool "instant exported" true (named "i" (str Phase.Meta_sent) <> None)

(* Cross-node parent: the child's X row carries sid + parent args and the
   exporter joins the two tracks with an s/f flow pair keyed by the child's
   sid. *)
let test_chrome_causal_args () =
  let r = Span.create () in
  let root = Span.begin_span r ~time:(ms 1) ~pod:(-1) ~node:(-1) Phase.Ckpt_op in
  let child =
    Span.begin_span r ~time:(ms 2) ~parent:root.Span.sp_id ~pod:3 ~node:1
      Phase.Pod_ckpt
  in
  Span.end_span r ~time:(ms 4) child;
  Span.end_span r ~time:(ms 5) root;
  let v = ok_json (Chrome.to_string r) in
  let events =
    match Option.bind (Json.member "traceEvents" v) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents"
  in
  let phase ev = Option.bind (Json.member "ph" ev) Json.to_string_opt in
  (match
     List.find_opt
       (fun ev ->
         phase ev = Some "X"
         && Option.bind (Json.member "name" ev) Json.to_string_opt
            = Some (str Phase.Pod_ckpt))
       events
   with
   | Some ev ->
     let arg k =
       Option.bind (Json.member "args" ev) (fun a ->
           Option.bind (Json.member k a) Json.to_float)
     in
     check tbool "sid arg" true
       (arg "sid" = Some (float_of_int child.Span.sp_id));
     check tbool "parent arg" true
       (arg "parent" = Some (float_of_int root.Span.sp_id))
   | None -> Alcotest.fail "child X event missing");
  let flow ph =
    List.find_opt
      (fun ev ->
        phase ev = Some ph
        && Option.bind (Json.member "id" ev) Json.to_float
           = Some (float_of_int child.Span.sp_id))
      events
  in
  check tbool "flow start on the parent's track" true (flow "s" <> None);
  check tbool "flow finish on the child's track" true (flow "f" <> None)

(* --- the JSON reader itself --- *)

let test_json_reader () =
  (match ok_json {| {"a": [1, -2.5e1, true, null], "b\n": "xA"} |} with
   | Json.Obj [ ("a", Json.List l); ("b\n", Json.Str s) ] ->
     check tint "list length" 4 (List.length l);
     check tbool "numbers" true (List.nth l 1 = Json.Num (-25.0));
     check tbool "escape decoded" true (String.equal s "xA")
   | _ -> Alcotest.fail "unexpected shape");
  check tbool "trailing garbage rejected" true
    (match Json.parse "{} x" with Error _ -> true | Ok _ -> false);
  check tbool "unterminated rejected" true
    (match Json.parse "[1, 2" with Error _ -> true | Ok _ -> false)

(* every escape our exporters emit (Chrome.esc, Flight.esc) must decode *)
let test_json_escapes () =
  (match ok_json {| "a\"b\\c\nd\re\tf" |} with
   | Json.Str s -> check tbool "simple escapes" true (String.equal s "a\"b\\c\nd\re\tf")
   | _ -> Alcotest.fail "expected a string");
  (match ok_json {| "\u0041\u005f" |} with
   | Json.Str s -> check tbool "uXXXX decoded" true (String.equal s "A_")
   | _ -> Alcotest.fail "expected a string");
  (* a control character escaped the way Chrome.esc writes it *)
  (match ok_json {| "x\u0007y" |} with
   | Json.Str s -> check tbool "control escape" true (String.equal s "x\007y")
   | _ -> Alcotest.fail "expected a string");
  check tbool "bad escape rejected" true
    (match Json.parse {| "\q" |} with Error _ -> true | Ok _ -> false);
  check tbool "truncated \\u rejected" true
    (match Json.parse {| "\u00" |} with Error _ -> true | Ok _ -> false)

(* deep nesting parses without blowing the stack at trace-file depths, and
   malformed documents come back as [Error], never as an exception *)
let test_json_nesting_and_malformed () =
  let depth = 512 in
  let deep =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "1"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  let rec count v = match v with Json.List [ x ] -> 1 + count x | _ -> 0 in
  check tint "512-deep array" depth (count (ok_json deep));
  let nested_obj = {| {"a": {"b": {"c": {"d": [{"e": 1}]}}}} |} in
  check tbool "nested object path" true
    (let open Option in
     bind (Json.member "a" (ok_json nested_obj)) (Json.member "b")
     |> Fun.flip bind (Json.member "c")
     |> Fun.flip bind (Json.member "d")
     <> None);
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed accepted: %s" s)
    [ "{"; "}"; {| {"a"} |}; {| {"a":} |}; "[1,]"; {| {"a":1,} |}; "tru";
      "nul"; "+1"; {| {1: 2} |}; ""; "\"unterminated" ]

(* --- flight recorder --- *)

let test_flight_ring_bounds () =
  let fl = Flight.create ~cap:4 () in
  for i = 1 to 10 do
    Flight.record fl ~node:0
      (Flight.Instant { f_time = ms i; f_pod = 0; f_what = Printf.sprintf "i%d" i })
  done;
  Flight.record fl ~node:1
    (Flight.Instant { f_time = ms 99; f_pod = -1; f_what = "other-ring" });
  let entries = Flight.entries fl ~node:0 in
  check tint "ring keeps only cap entries" 4 (List.length entries);
  check tbool "oldest evicted, order kept" true
    (List.map
       (function Flight.Instant { f_what; _ } -> f_what | _ -> "?")
       entries
     = [ "i7"; "i8"; "i9"; "i10" ]);
  check tint "rings are per node" 1 (List.length (Flight.entries fl ~node:1));
  check tbool "nodes listed" true (List.sort compare (Flight.nodes fl) = [ 0; 1 ])

let test_flight_dump_roundtrip () =
  let fl = Flight.create ~cap:8 () in
  let recorded =
    [ (0,
       Flight.Span_open
         { f_time = ms 1; f_id = 7; f_name = str Phase.Pod_ckpt; f_op = 3; f_pod = 2;
           f_parent = Some 5 });
      (0, Flight.Span_close { f_time = ms 2; f_id = 7 });
      (1,
       Flight.Span_open
         { f_time = ms 3; f_id = 9; f_name = "net_ckpt\"x"; f_op = 3; f_pod = 4;
           f_parent = None });
      (-1, Flight.Instant { f_time = ms 4; f_pod = -1; f_what = (str (Phase.Op_failed Phase.Op_ckpt)) });
      (-1, Flight.Metric { f_time = ms 5; f_name = "mgr.ckpt.failed"; f_value = 1.5 }) ]
  in
  List.iter (fun (node, e) -> Flight.record fl ~node e) recorded;
  let json = Flight.to_string fl ~time:(ms 6) ~reason:(str (Phase.Op_failed Phase.Op_ckpt)) in
  let v = ok_json json in
  check tbool "reason kept" true
    (Option.bind (Json.member "reason" v) Json.to_string_opt
     = Some (str (Phase.Op_failed Phase.Op_ckpt)));
  (match Flight.entries_of_json v with
   | None -> Alcotest.fail "dump does not decode"
   | Some decoded ->
     check tint "all entries decoded" (List.length recorded) (List.length decoded);
     List.iter
       (fun (node, e) ->
         if not (List.exists (fun (n, d) -> n = node && d = e) decoded) then
           Alcotest.failf "entry of node %d lost in the round-trip" node)
       recorded);
  (* trip with no dump dir still snapshots to last_dump, and clear drains *)
  Flight.trip fl ~time:(ms 7) ~reason:(str (Phase.Fault "crash-node(node 1)"));
  check tint "trip counted" 1 (Flight.trips fl);
  check tbool "last_dump parses" true
    (match Flight.last_dump fl with
     | Some s -> (match Json.parse s with Ok _ -> true | Error _ -> false)
     | None -> false);
  Flight.clear fl;
  check tint "clear drains the rings" 0 (List.length (Flight.nodes fl))

(* --- critical path --- *)

let test_critpath () =
  let r = Span.create () in
  (* the op span covers the whole window: skipped, attributes nothing *)
  let op = Span.begin_span r ~time:(ms 0) ~pod:(-1) Phase.Ckpt_op in
  let a = Span.begin_span r ~time:(ms 0) ~pod:1 Phase.Standalone in
  let b = Span.begin_span r ~time:(ms 6) ~pod:1 Phase.Net_ckpt in
  Span.end_span r ~time:(ms 6) a;
  Span.end_span r ~time:(ms 9) b;
  Span.end_span r ~time:(ms 10) op;
  let rep = Critpath.analyze ~spans:(Span.spans r) ~t0:(ms 0) ~t1:(ms 10) in
  check tbool "total is the window" true (Simtime.compare rep.Critpath.cp_total (ms 10) = 0);
  check tbool "dominant phase" true
    (String.equal rep.Critpath.cp_dominant (str Phase.Standalone));
  let phase n = List.assoc_opt n rep.Critpath.cp_phases in
  check tbool "standalone charged 6ms" true (phase (str Phase.Standalone) = Some (ms 6));
  check tbool "net_ckpt charged 3ms" true (phase (str Phase.Net_ckpt) = Some (ms 3));
  check tbool "uncovered tail charged to other" true (phase "other" = Some (ms 1));
  check tbool "op span attributes nothing" true (phase (str Phase.Ckpt_op) = None);
  (* every charged nanosecond is charged exactly once *)
  let sum =
    List.fold_left (fun acc (_, d) -> Simtime.add acc d) Simtime.zero
      rep.Critpath.cp_phases
  in
  check tbool "phases sum to total" true (Simtime.compare sum rep.Critpath.cp_total = 0)

(* --- Stats fixes --- *)

let test_stats_empty_render () =
  let s = Stats.create () in
  check tbool "empty renders n=0" true
    (String.equal (Format.asprintf "%a" Stats.pp_ms s) "n=0");
  Stats.add s 1.0;
  check tbool "non-empty has no inf" true
    (let r = Format.asprintf "%a" Stats.pp_ms s in
     not (String.length r >= 3 && String.equal (String.sub r 0 3) "inf"))

let test_stats_percentile () =
  let s = Stats.create () in
  check tfloat "empty percentile is 0" 0.0 (Stats.percentile s 0.5);
  List.iter (Stats.add s) [ 10.0; 20.0; 30.0; 40.0 ];
  check tfloat "p0 = min" 10.0 (Stats.percentile s 0.0);
  check tfloat "p100 = max" 40.0 (Stats.percentile s 1.0);
  check tfloat "p50 interpolates" 25.0 (Stats.percentile s 0.5)

(* --- recorder lifecycle: subscriptions, clear, off --- *)

let test_trace_observers () =
  let r = Span.create () in
  let fired = ref 0 in
  Span.subscribe r (fun _ -> Stdlib.incr fired);
  Span.instant r ~time:(ms 1) ~node:0 ~pod:0 Phase.Suspended;
  check tint "subscriber fires" 1 !fired;
  Span.clear r;
  check tint "clear forgets instants" 0 (List.length (Span.instants r));
  Span.instant r ~time:(ms 2) ~node:0 ~pod:0 Phase.Meta_sent;
  check tint "subscriptions survive clear" 2 !fired;
  (* an off recorder records nothing and hands out id -1, but still
     delivers its instants (and only those) *)
  Span.set_enabled r false;
  let sp = Span.begin_span r ~time:(ms 3) ~pod:0 Phase.Standalone in
  check tint "off span id" (-1) sp.Span.sp_id;
  Span.instant r ~time:(ms 3) ~node:0 ~pod:0 Phase.Resumed;
  Span.end_span r ~time:(ms 4) sp;
  check tbool "off end_named finds nothing" false
    (Span.end_named r ~time:(ms 4) ~pod:0 Phase.Standalone);
  check tint "off: no span recorded" 0 (List.length (Span.spans r));
  check tbool "off: no instant recorded" true
    (List.map (fun i -> i.Span.in_what) (Span.instants r) = [ Phase.Meta_sent ]);
  check tint "off: the instant alone delivered" 3 !fired;
  Span.set_enabled r true;
  Span.unsubscribe_all r;
  Span.instant r ~time:(ms 5) ~node:0 ~pod:0 Phase.Resumed;
  check tint "unsubscribe_all detaches" 3 !fired;
  (* a cluster's recorder exists from make, but reads as a trace only once
     switched on *)
  let c = Zapc.Cluster.make ~params:Zapc.Params.default ~node_count:1 () in
  check tbool "no trace before enable_trace" true (Zapc.Cluster.trace c = None);
  let tr = Zapc.Cluster.enable_trace c in
  check tbool "trace after enable_trace" true
    (match Zapc.Cluster.trace c with Some t -> t == tr | None -> false);
  check tbool "enable_trace is idempotent" true (Zapc.Cluster.enable_trace c == tr)

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "exp buckets" `Quick test_exp_buckets;
          Alcotest.test_case "json snapshot" `Quick test_metrics_json;
          Alcotest.test_case "storage.mem is metric-neutral" `Quick
            test_storage_mem_metric_neutral ] );
      ( "spans",
        [ Alcotest.test_case "begin/end" `Quick test_span_basic;
          Alcotest.test_case "end_named" `Quick test_span_end_named;
          Alcotest.test_case "chronological" `Quick test_span_chronological;
          Alcotest.test_case "parent links + observer" `Quick
            test_span_parent_links ] );
      ( "export",
        [ Alcotest.test_case "chrome trace" `Quick test_chrome_export;
          Alcotest.test_case "chrome causal args" `Quick test_chrome_causal_args;
          Alcotest.test_case "json reader" `Quick test_json_reader;
          Alcotest.test_case "json escapes" `Quick test_json_escapes;
          Alcotest.test_case "json nesting + malformed" `Quick
            test_json_nesting_and_malformed ] );
      ( "flight",
        [ Alcotest.test_case "ring bounds" `Quick test_flight_ring_bounds;
          Alcotest.test_case "dump round-trip" `Quick test_flight_dump_roundtrip ] );
      ( "critpath",
        [ Alcotest.test_case "phase attribution" `Quick test_critpath ] );
      ( "stats",
        [ Alcotest.test_case "empty render" `Quick test_stats_empty_render;
          Alcotest.test_case "percentile" `Quick test_stats_percentile ] );
      ( "trace",
        [ Alcotest.test_case "observer lifecycle" `Quick test_trace_observers ] ) ]

(* Validator behind the @obs alias: checks the artifacts `main.exe quick`
   emits.

     obs_check.exe [TRACE.json] [METRICS.json]
     obs_check.exe --mig [TRACE.json] [METRICS.json]
     obs_check.exe --serve [SERVE.json] [TRACE.json] [METRICS.json]
     obs_check.exe --causal TRACE.json...

   The Chrome trace must parse, be non-empty, and exhibit the Figure-2
   overlap — every pod's [Standalone] span straddles the end of the
   Manager's [Mgr_sync] span (the 'continue' broadcast lands while the
   standalone checkpoints are running).  The metrics snapshot must parse
   and carry a successful mgr.ckpt series.  Span names are read through
   [Phase.to_string], so the checker follows the phase vocabulary. *)

module Json = Zapc_obs.Json
module Phase = Zapc_obs.Phase

(* the X rows named [phase] *)
let named phase xs =
  let name = Phase.to_string phase in
  List.filter (fun (n, _, _, _) -> String.equal n name) xs

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("obs_check: FAIL: " ^ m);
      exit 1)
    fmt

let need what = function Some v -> v | None -> fail "%s" what

let parse_file path =
  match Json.parse_file path with
  | Ok v -> v
  | Error e -> fail "%s: %s" path e

(* the X rows of the trace, as (name, tid, t0, t1) *)
let complete_events trace =
  let events =
    need "traceEvents missing or not a list"
      (Option.bind (Json.member "traceEvents" trace) Json.to_list)
  in
  if events = [] then fail "traceEvents is empty";
  ( List.length events,
    List.filter_map
      (fun ev ->
        match Option.bind (Json.member "ph" ev) Json.to_string_opt with
        | Some "X" ->
          let str k = Option.bind (Json.member k ev) Json.to_string_opt in
          let num k = Option.bind (Json.member k ev) Json.to_float in
          let name = need "X event without name" (str "name") in
          let tid = need "X event without tid" (num "tid") in
          let ts = need "X event without ts" (num "ts") in
          let dur = need "X event without dur" (num "dur") in
          Some (name, int_of_float tid, ts, ts +. dur)
        | _ -> None)
      events )

let check_trace path =
  let count, xs = complete_events (parse_file path) in
  let sync_end =
    match named Phase.Mgr_sync xs with
    | (_, _, _, t1) :: _ -> t1
    | [] -> fail "%s: no mgr_sync span" path
  in
  let standalones = named Phase.Standalone xs in
  if standalones = [] then fail "%s: no standalone spans" path;
  List.iter
    (fun (_, tid, t0, t1) ->
      if not (t0 < sync_end && sync_end <= t1) then
        fail
          "%s: tid %d standalone [%.1f..%.1f]us does not straddle mgr_sync \
           end %.1fus (Figure-2 overlap broken)"
          path tid t0 t1 sync_end)
    standalones;
  Printf.printf
    "obs_check: %s ok (%d events, %d standalone spans straddle mgr_sync end)\n"
    path count (List.length standalones)

let check_metrics path =
  let v = parse_file path in
  let counters =
    need "counters missing" (Json.member "counters" v)
  in
  let counter name =
    match Option.bind (Json.member name counters) Json.to_float with
    | Some c -> int_of_float c
    | None -> 0
  in
  if counter "mgr.ckpt.ok" < 1 then fail "%s: mgr.ckpt.ok < 1" path;
  if counter "storage.puts" < 1 then fail "%s: storage.puts < 1" path;
  (match Option.bind (Json.member "histograms" v) (Json.member "ckpt.image_bytes") with
   | Some _ -> ()
   | None -> fail "%s: ckpt.image_bytes histogram missing" path);
  Printf.printf "obs_check: %s ok (mgr.ckpt.ok=%d storage.puts=%d)\n" path
    (counter "mgr.ckpt.ok") (counter "storage.puts")

(* --mig: the artifacts of `main.exe migration` (a traced pre-copy
   migration).  The trace must hold a Manager-level [Migrate] span with the
   Agent-side [Blackout] strictly inside it — the pod is only ever dark for
   a proper sub-window of the operation, never from its first instant (the
   rounds run before the stop) nor to its last (the activation hands back a
   running pod).  The metrics must record the success and the blackout. *)
let check_mig_trace path =
  let count, xs = complete_events (parse_file path) in
  let span phase =
    match named phase xs with
    | (_, _, t0, t1) :: _ -> (t0, t1)
    | [] -> fail "%s: no %s span" path (Phase.to_string phase)
  in
  let m0, m1 = span Phase.Migrate in
  let b0, b1 = span Phase.Blackout in
  if not (m0 < b0 && b1 < m1) then
    fail
      "%s: blackout [%.1f..%.1f]us not strictly inside migrate [%.1f..%.1f]us"
      path b0 b1 m0 m1;
  let p0, p1 = span Phase.Mig_precopy in
  if not (p1 <= b0) then
    fail "%s: pre-copy [%.1f..%.1f]us overlaps the blackout from %.1fus" path
      p0 p1 b0;
  Printf.printf
    "obs_check: %s ok (%d events; blackout %.1fms strictly inside migrate \
     %.1fms, after %.1fms of pre-copy)\n"
    path count
    ((b1 -. b0) /. 1000.0)
    ((m1 -. m0) /. 1000.0)
    ((p1 -. p0) /. 1000.0)

let check_mig_metrics path =
  let v = parse_file path in
  let counters = need "counters missing" (Json.member "counters" v) in
  let counter name =
    match Option.bind (Json.member name counters) Json.to_float with
    | Some c -> int_of_float c
    | None -> 0
  in
  if counter "mgr.mig.ok" < 1 then fail "%s: mgr.mig.ok < 1" path;
  let hist name =
    match Option.bind (Json.member "histograms" v) (Json.member name) with
    | Some _ -> ()
    | None -> fail "%s: %s histogram missing" path name
  in
  hist "mig.blackout_ms";
  hist "mig.rounds";
  hist "mig.bytes_per_round";
  Printf.printf "obs_check: %s ok (mgr.mig.ok=%d, blackout/rounds recorded)\n"
    path (counter "mgr.mig.ok")

(* --serve: the artifacts of `main.exe serve` (the served-traffic SLO run).
   BENCH_serve.json must carry all four phase windows with samples and an
   intact exactly-once block; the trace must show the service actually went
   dark and came back — [Paused] spans for the periodic checkpoints (never
   overlapping on the same pod: a pod is suspended by at most one operation
   at a time) and a migration [Blackout]; the metrics must hold a non-empty
   client latency histogram and a clean duplicate counter. *)

let check_serve_json path =
  let v = parse_file path in
  let eo = need "exactly_once missing" (Json.member "exactly_once" v) in
  let num obj k = need (k ^ " missing") (Option.bind (Json.member k obj) Json.to_float) in
  let expected = num eo "expected" and completed = num eo "completed" in
  if expected < 1000.0 then fail "%s: expected %.0f < 1000 requests" path expected;
  if completed <> expected then
    fail "%s: completed %.0f <> expected %.0f" path completed expected;
  if num eo "duplicates" <> 0.0 then fail "%s: duplicate responses" path;
  if num eo "inflight" <> 0.0 then fail "%s: requests left in flight" path;
  let windows =
    need "windows missing or not a list"
      (Option.bind (Json.member "windows" v) Json.to_list)
  in
  let wname w = Option.bind (Json.member "name" w) Json.to_string_opt in
  List.iter
    (fun name ->
      match List.find_opt (fun w -> wname w = Some name) windows with
      | None -> fail "%s: no %S window" path name
      | Some w ->
        if num w "count" <= 0.0 then fail "%s: %S window has no samples" path name;
        if num w "p99_ms" <= 0.0 then fail "%s: %S window p99 is zero" path name)
    [ "steady"; "checkpoint"; "migration"; "crash" ];
  let crash = need "crash block missing" (Json.member "crash" v) in
  if num crash "mttr_ms" <= 0.0 then fail "%s: mttr_ms not positive" path;
  Printf.printf "obs_check: %s ok (%.0f requests exactly-once, 4 windows)\n"
    path expected

let check_serve_trace path =
  let count, xs = complete_events (parse_file path) in
  let paused = named Phase.Paused xs in
  if paused = [] then fail "%s: no paused spans (no checkpoint ever ran)" path;
  if named Phase.Blackout xs = [] then
    fail "%s: no blackout span (no migration ran)" path;
  (* per pod (tid), the dark windows must be disjoint *)
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (_, tid, t0, t1) ->
      Hashtbl.replace by_tid tid ((t0, t1) :: (try Hashtbl.find by_tid tid with Not_found -> [])))
    paused;
  Hashtbl.iter
    (fun tid spans ->
      let sorted = List.sort compare spans in
      let rec go = function
        | (_, e1) :: ((s2, _) :: _ as rest) ->
          if s2 < e1 then
            fail "%s: tid %d has overlapping paused spans (%.1f < %.1f)" path tid
              s2 e1;
          go rest
        | _ -> ()
      in
      go sorted)
    by_tid;
  Printf.printf "obs_check: %s ok (%d events, %d disjoint paused spans, blackout present)\n"
    path count (List.length paused)

let check_serve_metrics path =
  let v = parse_file path in
  let counters = need "counters missing" (Json.member "counters" v) in
  let counter name =
    match Option.bind (Json.member name counters) Json.to_float with
    | Some c -> int_of_float c
    | None -> 0
  in
  if counter "client.completed" < 1000 then
    fail "%s: client.completed < 1000" path;
  if counter "client.duplicates" <> 0 then fail "%s: client.duplicates != 0" path;
  if counter "net.vip_rebound" < 1 then
    fail "%s: net.vip_rebound < 1 (no restore ever re-announced its address)" path;
  let lat =
    need "client.lat_ms histogram missing"
      (Option.bind (Json.member "histograms" v) (Json.member "client.lat_ms"))
  in
  (match Option.bind (Json.member "count" lat) Json.to_float with
   | Some c when c >= 1000.0 -> ()
   | Some c -> fail "%s: client.lat_ms has only %.0f samples" path c
   | None -> fail "%s: client.lat_ms has no count" path);
  Printf.printf "obs_check: %s ok (client.completed=%d, latency histogram populated)\n"
    path (counter "client.completed")

(* --causal: structural validation of the cross-node causal tree in any of
   the Chrome traces.  Every span carries its recorder-unique sid (and its
   parent's sid) in the args, so the tree is reconstructible from the
   artifact alone.  Checks: sids are unique and every parent resolves with
   no cycles; every agent-side operation span (pod_ckpt / pod_restart /
   mig_precopy, node >= 0) climbs to a manager-scope ancestor (node = -1)
   — the trace-context plumbing stitched the operation across the control
   plane; flow events come in s/f pairs whose ids are real sids; and at
   least one cross-node parent edge exists. *)
let check_causal path =
  let trace = parse_file path in
  let events =
    need "traceEvents missing or not a list"
      (Option.bind (Json.member "traceEvents" trace) Json.to_list)
  in
  let spans = Hashtbl.create 256 in  (* sid -> (name, node, parent option) *)
  let flows_s = ref [] and flows_f = ref [] in
  List.iter
    (fun ev ->
      let str k = Option.bind (Json.member k ev) Json.to_string_opt in
      let num k = Option.bind (Json.member k ev) Json.to_float in
      match str "ph" with
      | Some "X" ->
        let args = need "X event without args" (Json.member "args" ev) in
        let anum k = Option.bind (Json.member k args) Json.to_float in
        let sid = int_of_float (need "X event without sid" (anum "sid")) in
        let node = int_of_float (need "X event without node" (anum "node")) in
        let name = need "X event without name" (str "name") in
        let parent = Option.map int_of_float (anum "parent") in
        if Hashtbl.mem spans sid then fail "%s: duplicate sid %d" path sid;
        Hashtbl.replace spans sid (name, node, parent)
      | Some "s" ->
        flows_s := int_of_float (need "flow start without id" (num "id")) :: !flows_s
      | Some "f" ->
        flows_f := int_of_float (need "flow finish without id" (num "id")) :: !flows_f
      | _ -> ())
    events;
  if Hashtbl.length spans = 0 then fail "%s: no spans" path;
  let rec climbs_to_manager seen sid =
    if List.mem sid seen then fail "%s: parent cycle through sid %d" path sid;
    match Hashtbl.find_opt spans sid with
    | None -> fail "%s: dangling parent sid %d" path sid
    | Some (_, node, parent) ->
      node = -1
      || (match parent with
          | None -> false
          | Some p -> climbs_to_manager (sid :: seen) p)
  in
  let ops =
    Hashtbl.fold
      (fun sid (name, node, _) acc ->
        if node >= 0
           && List.mem name
                (List.map Phase.to_string Phase.[ Pod_ckpt; Pod_restart; Mig_precopy ])
        then (sid, name) :: acc
        else acc)
      spans []
  in
  if ops = [] then fail "%s: no agent-side operation spans" path;
  List.iter
    (fun (sid, name) ->
      if not (climbs_to_manager [] sid) then
        fail "%s: %s span sid %d never reaches a manager-scope ancestor" path
          name sid)
    ops;
  let cross =
    Hashtbl.fold
      (fun _ (_, node, parent) acc ->
        match Option.bind parent (Hashtbl.find_opt spans) with
        | Some (_, pnode, _) when pnode <> node -> acc + 1
        | Some _ | None -> acc)
      spans 0
  in
  if cross = 0 then fail "%s: no cross-node causal edges" path;
  List.iter
    (fun id ->
      if not (Hashtbl.mem spans id) then
        fail "%s: flow event id %d is not a span sid" path id)
    (!flows_s @ !flows_f);
  if List.sort compare !flows_s <> List.sort compare !flows_f then
    fail "%s: unpaired flow events" path;
  Printf.printf
    "obs_check: %s ok (causal: %d spans, %d op spans rooted at the manager, \
     %d cross-node edges, %d flow pairs)\n"
    path (Hashtbl.length spans) (List.length ops) cross (List.length !flows_s)

let () =
  let arg i d = if Array.length Sys.argv > i then Sys.argv.(i) else d in
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--causal" then begin
    if Array.length Sys.argv > 2 then
      for i = 2 to Array.length Sys.argv - 1 do
        check_causal Sys.argv.(i)
      done
    else check_causal "BENCH_quick_trace.json"
  end
  else if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--mig" then begin
    check_mig_trace (arg 2 "BENCH_migration_trace.json");
    check_mig_metrics (arg 3 "BENCH_migration_metrics.json")
  end
  else if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--serve" then begin
    check_serve_json (arg 2 "BENCH_serve.json");
    check_serve_trace (arg 3 "BENCH_serve_trace.json");
    check_serve_metrics (arg 4 "BENCH_serve_metrics.json")
  end
  else begin
    check_trace (arg 1 "BENCH_quick_trace.json");
    check_metrics (arg 2 "BENCH_quick_metrics.json")
  end

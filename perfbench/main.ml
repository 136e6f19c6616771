(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
         Run one workload as a series of rounds, each at its own seed
         derived from N.  The workload's first [pooled] rounds give the
         virtual results; rounds then continue while the next one still
         fits in S seconds, for the host-time median.
         Untraced, it reports the end-to-end metrics: host seconds are
         medians over rounds and over repeated set-ups, calibrated against a
         reference loop (Harness.reference); virtual times and bytes come
         from the pooled rounds.  Traced, it runs the pooled rounds again
         with spans and the engine profiler on, checks that they produced
         the same virtual results, and reports the per-layer metrics.
         Every run checks the workload's outputs, writes BENCH_<NAME>.json
         (and BENCH_<NAME>_trace.json when traced), prints every metric
         with its unit, and ends with one JSON line:
         {"correct", "attempted", "failed", "metrics"}.  Exit 1 when a
         check failed.

     main.exe compare BASE.json NEW.json [--benchmark BENCHMARK.json]
         Compare two BENCH_<NAME>.json files of one workload and seed; see
         Compare.

     main.exe sensitivity
         Show that the comparison catches a 10% change of one restart cost
         constant ([per_socket_restore]) and names the phase that moved. *)

module H = Harness

let max_rounds = 50
let setup_reps = 5
let setup_sample_s = 0.2

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         ms)
  ^ "}"

let floats xs = "[" ^ String.concat ", " (List.map num xs) ^ "]"

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Seeds of different runs never share a round. *)
let round_seed ~seed r = (seed * 1000) + r

(* One round into [a]: (host seconds, host seconds after set-up).  It
   starts after a full collection, so no round pays for the garbage of the
   one before. *)
let round (w : Workloads.t) a ~seed r =
  Gc.compact ();
  a.H.seed <- round_seed ~seed r;
  let setup0 = a.H.setup_s and t0 = H.clock () in
  w.Workloads.iterate a;
  let wall = H.clock () -. t0 in
  (wall, wall -. (a.H.setup_s -. setup0))

let write_bench ~workload ~seed ~traced ~correct ~e2e ~layers ~ops ~host ~failures =
  let path = Printf.sprintf "BENCH_%s.json" workload in
  let op (o : H.op) =
    Printf.sprintf "{\"kind\": %S, \"cluster\": %d, \"t0_ms\": %s, \"dur_ms\": %s}"
      (H.kind_name o.H.o_kind) o.H.o_cluster
      (num (Zapc_sim.Simtime.to_ms o.H.o_t0))
      (num (Zapc_sim.Simtime.to_ms (o.H.o_t1 - o.H.o_t0)))
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"workload\": %S, \"seed\": %d, \"traced\": %b, \"correct\": %b,\n\
    \ \"e2e\": %s,\n\
    \ \"layers\": %s,\n\
    \ \"ops\": [%s],\n\
    \ \"host\": {%s},\n\
    \ \"failures\": [%s]}\n"
    workload seed traced correct (metrics_json e2e) (metrics_json layers)
    (String.concat ",\n  " (List.map op ops))
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) host))
    (String.concat ", " (List.map (Printf.sprintf "%S") failures));
  close_out oc;
  path

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-30s %18s %s\n" name (num v) unit) ms

(* The pooled rounds twice, untraced then traced: per-layer metrics. *)
let traced_run w ~seed plain =
  let t = H.create ~seed ~traced:true in
  let body = ref 0.0 and twall = ref 0.0 and tbody = ref 0.0 in
  for r = 0 to w.Workloads.pooled - 1 do
    body := !body +. snd (round w plain ~seed r);
    let wall, b = round w t ~seed r in
    twall := !twall +. wall;
    tbody := !tbody +. b
  done;
  if not (String.equal (H.fingerprint t) (H.fingerprint plain)) then
    H.fail plain "the traced rounds produced different virtual results from the untraced ones";
  Option.iter
    (fun trace ->
      Zapc.Trace.dump_chrome trace (Printf.sprintf "BENCH_%s_trace.json" w.Workloads.name))
    t.H.last_trace;
  let layers = H.layers ~traced:(t, !twall, !tbody) (plain, !body) in
  ([ t ], [], layers, [ ("body_s", num !body); ("traced_body_s", num !tbody) ])

(* The pooled rounds, then more rounds while time remains, then repeated
   set-ups, each step calibrated: end-to-end metrics. *)
let untraced_run (w : Workloads.t) ~seed ~start ~seconds plain =
  let c = H.calib () in
  let rounds = ref [] and last = ref 0.0 and heaps = ref [] in
  let measure a r =
    let t0 = H.clock () in
    rounds := H.calibrated c (fun () -> snd (round w a ~seed r)) :: !rounds;
    heaps := heap_mb () :: !heaps;
    last := H.clock () -. t0
  in
  for r = 0 to w.pooled - 1 do measure plain r done;
  let body = H.sum (List.map fst !rounds) in
  let extra = ref [] in
  while H.clock () -. start +. !last <= seconds && List.length !rounds < max_rounds do
    let a = H.create ~seed ~traced:false in
    measure a (List.length !rounds);
    extra := a :: !extra
  done;
  (* a set-up can take well under a millisecond: each sample times enough
     consecutive set-ups to fill [setup_sample_s] *)
  let setup_batch k () =
    let a = H.create ~seed:(round_seed ~seed 0) ~traced:false in
    for _ = 1 to k do w.setup_only a done;
    a.H.setup_s /. float_of_int k
  in
  let k = int_of_float (Float.ceil (setup_sample_s /. Float.max 1e-6 (setup_batch 1 ()))) in
  let setups = List.init setup_reps (fun _ -> H.calibrated c (setup_batch k)) in
  let rounds = List.rev !rounds and heaps = List.rev !heaps in
  (* The peak heap of the first round: the heap keeps growing over later
     rounds, by steps that vary from run to run. *)
  let heap_mb = List.hd heaps in
  let e2e =
    H.e2e plain
      ~setup_s:(H.median (List.map snd setups))
      ~round_s:(H.median (List.map snd rounds))
      ~heap_mb
  in
  let host =
    [ ("rounds", string_of_int (List.length rounds));
      ("round_raw_s", floats (List.map fst rounds)); ("round_s", floats (List.map snd rounds));
      ("setup_raw_s", floats (List.map fst setups)); ("setup_s", floats (List.map snd setups));
      ("reference_s", floats (List.rev c.H.refs)); ("top_heap_mb", floats heaps) ]
  in
  (!extra, e2e, H.layers (plain, body), host)

let run_workload (w : Workloads.t) ~seed ~seconds ~traced =
  let start = H.clock () in
  let plain = H.create ~seed ~traced:false in
  let others, e2e, layers, host =
    if traced then traced_run w ~seed plain else untraced_run w ~seed ~start ~seconds plain
  in
  let all = plain :: others in
  let failures = List.concat_map (fun a -> List.rev a.H.failures) all in
  let correct = failures = [] in
  let attempted = H.sum (List.map H.attempted all) in
  let failed = H.sum (List.map H.failed all) in
  let path =
    write_bench ~workload:w.name ~seed ~traced ~correct ~e2e ~layers
      ~ops:(List.rev plain.H.ops) ~host ~failures
  in
  print_table (Printf.sprintf "%s seed %d: end to end" w.name seed) e2e;
  print_table (Printf.sprintf "%s seed %d: per layer" w.name seed) layers;
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  Printf.printf "wrote %s\n" path;
  Printf.printf "{\"correct\": %b, \"attempted\": %.0f, \"failed\": %.0f, \"metrics\": %s}\n"
    correct attempted failed
    (metrics_json (if traced then layers else e2e));
  if not correct then exit 1

let sensitivity () =
  let run params =
    let a = H.create ~seed:42 ~traced:true in
    Workloads.bt_restart a ~params;
    if a.H.failures <> [] then begin
      List.iter prerr_endline a.H.failures;
      exit 1
    end;
    H.layers ~traced:(a, 0.0, 0.0) (a, 0.0)
  in
  let base = run Zapc.Params.default in
  let bumped =
    run
      { Zapc.Params.default with
        Zapc.Params.per_socket_restore = Zapc.Params.default.Zapc.Params.per_socket_restore * 11 / 10 }
  in
  let moved = Compare.moved ~base ~cur:bumped in
  List.iter (fun m -> Printf.printf "moved: %s\n" m) moved;
  if List.exists (String.starts_with ~prefix:"restart.phase.") moved then
    print_endline "sensitivity: ok, the restart phase that moved is named"
  else begin
    prerr_endline "sensitivity: FAIL, no restart.phase.* metric moved";
    exit 1
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe compare BASE.json NEW.json [--benchmark BENCHMARK.json]\n\
    \       main.exe sensitivity";
  exit 2

let () =
  Zapc_apps.Registry.register_all ();
  match List.tl (Array.to_list Sys.argv) with
  | [ "sensitivity" ] -> sensitivity ()
  | [ "compare"; base; cur ] -> exit (Compare.run ~benchmark:"BENCHMARK.json" base cur)
  | [ "compare"; base; cur; "--benchmark"; b ] -> exit (Compare.run ~benchmark:b base cur)
  | args ->
    let rec opts acc = function
      | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let w =
      match List.find_opt (fun (w : Workloads.t) -> String.equal w.name (get "--workload")) Workloads.all with
      | Some w -> w
      | None -> usage ()
    in
    let traced = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
    run_workload w ~seed:(int "--seed") ~seconds:(float_of_int (int "--seconds")) ~traced

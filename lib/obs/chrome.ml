(* Chrome trace_event exporter.

   Track mapping: pid = node + 1 (so the manager/cluster scope, node -1,
   lands on pid 0), tid = pod + 1 (manager-scope spans on tid 0).  The
   real ids are preserved in the args object. *)

module Simtime = Zapc_sim.Simtime

let us t = Printf.sprintf "%.3f" (Simtime.to_us t)

let to_string rec_ =
  let spans = Span.spans rec_ in
  let instants = Span.instants rec_ in
  let close_at = Span.last_time rec_ in
  let b = Buffer.create 8192 in
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b s
  in
  Buffer.add_string b "{\"traceEvents\":[";
  (* Metadata: name the node processes and pod threads. *)
  let procs = Hashtbl.create 8 and threads = Hashtbl.create 16 in
  let note_track node pod =
    if not (Hashtbl.mem procs node) then Hashtbl.replace procs node ();
    if not (Hashtbl.mem threads (node, pod)) then
      Hashtbl.replace threads (node, pod) ()
  in
  List.iter (fun (sp : Span.span) -> note_track sp.sp_node sp.sp_pod) spans;
  List.iter (fun (i : Span.instant) -> note_track i.in_node i.in_pod) instants;
  let proc_list =
    Hashtbl.fold (fun k () acc -> k :: acc) procs [] |> List.sort compare
  in
  let thread_list =
    Hashtbl.fold (fun k () acc -> k :: acc) threads [] |> List.sort compare
  in
  List.iter
    (fun node ->
      let name = if node < 0 then "manager" else Printf.sprintf "node%d" node in
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
           (node + 1) name))
    proc_list;
  List.iter
    (fun (node, pod) ->
      let name = if pod < 0 then "control" else Printf.sprintf "pod%d" pod in
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           (node + 1) (pod + 1) name))
    thread_list;
  let by_id = Hashtbl.create 64 in
  List.iter (fun (sp : Span.span) -> Hashtbl.replace by_id sp.sp_id sp) spans;
  List.iter
    (fun (sp : Span.span) ->
      let finish, unfinished =
        match sp.sp_end with
        | Some e -> e, false
        | None -> Simtime.max close_at sp.sp_begin, true
      in
      let dur = Simtime.sub finish sp.sp_begin in
      emit
        (Printf.sprintf
           "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"zapc\",\"pid\":%d,\"tid\":%d,\
            \"ts\":%s,\"dur\":%s,\"args\":{\"op\":%d,\"pod\":%d,\"node\":%d,\
            \"sid\":%d%s%s}}"
           (Json.escape (Phase.to_string sp.sp_name)) (sp.sp_node + 1) (sp.sp_pod + 1)
           (us sp.sp_begin) (us dur) sp.sp_op sp.sp_pod sp.sp_node sp.sp_id
           (match sp.sp_parent with
            | Some p -> Printf.sprintf ",\"parent\":%d" p
            | None -> "")
           (if unfinished then ",\"unfinished\":true" else "")))
    spans;
  (* Flow events for the cross-node causal edges: when a span's parent was
     recorded on a different node, join the two slices with an s/f pair
     (id = the child's span id, unique per recorder). *)
  List.iter
    (fun (sp : Span.span) ->
      match sp.sp_parent with
      | Some pid -> (
        match Hashtbl.find_opt by_id pid with
        | Some (parent : Span.span) when parent.sp_node <> sp.sp_node ->
          emit
            (Printf.sprintf
               "{\"ph\":\"s\",\"name\":\"causal\",\"cat\":\"zapc\",\"id\":%d,\
                \"pid\":%d,\"tid\":%d,\"ts\":%s}"
               sp.sp_id (parent.sp_node + 1) (parent.sp_pod + 1)
               (us parent.sp_begin));
          emit
            (Printf.sprintf
               "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"causal\",\"cat\":\"zapc\",\
                \"id\":%d,\"pid\":%d,\"tid\":%d,\"ts\":%s}"
               sp.sp_id (sp.sp_node + 1) (sp.sp_pod + 1) (us sp.sp_begin))
        | _ -> ())
      | None -> ())
    spans;
  List.iter
    (fun (i : Span.instant) ->
      emit
        (Printf.sprintf
           "{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"zapc\",\"s\":\"t\",\
            \"pid\":%d,\"tid\":%d,\"ts\":%s,\
            \"args\":{\"pod\":%d,\"node\":%d}}"
           (Json.escape (Phase.to_string i.in_what)) (i.in_node + 1) (i.in_pod + 1) (us i.in_time)
           i.in_pod i.in_node))
    instants;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let dump rec_ path =
  let oc = open_out path in
  output_string oc (to_string rec_);
  output_char oc '\n';
  close_out oc

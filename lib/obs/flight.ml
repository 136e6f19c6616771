(* Flight recorder: a bounded per-node ring of recent telemetry, dumped as
   a deterministic JSON artifact when something goes wrong (an aborted
   operation, an injected fault, a node declared dead).

   The recorder is deliberately independent of the span store: entries are
   scalar snapshots (ints, floats, strings), so Span can feed it without a
   dependency cycle and the dump serializes exactly — Simtime.t is an
   integer nanosecond count, written as a JSON integer. *)

module Simtime = Zapc_sim.Simtime

type entry =
  | Span_open of {
      f_time : Simtime.t;
      f_id : int;
      f_name : string;
      f_op : int;
      f_pod : int;
      f_parent : int option;
    }
  | Span_close of { f_time : Simtime.t; f_id : int }
  | Instant of { f_time : Simtime.t; f_pod : int; f_what : string }
  | Metric of { f_time : Simtime.t; f_name : string; f_value : float }

type ring = {
  buf : entry option array;
  mutable pos : int;  (* next write slot *)
  mutable len : int;  (* entries held, <= capacity *)
}

type t = {
  cap : int;
  rings : (int, ring) Hashtbl.t;  (* node -> ring; -1 = manager scope *)
  mutable dump_dir : string option;
  mutable trips : int;
  mutable last_dump : string option;
}

let create ?(cap = 64) () =
  let cap = max 1 cap in
  { cap; rings = Hashtbl.create 8; dump_dir = None; trips = 0;
    last_dump = None }

let capacity t = t.cap
let set_dump_dir t dir = t.dump_dir <- dir
let trips t = t.trips
let last_dump t = t.last_dump

let ring_for t node =
  match Hashtbl.find_opt t.rings node with
  | Some r -> r
  | None ->
    let r = { buf = Array.make t.cap None; pos = 0; len = 0 } in
    Hashtbl.replace t.rings node r;
    r

let record t ~node e =
  let r = ring_for t node in
  r.buf.(r.pos) <- Some e;
  r.pos <- (r.pos + 1) mod t.cap;
  if r.len < t.cap then r.len <- r.len + 1

let entries t ~node =
  match Hashtbl.find_opt t.rings node with
  | None -> []
  | Some r ->
    (* oldest first: start at pos - len (mod cap) *)
    let out = ref [] in
    for i = r.len - 1 downto 0 do
      let idx = (r.pos - 1 - i + (2 * t.cap)) mod t.cap in
      match r.buf.(idx) with
      | Some e -> out := e :: !out
      | None -> ()
    done;
    List.rev !out

let nodes t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rings [] |> List.sort compare

let clear t =
  Hashtbl.reset t.rings;
  t.trips <- 0;
  t.last_dump <- None

(* JSON rendering — same conventions as Metrics.to_json (deterministic,
   sorted nodes, no inf/nan). *)

let entry_json b e =
  match e with
  | Span_open { f_time; f_id; f_name; f_op; f_pod; f_parent } ->
    Buffer.add_string b
      (Printf.sprintf
         "{\"kind\":\"span_open\",\"time\":%d,\"id\":%d,\"name\":\"%s\",\
          \"op\":%d,\"pod\":%d,\"parent\":%s}"
         f_time f_id (Json.escape f_name) f_op f_pod
         (match f_parent with Some p -> string_of_int p | None -> "null"))
  | Span_close { f_time; f_id } ->
    Buffer.add_string b
      (Printf.sprintf "{\"kind\":\"span_close\",\"time\":%d,\"id\":%d}"
         f_time f_id)
  | Instant { f_time; f_pod; f_what } ->
    Buffer.add_string b
      (Printf.sprintf
         "{\"kind\":\"instant\",\"time\":%d,\"pod\":%d,\"what\":\"%s\"}"
         f_time f_pod (Json.escape f_what))
  | Metric { f_time; f_name; f_value } ->
    Buffer.add_string b
      (Printf.sprintf
         "{\"kind\":\"metric\",\"time\":%d,\"name\":\"%s\",\"value\":%s}"
         f_time (Json.escape f_name) (Json.number f_value))

let to_string t ~time ~reason =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"reason\":\"%s\",\"time\":%d,\"seq\":%d,\"nodes\":["
       (Json.escape reason) time t.trips);
  let first = ref true in
  List.iter
    (fun node ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b (Printf.sprintf "{\"node\":%d,\"entries\":[" node);
      let efirst = ref true in
      List.iter
        (fun e ->
          if not !efirst then Buffer.add_char b ',';
          efirst := false;
          entry_json b e)
        (entries t ~node);
      Buffer.add_string b "]}")
    (nodes t);
  Buffer.add_string b "]}";
  Buffer.contents b

let sanitize reason =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    reason

let trip t ~time ~reason =
  let json = to_string t ~time ~reason in
  t.last_dump <- Some json;
  (match t.dump_dir with
   | None -> ()
   | Some dir ->
     let path =
       Filename.concat dir
         (Printf.sprintf "FLIGHT_%03d_%s.json" t.trips (sanitize reason))
     in
     let oc = open_out path in
     output_string oc json;
     output_char oc '\n';
     close_out oc);
  t.trips <- t.trips + 1

(* Decode a dump back into entries — the round-trip the tests assert. *)

let entry_of_json v =
  let str k = Option.bind (Json.member k v) Json.to_string_opt in
  let num k =
    Option.bind (Json.member k v) Json.to_float |> Option.map int_of_float
  in
  let fl k = Option.bind (Json.member k v) Json.to_float in
  match str "kind" with
  | Some "span_open" -> (
    match (num "time", num "id", str "name", num "op", num "pod") with
    | Some f_time, Some f_id, Some f_name, Some f_op, Some f_pod ->
      let f_parent =
        match Json.member "parent" v with
        | Some Json.Null | None -> None
        | Some p -> Json.to_float p |> Option.map int_of_float
      in
      Some (Span_open { f_time; f_id; f_name; f_op; f_pod; f_parent })
    | _ -> None)
  | Some "span_close" -> (
    match (num "time", num "id") with
    | Some f_time, Some f_id -> Some (Span_close { f_time; f_id })
    | _ -> None)
  | Some "instant" -> (
    match (num "time", num "pod", str "what") with
    | Some f_time, Some f_pod, Some f_what ->
      Some (Instant { f_time; f_pod; f_what })
    | _ -> None)
  | Some "metric" -> (
    match (num "time", str "name", fl "value") with
    | Some f_time, Some f_name, Some f_value ->
      Some (Metric { f_time; f_name; f_value })
    | _ -> None)
  | _ -> None

let entries_of_json v =
  match Option.bind (Json.member "nodes" v) Json.to_list with
  | None -> None
  | Some nodes ->
    let ok = ref true in
    let out =
      List.concat_map
        (fun n ->
          let node =
            match Option.bind (Json.member "node" n) Json.to_float with
            | Some f -> int_of_float f
            | None -> ok := false; -1
          in
          match Option.bind (Json.member "entries" n) Json.to_list with
          | None -> ok := false; []
          | Some es ->
            List.filter_map
              (fun e ->
                match entry_of_json e with
                | Some e -> Some (node, e)
                | None -> ok := false; None)
              es)
        nodes
    in
    if !ok then Some out else None

(* Protocol tracing: the cluster's Zapc_obs.Span recorder, plus the
   Figure-2 rendering of its phase instants (the standalone checkpoint
   overlaps the Manager synchronization, and resume waits for both). *)

module Simtime = Zapc_sim.Simtime
module Span = Zapc_obs.Span
module Phase = Zapc_obs.Phase

type t = Span.t

let create () = Span.create ()
let recorder t = t

(* Span ids travel as plain ints in op records; -1 means the recorder was
   off, so there is no parent to link to. *)
let parent_arg id = if id >= 0 then Some id else None

let dump_chrome t path = Zapc_obs.Chrome.dump t path

let columns =
  Phase.[ Suspended; Net_ckpt_done; Meta_sent; Standalone_done;
          Continue_received; Resumed ]

(* Render the coordinated-checkpoint timeline (one line per pod, phases as
   offsets from the Manager's invocation), in the spirit of Figure 2.  One
   pass over the instants keeps the first time of each (pod, phase). *)
let render_checkpoint t : string =
  let instants = Span.instants t in
  let first = Hashtbl.create 64 in
  let pods = ref [] in
  List.iter
    (fun (i : Span.instant) ->
      if not (Hashtbl.mem first (i.in_pod, i.in_what)) then
        Hashtbl.add first (i.in_pod, i.in_what) i.in_time;
      if i.in_pod >= 0 then pods := i.in_pod :: !pods)
    instants;
  let t0 =
    match Hashtbl.find_opt first (-1, Phase.Ckpt_broadcast) with
    | Some time -> time
    | None -> (match instants with i :: _ -> i.in_time | [] -> Simtime.zero)
  in
  let off time = Simtime.to_ms (Simtime.sub time t0) in
  let fmt = function
    | Some time -> Printf.sprintf "%7.2f" (off time)
    | None -> "      -"
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "checkpoint timeline (ms after Manager broadcast; Figure 2 of the paper)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-6s %7s %7s %7s %7s %7s %7s\n" "pod" "suspnd" "netck" "meta"
       "standa" "contin" "resume");
  List.iter
    (fun pod ->
      Buffer.add_string buf
        (Printf.sprintf "%-6d %s\n" pod
           (String.concat " "
              (List.map (fun what -> fmt (Hashtbl.find_opt first (pod, what)))
                 columns))))
    (List.sort_uniq Int.compare !pods);
  (match Hashtbl.find_opt first (-1, Phase.Continue_broadcast) with
   | Some time ->
     Buffer.add_string buf
       (Printf.sprintf "manager: all meta-data received, 'continue' sent at %7.2f\n"
          (off time))
   | None -> ());
  Buffer.contents buf

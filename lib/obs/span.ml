module Simtime = Zapc_sim.Simtime

type span = {
  sp_id : int;
  sp_name : string;
  sp_op : int;
  sp_pod : int;
  sp_node : int;
  sp_parent : int option;
  sp_begin : Simtime.t;
  mutable sp_end : Simtime.t option;
}

type instant = {
  in_time : Simtime.t;
  in_pod : int;
  in_node : int;
  in_what : string;
}

type event = Opened of span | Closed of span | Instant of instant

type t = {
  mutable enabled : bool;
  mutable spans : span list;       (* newest first *)
  mutable instants : instant list; (* newest first *)
  open_ : (int, span) Hashtbl.t;   (* sp_id -> still-open span *)
  mutable next_id : int;
  mutable last : Simtime.t;
  mutable subscribers : (event -> unit) list;  (* subscription order *)
}

let create () =
  { enabled = true; spans = []; instants = []; open_ = Hashtbl.create 32;
    next_id = 0; last = Simtime.zero; subscribers = [] }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on

let clear t =
  t.spans <- [];
  t.instants <- [];
  Hashtbl.reset t.open_;
  t.next_id <- 0;
  t.last <- Simtime.zero

let subscribe t fn = t.subscribers <- t.subscribers @ [ fn ]
let unsubscribe_all t = t.subscribers <- []

let notify t ev = List.iter (fun fn -> fn ev) t.subscribers

let touch t time = if Simtime.compare time t.last > 0 then t.last <- time

(* What an off recorder hands back: id -1 links to nothing, and the
   [sp_id >= 0] guard in [end_span] keeps it from ever being closed. *)
let off_span =
  { sp_id = -1; sp_name = ""; sp_op = 0; sp_pod = -1; sp_node = -1;
    sp_parent = None; sp_begin = Simtime.zero; sp_end = None }

let begin_span t ~time ?(op = 0) ?(node = -1) ?parent ~pod name =
  if not t.enabled then off_span
  else begin
    let sp =
      { sp_id = t.next_id; sp_name = name; sp_op = op; sp_pod = pod;
        sp_node = node; sp_parent = parent; sp_begin = time; sp_end = None }
    in
    t.next_id <- t.next_id + 1;
    t.spans <- sp :: t.spans;
    Hashtbl.replace t.open_ sp.sp_id sp;
    touch t time;
    notify t (Opened sp);
    sp
  end

let close t ~time sp =
  sp.sp_end <- Some time;
  Hashtbl.remove t.open_ sp.sp_id;
  touch t time;
  notify t (Closed sp)

let end_span t ~time sp =
  if t.enabled && sp.sp_id >= 0 && sp.sp_end = None then close t ~time sp

let end_named t ~time ~pod name =
  t.enabled
  &&
  (* most recently opened match = the open span with the largest id *)
  let best =
    Hashtbl.fold
      (fun _ s acc ->
        if s.sp_name = name && s.sp_pod = pod then
          match acc with
          | Some b when b.sp_id > s.sp_id -> acc
          | _ -> Some s
        else acc)
      t.open_ None
  in
  match best with
  | Some sp -> close t ~time sp; true
  | None -> false

let end_all_for_pod t ~time ~pod =
  if t.enabled then begin
    let victims =
      Hashtbl.fold
        (fun _ s acc -> if s.sp_pod = pod then s :: acc else acc)
        t.open_ []
    in
    (* close in id order so subscribers see a deterministic sequence *)
    List.iter (fun sp -> close t ~time sp)
      (List.sort (fun a b -> compare a.sp_id b.sp_id) victims);
    touch t time
  end

let instant t ~time ?(node = -1) ~pod what =
  if t.enabled then begin
    let i = { in_time = time; in_pod = pod; in_node = node; in_what = what } in
    t.instants <- i :: t.instants;
    touch t time;
    notify t (Instant i)
  end

let spans t =
  List.sort
    (fun a b ->
      match Simtime.compare a.sp_begin b.sp_begin with
      | 0 -> compare a.sp_id b.sp_id
      | c -> c)
    t.spans

let instants t =
  List.stable_sort
    (fun a b -> Simtime.compare a.in_time b.in_time)
    (List.rev t.instants)

let open_spans t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.open_ []
  |> List.sort (fun a b -> compare a.sp_id b.sp_id)

let open_count t = Hashtbl.length t.open_
let last_time t = t.last

let find_span t id =
  List.find_opt (fun s -> s.sp_id = id) t.spans

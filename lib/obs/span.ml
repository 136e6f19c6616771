module Simtime = Zapc_sim.Simtime

type span = {
  sp_id : int;
  sp_name : Phase.t;
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
  in_what : Phase.t;
}

type event = Opened of span | Closed of span | Instant of instant

type t = {
  mutable enabled : bool;
  mutable spans : span list;       (* newest first *)
  mutable instants : instant list; (* newest first *)
  open_ : (int * Phase.t, span list) Hashtbl.t;
  (* (pod, name) -> its still-open spans, newest first; a key whose last
     span closes leaves the table *)
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
  { sp_id = -1; sp_name = Phase.Mgr_sync; sp_op = 0; sp_pod = -1; sp_node = -1;
    sp_parent = None; sp_begin = Simtime.zero; sp_end = None }

let stack t key = Option.value ~default:[] (Hashtbl.find_opt t.open_ key)

let begin_span t ~time ?(op = 0) ?(node = -1) ?parent ~pod name =
  if not t.enabled then off_span
  else begin
    let sp =
      { sp_id = t.next_id; sp_name = name; sp_op = op; sp_pod = pod;
        sp_node = node; sp_parent = parent; sp_begin = time; sp_end = None }
    in
    t.next_id <- t.next_id + 1;
    t.spans <- sp :: t.spans;
    let key = (pod, name) in
    Hashtbl.replace t.open_ key (sp :: stack t key);
    touch t time;
    notify t (Opened sp);
    sp
  end

let close t ~time sp =
  sp.sp_end <- Some time;
  let key = (sp.sp_pod, sp.sp_name) in
  (match List.filter (fun s -> s != sp) (stack t key) with
   | [] -> Hashtbl.remove t.open_ key
   | rest -> Hashtbl.replace t.open_ key rest);
  touch t time;
  notify t (Closed sp)

let end_span t ~time sp =
  if t.enabled && sp.sp_id >= 0 && sp.sp_end = None then close t ~time sp

(* the newest open span of (pod, name) heads its stack *)
let end_named t ~time ~pod name =
  t.enabled
  &&
  match Hashtbl.find_opt t.open_ (pod, name) with
  | Some (sp :: _) -> close t ~time sp; true
  | _ -> false

let open_spans_where t keep =
  Hashtbl.fold
    (fun (pod, _) stack acc -> if keep pod then List.rev_append stack acc else acc)
    t.open_ []
  |> List.sort (fun a b -> compare a.sp_id b.sp_id)

let end_all_for_pod t ~time ~pod =
  if t.enabled then begin
    (* close in id order so subscribers see a deterministic sequence *)
    List.iter (fun sp -> close t ~time sp) (open_spans_where t (Int.equal pod));
    touch t time
  end

(* Off, an instant is still delivered: recording and delivery are
   separate, and with no subscriber the off path allocates nothing. *)
let instant t ~time ~node ~pod what =
  if t.enabled then begin
    let i = { in_time = time; in_pod = pod; in_node = node; in_what = what } in
    t.instants <- i :: t.instants;
    touch t time;
    notify t (Instant i)
  end
  else if t.subscribers <> [] then
    notify t (Instant { in_time = time; in_pod = pod; in_node = node; in_what = what })

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

let open_spans t = open_spans_where t (fun _ -> true)

let open_count t = Hashtbl.fold (fun _ stack n -> n + List.length stack) t.open_ 0
let last_time t = t.last

let find_span t id =
  List.find_opt (fun s -> s.sp_id = id) t.spans

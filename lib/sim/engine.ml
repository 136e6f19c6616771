exception Deadlock of string

type prof = { mutable p_count : int; mutable p_host : float }

type t = {
  mutable clock : Simtime.t;
  queue : (unit -> unit) Calq.t;
  rng : Rng.t;
  mutable processed : int;
  mutable profile : (string, prof) Hashtbl.t option;
}

let nop () = ()

let create ?(seed = 42) () =
  { clock = Simtime.zero; queue = Calq.create ~dummy:nop (); rng = Rng.create ~seed;
    processed = 0; profile = None }

let now t = t.clock
let rng t = t.rng

let set_profiling t on =
  if on then begin
    match t.profile with
    | Some _ -> ()
    | None -> t.profile <- Some (Hashtbl.create 32)
  end
  else t.profile <- None

let profiling t = t.profile <> None

let prof_for tbl label =
  match Hashtbl.find_opt tbl label with
  | Some p -> p
  | None ->
    let p = { p_count = 0; p_host = 0. } in
    Hashtbl.replace tbl label p;
    p

(* Profiling wraps the callback at schedule time, so the run loop itself
   stays untouched: with profiling off (the default) the hot path is
   exactly the unlabeled push/pop it always was. *)
let instrument t label fn =
  match t.profile with
  | None -> fn
  | Some tbl ->
    let p = prof_for tbl (match label with Some l -> l | None -> "unlabeled") in
    fun () ->
      let t0 = Unix.gettimeofday () in
      fn ();
      p.p_count <- p.p_count + 1;
      p.p_host <- p.p_host +. (Unix.gettimeofday () -. t0)

let schedule_at t ?label ~at fn =
  let at = if Simtime.compare at t.clock < 0 then t.clock else at in
  Calq.push t.queue ~key:at (instrument t label fn)

let schedule t ?label ~delay fn =
  schedule_at t ?label ~at:(Simtime.add t.clock delay) fn

let profile t =
  match t.profile with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun l p acc -> (l, p.p_count, p.p_host) :: acc) tbl []
    |> List.sort (fun (la, ca, _) (lb, cb, _) ->
           match compare cb ca with 0 -> compare la lb | c -> c)

let pending t = Calq.length t.queue

let run ?until ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let continue = ref true in
  while !continue && !budget > 0 do
    let next =
      (* a single root access per event: pop-if-due instead of peek+pop *)
      match until with
      | None -> Calq.pop t.queue
      | Some limit -> Calq.pop_if_le t.queue ~limit
    in
    match next with
    | Some (at, fn) ->
      t.clock <- at;
      t.processed <- t.processed + 1;
      decr budget;
      fn ()
    | None ->
      (match until with
       | Some limit when pending t > 0 && Simtime.compare limit t.clock > 0 ->
         (* queue non-empty but nothing due: the horizon was reached.  A
            horizon already in the past leaves the clock alone — moving it
            backward would queue later events behind ones already run. *)
         t.clock <- limit
       | _ -> ());
      continue := false
  done

let events_processed t = t.processed

(* ---- cancellable timers ----

   A timer keeps at most one live trampoline in the queue however often it
   is re-armed: re-arming later just moves the deadline and lets the queued
   trampoline lazily re-queue itself when it fires early, and cancelling
   clears the deadline so the trampoline becomes a no-op.  Hot rescheduling
   paths (TCP retransmit on every ACK, heartbeats) therefore stop flooding
   the queue with dead closures. *)

type timer = {
  mutable tm_deadline : Simtime.t;  (* negative = inactive *)
  mutable tm_queued : Simtime.t;    (* earliest queued trampoline, negative = none *)
  tm_fn : unit -> unit;
  tm_label : string option;
}

let rec timer_tick t tm () =
  tm.tm_queued <- Simtime.ns (-1);
  let d = tm.tm_deadline in
  if Simtime.compare d Simtime.zero >= 0 then begin
    if Simtime.compare d t.clock <= 0 then begin
      tm.tm_deadline <- Simtime.ns (-1);
      tm.tm_fn ()
    end
    else timer_queue t tm (* re-armed later: lazily re-queue at the deadline *)
  end

and timer_queue t tm =
  tm.tm_queued <- tm.tm_deadline;
  schedule_at t ?label:tm.tm_label ~at:tm.tm_deadline (timer_tick t tm)

let timer ?label fn =
  { tm_deadline = Simtime.ns (-1); tm_queued = Simtime.ns (-1);
    tm_fn = fn; tm_label = label }

(* (Re-)arm to fire at [at] (clamped to now).  Arming an active timer moves
   its deadline; the callback fires once per arm..fire cycle. *)
let timer_arm t tm ~at =
  let at = if Simtime.compare at t.clock < 0 then t.clock else at in
  tm.tm_deadline <- at;
  if Simtime.compare tm.tm_queued Simtime.zero < 0
     || Simtime.compare tm.tm_queued at > 0
  then timer_queue t tm

let timer_arm_in t tm ~delay = timer_arm t tm ~at:(Simtime.add t.clock delay)
let timer_cancel tm = tm.tm_deadline <- Simtime.ns (-1)
let timer_active tm = Simtime.compare tm.tm_deadline Simtime.zero >= 0

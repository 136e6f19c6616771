(* A wait queue of closures, each queued at most once (physical equality).
   Queues stay short, bounded by the waiters of one resource, so the
   duplicate check is a scan.  Every queue has an id, handed to the
   closures it wakes, so a waiter on many queues can tell which fired. *)

type t = { id : int; mutable ws : (int -> unit) list (* newest first *) }

let no_id = -1
let next_id = ref 0

let create () =
  incr next_id;
  { id = !next_id; ws = [] }

let id t = t.id

let add t w = if not (List.memq w t.ws) then t.ws <- w :: t.ws

let wake t =
  match t.ws with
  | [] -> ()
  | [ w ] ->
    t.ws <- [];
    w t.id
  | ws ->
    t.ws <- [];
    List.iter (fun w -> w t.id) (List.rev ws)

let length t = List.length t.ws
let count t w = List.fold_left (fun n w' -> if w' == w then n + 1 else n) 0 t.ws

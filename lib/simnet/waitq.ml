(* A wait queue of closures, each queued at most once (physical equality).
   Queues stay short, bounded by the waiters of one resource, so the
   duplicate check is a scan. *)

type t = { mutable ws : (unit -> unit) list (* newest first *) }

let create () = { ws = [] }

let add t w = if not (List.memq w t.ws) then t.ws <- w :: t.ws

let wake t =
  match t.ws with
  | [] -> ()
  | [ w ] ->
    t.ws <- [];
    w ()
  | ws ->
    t.ws <- [];
    List.iter (fun w -> w ()) (List.rev ws)

let length t = List.length t.ws

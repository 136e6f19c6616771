(* Per-process file descriptor table.  Entries reference shared kernel
   objects (sockets, pipe ends); spawn copies the parent's table so children
   share the underlying objects, like fork(2). *)

module Socket = Zapc_simnet.Socket

type entry =
  | Fsock of Socket.t
  | Fpipe_r of Pipe.t
  | Fpipe_w of Pipe.t
  | Fgm of Zapc_simnet.Gmdev.port  (* kernel-bypass messaging port *)

(* [index] answers lookups (slot [fd] holds what [entries] maps [fd] to);
   [entries] alone gives the fold/iter order that images and exit-close
   follow.  [gen] counts the changes, so a cached resolution of fds (a
   process's poll set) knows when it is stale. *)
type t = {
  entries : (int, entry) Hashtbl.t;
  mutable index : entry option array;
  mutable next_fd : int;
  mutable gen : int;
}

let create () = { entries = Hashtbl.create 8; index = [||]; next_fd = 3; gen = 0 }

let add_at t fd entry =
  let n = Array.length t.index in
  if fd >= n then begin
    let grown = Array.make (Stdlib.max (fd + 1) (2 * n)) None in
    Array.blit t.index 0 grown 0 n;
    t.index <- grown
  end;
  t.index.(fd) <- Some entry;
  Hashtbl.replace t.entries fd entry;
  t.gen <- t.gen + 1;
  if fd >= t.next_fd then t.next_fd <- fd + 1

let add t entry =
  let fd = t.next_fd in
  add_at t fd entry;
  fd

let find t fd = if fd >= 0 && fd < Array.length t.index then Array.unsafe_get t.index fd else None

let remove t fd =
  Hashtbl.remove t.entries fd;
  t.gen <- t.gen + 1;
  if fd >= 0 && fd < Array.length t.index then t.index.(fd) <- None

let socket t fd =
  match find t fd with
  | Some (Fsock s) -> Some s
  | Some (Fpipe_r _ | Fpipe_w _ | Fgm _) | None -> None

let fold t f acc = Hashtbl.fold f t.entries acc
let iter t f = Hashtbl.iter f t.entries
let cardinal t = Hashtbl.length t.entries
let generation t = t.gen

(* Copy for spawn: shares the underlying objects and bumps pipe end
   refcounts.  Socket sharing needs no per-object count here because the
   kernel tracks socket fd references itself. *)
let copy t =
  let t' =
    { entries = Hashtbl.copy t.entries; index = Array.copy t.index; next_fd = t.next_fd; gen = 0 }
  in
  Hashtbl.iter
    (fun _ e ->
      match e with
      | Fpipe_r p -> p.Pipe.rd_refs <- p.Pipe.rd_refs + 1
      | Fpipe_w p -> p.Pipe.wr_refs <- p.Pipe.wr_refs + 1
      | Fsock _ | Fgm _ -> ())
    t.entries;
  t'

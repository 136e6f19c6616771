(* A process's poll set: its last Poll request list resolved against its fd
   table, and which of the wait queues that poll registers on still hold
   the process's waker.  See pollset.mli for the exactness argument.

   A kernel poll of hundreds of fds rebuilds the set whenever its list
   changes, so a rebuild allocates nothing once the arrays have grown to
   the list's size: entries and queues live in reused arrays (the first
   [n] and [nq] slots count), and a queue's id maps to its index through
   an open-addressing table of reused int arrays, whose slots count only
   when they carry the current build's stamp (so a rebuild need not clear
   them). *)

module Socket = Zapc_simnet.Socket
module Waitq = Zapc_simnet.Waitq
module Gmdev = Zapc_simnet.Gmdev

(* The distinct wait queues a set's entries register on.  A set keeps two
   and swaps them at a rebuild, so the new one can ask the old one which
   queues still hold the waker. *)
type qtab = {
  mutable nq : int;
  mutable queues : Waitq.t array;
  mutable armed : bool array;  (* the waker is on it *)
  mutable wanted : bool array;
      (* some entry registers on it because it asks for that direction (a
         pipe end registers either way), so its being armed since a poll
         that blocked means that direction was not ready *)
  mutable q_entry : int array;  (* the first entry that registers on it *)
  (* queue id -> index: a slot is taken when it carries [stamp] *)
  mutable stamp : int;
  mutable slot_stamp : int array;
  mutable slot_id : int array;
  mutable slot_q : int array;
}

type t = {
  mutable valid : bool;
  (* the key: this very list, this very table at this generation *)
  mutable reqs : Syscall.poll_req list;
  mutable fds : Fdtable.t;
  mutable gen : int;
  (* per entry, in request order *)
  mutable n : int;
  mutable reqa : Syscall.poll_req array;
  mutable objs : Fdtable.entry option array;
  mutable cand : bool array;  (* re-checked at the next poll *)
  mutable cands : int list;  (* the flagged entries that are not [always] *)
  mutable ncands : int;
  mutable always : int list;  (* want_read = false or no such fd; descending *)
  mutable qs : qtab;
  mutable spare : qtab;
  mutable shared : (int * int) list;  (* (queue, entry) for each entry but a queue's first *)
  mutable lost : int list;  (* queues without the waker, to re-queue it on at a block *)
}

let no_table = Fdtable.create ()
let no_queue = Waitq.create ()
let no_req = { Syscall.pfd = -1; want_read = false; want_write = false }

let qtab () =
  { nq = 0; queues = [||]; armed = [||]; wanted = [||]; q_entry = [||]; stamp = 0;
    slot_stamp = [||]; slot_id = [||]; slot_q = [||] }

let create () =
  {
    valid = false;
    reqs = [];
    fds = no_table;
    gen = 0;
    n = 0;
    reqa = [||];
    objs = [||];
    cand = [||];
    cands = [];
    ncands = 0;
    always = [];
    qs = qtab ();
    spare = qtab ();
    shared = [];
    lost = [];
  }

(* Room for [n] entries. *)
let reserve t n =
  if Array.length t.reqa < n then begin
    let cap = Stdlib.max n (2 * Array.length t.reqa) in
    t.reqa <- Array.make cap no_req;
    t.objs <- Array.make cap None;
    t.cand <- Array.make cap false
  end

(* Room for [nq] queues, with an id table at most half full. *)
let reserve_queues q nq =
  if Array.length q.queues < nq || Array.length q.slot_id = 0 then begin
    let cap = Stdlib.max (Stdlib.max nq 8) (2 * Array.length q.queues) in
    q.queues <- Array.make cap no_queue;
    q.armed <- Array.make cap false;
    q.wanted <- Array.make cap false;
    q.q_entry <- Array.make cap 0;
    let slots = ref 8 in
    while !slots < 2 * cap do
      slots := 2 * !slots
    done;
    q.stamp <- 0;
    q.slot_stamp <- Array.make !slots 0;
    q.slot_id <- Array.make !slots 0;
    q.slot_q <- Array.make !slots 0
  end

(* The slot holding queue id [id], or the free slot where it belongs. *)
let slot_of q id =
  let mask = Array.length q.slot_id - 1 in
  let rec probe i =
    if q.slot_stamp.(i) <> q.stamp || q.slot_id.(i) = id then i else probe ((i + 1) land mask)
  in
  probe (id land mask)

let taken q i = q.slot_stamp.(i) = q.stamp

(* The index of queue id [id], or -1. *)
let find q id =
  if Array.length q.slot_id = 0 then -1
  else
    let i = slot_of q id in
    if taken q i then q.slot_q.(i) else -1

let mark t e =
  if not t.cand.(e) then begin
    t.cand.(e) <- true;
    t.cands <- e :: t.cands;
    t.ncands <- t.ncands + 1
  end

(* Entry [e] registers on [queue], asking for its direction if [wants]:
   whether the queue holds the waker since a poll that found that
   direction not ready.  A queue new to the set counts as armed when the
   set it replaces had it armed and wanted: it cannot have fired since, or
   that set would have seen it. *)
let link t ~old q e ~wants queue =
  let id = Waitq.id queue in
  let i = slot_of q id in
  if not (taken q i) then begin
    let qi = q.nq in
    let armed =
      let oi = find old id in
      oi >= 0 && old.armed.(oi) && old.wanted.(oi)
    in
    q.slot_stamp.(i) <- q.stamp;
    q.slot_id.(i) <- id;
    q.slot_q.(i) <- qi;
    q.queues.(qi) <- queue;
    q.armed.(qi) <- armed;
    q.wanted.(qi) <- wants;
    q.q_entry.(qi) <- e;
    q.nq <- qi + 1;
    if not armed then t.lost <- qi :: t.lost;
    armed
  end
  else begin
    let qi = q.slot_q.(i) in
    t.shared <- (qi, e) :: t.shared;
    q.wanted.(qi) <- q.wanted.(qi) || wants;
    q.armed.(qi)
  end

let build t fds reqs =
  let n = List.length reqs in
  reserve t n;
  let old = t.qs and q = t.spare in
  reserve_queues q (2 * n);
  q.stamp <- q.stamp + 1;
  q.nq <- 0;
  t.shared <- [];
  t.lost <- [];
  t.always <- [];
  t.cands <- [];
  t.ncands <- 0;
  let on e want queue = (not want) || link t ~old q e ~wants:true queue in
  let pipe e want queue = link t ~old q e ~wants:want queue || not want in
  List.iteri
    (fun e (r : Syscall.poll_req) ->
      let obj = Fdtable.find fds r.pfd in
      t.reqa.(e) <- r;
      t.objs.(e) <- obj;
      (* the queues a blocked poll registers its waker on: the read queue
         when it asks to read (a pipe's read end always), the write queue
         when it asks to write (a pipe's write end always) *)
      let armed =
        match obj with
        | Some (Fdtable.Fsock s) ->
          let rd = on e r.want_read s.Socket.rd_waiters in
          on e r.want_write s.Socket.wr_waiters && rd
        | Some (Fdtable.Fpipe_r pi) -> pipe e r.want_read pi.Pipe.rd_waiters
        | Some (Fdtable.Fpipe_w pi) -> pipe e r.want_write pi.Pipe.wr_waiters
        | Some (Fdtable.Fgm port) -> on e r.want_read port.Gmdev.rd_waiters
        | None -> true
      in
      t.cand.(e) <- false;
      if (not r.want_read) || Option.is_none obj then begin
        t.cand.(e) <- true;
        t.always <- e :: t.always
      end
      else if not armed then mark t e)
    reqs;
  t.qs <- q;
  t.spare <- old;
  t.valid <- true;
  t.reqs <- reqs;
  t.fds <- fds;
  t.gen <- Fdtable.generation fds;
  t.n <- n

(* Whether one request is reported, and with what.  This is the whole of
   the readiness test, so it must not allocate for an fd it does not
   report: [Socket.poll_relevant] reads socket fields, and the [d_poll]
   record is built only for the fds reported. *)
let report (r : Syscall.poll_req) obj acc =
  match obj with
  | None ->
    (r.pfd, { Socket.readable = false; writable = false; pollerr = true; hangup = false }) :: acc
  | Some (Fdtable.Fsock s) ->
    if Socket.poll_relevant s ~want_read:r.want_read ~want_write:r.want_write then
      (r.pfd, s.dispatch.d_poll s) :: acc
    else acc
  | Some (Fdtable.Fpipe_r pi) ->
    let readable = (not (Zapc_simnet.Sockbuf.is_empty pi.buf)) || pi.wr_refs = 0 in
    if readable && r.want_read then
      (r.pfd, { Socket.readable = true; writable = false; pollerr = false; hangup = pi.wr_refs = 0 })
      :: acc
    else acc
  | Some (Fdtable.Fpipe_w pi) ->
    let writable = Pipe.space pi > 0 || pi.rd_refs = 0 in
    if writable && r.want_write then
      (r.pfd, { Socket.readable = false; writable = true; pollerr = pi.rd_refs = 0; hangup = false })
      :: acc
    else acc
  | Some (Fdtable.Fgm port) ->
    let readable = not (Queue.is_empty port.Gmdev.rxq) in
    if (readable && r.want_read) || port.Gmdev.closed then
      (r.pfd, { Socket.readable; writable = true; pollerr = port.Gmdev.closed; hangup = false })
      :: acc
    else acc

let scan fds reqs =
  List.fold_right (fun (r : Syscall.poll_req) acc -> report r (Fdtable.find fds r.pfd) acc) reqs []

(* Two descending lists of distinct entries, merged descending. *)
let rec merge_desc a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' -> if x > y then x :: merge_desc a' b else y :: merge_desc a b'

(* The candidates in request order: a few are sorted, many are found by
   their flags. *)
let poll t fds reqs =
  if not (t.valid && t.reqs == reqs && t.fds == fds && t.gen = Fdtable.generation fds) then
    build t fds reqs;
  if 4 * t.ncands >= t.n then begin
    let acc = ref [] in
    for e = t.n - 1 downto 0 do
      if t.cand.(e) then acc := report t.reqa.(e) t.objs.(e) !acc
    done;
    !acc
  end
  else
    let order = merge_desc (List.sort (fun a b -> compare b a) t.cands) t.always in
    List.fold_left (fun acc e -> report t.reqa.(e) t.objs.(e) acc) [] order

let arm t waker =
  let q = t.qs in
  List.iter
    (fun qi ->
      Waitq.add q.queues.(qi) waker;
      q.armed.(qi) <- true)
    t.lost;
  List.iter (fun e -> t.cand.(e) <- false) t.cands;
  t.cands <- [];
  t.ncands <- 0;
  t.lost <- []

let note t qid =
  let q = t.qs in
  let qi = if qid = Waitq.no_id then -1 else find q qid in
  if qi >= 0 && q.armed.(qi) then begin
    q.armed.(qi) <- false;
    t.lost <- qi :: t.lost;
    mark t q.q_entry.(qi);
    List.iter (fun (q', e) -> if q' = qi then mark t e) t.shared
  end

(* Unidirectional in-kernel pipes: the interprocess-communication resource
   (besides sockets) that pod checkpoints must capture.  Reference counts
   track how many fd-table entries point at each end (spawn inherits fds). *)

module Sockbuf = Zapc_simnet.Sockbuf
module Waitq = Zapc_simnet.Waitq

type t = {
  id : int;
  buf : Sockbuf.t;
  capacity : int;
  mutable rd_refs : int;
  mutable wr_refs : int;
  rd_waiters : Waitq.t;
  wr_waiters : Waitq.t;
}

let default_capacity = 65536

let create ~id =
  { id; buf = Sockbuf.create (); capacity = default_capacity; rd_refs = 1; wr_refs = 1;
    rd_waiters = Waitq.create (); wr_waiters = Waitq.create () }

let wake_readers t = Waitq.wake t.rd_waiters
let wake_writers t = Waitq.wake t.wr_waiters
let wait_readable t w = Waitq.add t.rd_waiters w
let wait_writable t w = Waitq.add t.wr_waiters w

let space t = Stdlib.max 0 (t.capacity - Sockbuf.length t.buf)

type rres = Pdata of string | Peof | Pblock

let read t n =
  if not (Sockbuf.is_empty t.buf) then Pdata (Sockbuf.pop t.buf n)
  else if t.wr_refs = 0 then Peof
  else Pblock

type wres = Pwrote of int | Pepipe | Pwblock

let write t data =
  if t.rd_refs = 0 then Pepipe
  else begin
    let n = min (space t) (String.length data) in
    if n = 0 then Pwblock
    else begin
      Sockbuf.push t.buf (String.sub data 0 n);
      wake_readers t;
      Pwrote n
    end
  end

let after_read t = if space t > 0 then wake_writers t

let close_read t =
  t.rd_refs <- Stdlib.max 0 (t.rd_refs - 1);
  if t.rd_refs = 0 then wake_writers t

let close_write t =
  t.wr_refs <- Stdlib.max 0 (t.wr_refs - 1);
  if t.wr_refs = 0 then wake_readers t

(* Two-level calendar event queue.

   Level 1 is a ring of fixed-width time buckets; scheduling within its
   horizon appends the event, unsorted, to the bucket covering its
   timestamp — two unboxed array stores, no entry record, no sift.  When
   the clock enters a bucket its arrays are stolen and sorted once,
   becoming the current "run" that pops consume by bumping an index.
   Level 2 is a coarser ring whose bucket width equals the whole level-1
   horizon: as the clock crosses a level-1 horizon boundary the next
   level-2 bucket spills into level 1, re-bucketing each entry in O(1).
   Events beyond even the level-2 horizon (rare: minutes out) wait in a
   plain [Pheap] and migrate into level 2 as its horizon slides.
   Latecomers — events scheduled at or before the current bucket, e.g.
   zero-delay follow-ups — go through a small binary heap whose size
   tracks live same-bucket stragglers, not total pending events.

   An occupancy bitmap over the level-1 ring (one bit per slot, 32 slots
   per word, plus one summary bit per bitmap word) lets a refill jump to
   the next occupied slot instead of stepping through empty ones: a bit is
   set when its slot turns non-empty and cleared when the slot is stolen
   as the run, so a refill costs O(occupied words), not O(empty slots).
   The search starts just past the current bucket and stops at the end of
   the current coarse bucket (which spans exactly the ring, so it never
   wraps); finding nothing there, the refill spills the next coarse
   bucket and searches again from slot 0.  When both rings are empty the
   calendar jumps straight to the next occupied coarse bucket.  The
   bitmap decides only how fast a refill finds its bucket, never which
   entry pops next.

   Every slot provably holds entries of a single (virtual) bucket index,
   so a ring entry only needs its key offset within the bucket plus its
   sequence number — packed into one non-negative int, compared as one
   int, with the absolute key rebuilt from the bucket base on drain.
   Draining sorts the (packed, index) int pair through a reused scratch;
   the value array stays in append order and is read through the index
   permutation, so the sort never stores a pointer (no GC write
   barriers).

   The observable order is (key, seq) with one global sequence counter —
   exactly [Pheap]'s order, so equal-key events fire in scheduling order.
   Keys must be non-negative; keys behind the current bucket still pop
   correctly (they land in the latecomer heap) but forfeit the O(1)
   path. *)

type 'a t = {
  dummy : 'a;
  shift : int;           (* L1 bucket width = 2^shift key units *)
  b1 : int;              (* log2 of L1 bucket count *)
  mask1 : int;           (* L1 slot mask *)
  wmask1 : int;          (* key-offset mask within an L1 bucket *)
  sb1 : int;             (* seq bits in an L1 packed entry *)
  smask1 : int;
  shift2 : int;          (* = shift + b1: L2 bucket width exponent *)
  n2 : int;              (* L2 bucket count, power of two *)
  mask2 : int;
  wmask2 : int;
  sb2 : int;
  smask2 : int;
  (* latecomer heap: entries at or before the current bucket *)
  mutable nk : int array;
  mutable ns : int array;
  mutable nv : 'a array;
  mutable nsize : int;
  (* level-1 ring: packed (offset, seq) + value per entry *)
  r1p : int array array;
  r1v : 'a array array;
  r1n : int array;
  occ : int array;       (* bit (s land 31) of word (s lsr 5): slot s non-empty *)
  occ_sum : int array;   (* bit (w land 31) of word (w lsr 5): occ.(w) <> 0 *)
  mutable count1 : int;
  mutable cur_vb : int;  (* virtual L1 bucket index the clock is in *)
  (* level-2 ring *)
  r2p : int array array;
  r2v : 'a array array;
  r2n : int array;
  mutable count2 : int;
  (* sorted run: the drained current bucket, consumed in order *)
  mutable rp : int array;
  mutable ridx : int array;
  mutable rv : 'a array;
  mutable rbase : int;   (* absolute key base of the run's bucket *)
  mutable rpos : int;
  mutable rlen : int;
  (* merge-sort scratch, reused across drains *)
  mutable scp : int array;
  mutable sci : int array;
  (* overflow heap beyond the L2 horizon; values carry their original
     global sequence *)
  far : (int * 'a) Pheap.t;
  mutable size : int;
  mutable next_seq : int;
}

let default_shift = 10   (* ~1us L1 buckets at ns resolution *)
let default_b1 = 12      (* 4096 L1 buckets: ~4.2ms L1 horizon *)
let default_buckets2 = 8192  (* 8192 x 4.2ms: ~34s L2 horizon *)

let create ?(shift = default_shift) ?(b1 = default_b1)
    ?(buckets2 = default_buckets2) ~dummy () =
  if shift <= 0 || b1 <= 0 || shift + b1 > 26 then
    invalid_arg "Calq.create: shift/b1 out of range";
  if buckets2 <= 0 || buckets2 land (buckets2 - 1) <> 0 then
    invalid_arg "Calq.create: buckets2 must be a power of two";
  let n1 = 1 lsl b1 in
  let words = (n1 + 31) lsr 5 in
  let sb1 = 62 - shift and sb2 = 62 - shift - b1 in
  {
    dummy;
    shift;
    b1;
    mask1 = n1 - 1;
    wmask1 = (1 lsl shift) - 1;
    sb1;
    smask1 = (1 lsl sb1) - 1;
    shift2 = shift + b1;
    n2 = buckets2;
    mask2 = buckets2 - 1;
    wmask2 = (1 lsl (shift + b1)) - 1;
    sb2;
    smask2 = (1 lsl sb2) - 1;
    nk = [||];
    ns = [||];
    nv = [||];
    nsize = 0;
    r1p = Array.make n1 [||];
    r1v = Array.make n1 [||];
    r1n = Array.make n1 0;
    occ = Array.make words 0;
    occ_sum = Array.make ((words + 31) lsr 5) 0;
    count1 = 0;
    cur_vb = 0;
    r2p = Array.make buckets2 [||];
    r2v = Array.make buckets2 [||];
    r2n = Array.make buckets2 0;
    count2 = 0;
    rp = [||];
    ridx = [||];
    rv = [||];
    rbase = 0;
    rpos = 0;
    rlen = 0;
    scp = [||];
    sci = [||];
    far = Pheap.create ();
    size = 0;
    next_seq = 0;
  }

let is_empty h = h.size = 0
let length h = h.size

(* ---- latecomer heap (parallel arrays, (key, seq) min order) ---- *)

let near_grow h =
  let cap = Array.length h.nk in
  if h.nsize = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nk = Array.make ncap 0 and ns = Array.make ncap 0 in
    let nv = Array.make ncap h.dummy in
    Array.blit h.nk 0 nk 0 h.nsize;
    Array.blit h.ns 0 ns 0 h.nsize;
    Array.blit h.nv 0 nv 0 h.nsize;
    h.nk <- nk;
    h.ns <- ns;
    h.nv <- nv
  end

let near_push h key seq v =
  near_grow h;
  let nk = h.nk and ns = h.ns and nv = h.nv in
  let i = ref h.nsize in
  h.nsize <- h.nsize + 1;
  nk.(!i) <- key;
  ns.(!i) <- seq;
  nv.(!i) <- v;
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    nk.(!i) < nk.(p) || (nk.(!i) = nk.(p) && ns.(!i) < ns.(p))
  do
    let p = (!i - 1) / 2 in
    let tk = nk.(p) and ts = ns.(p) and tv = nv.(p) in
    nk.(p) <- nk.(!i);
    ns.(p) <- ns.(!i);
    nv.(p) <- nv.(!i);
    nk.(!i) <- tk;
    ns.(!i) <- ts;
    nv.(!i) <- tv;
    i := p
  done

(* assumes nsize > 0 *)
let near_pop h =
  let nk = h.nk and ns = h.ns and nv = h.nv in
  let k = nk.(0) and v = nv.(0) in
  let n = h.nsize - 1 in
  h.nsize <- n;
  if n > 0 then begin
    nk.(0) <- nk.(n);
    ns.(0) <- ns.(n);
    nv.(0) <- nv.(n);
    nv.(n) <- h.dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < n && (nk.(l) < nk.(!m) || (nk.(l) = nk.(!m) && ns.(l) < ns.(!m)))
      then m := l;
      if r < n && (nk.(r) < nk.(!m) || (nk.(r) = nk.(!m) && ns.(r) < ns.(!m)))
      then m := r;
      if !m = !i then continue := false
      else begin
        let tk = nk.(!m) and ts = ns.(!m) and tv = nv.(!m) in
        nk.(!m) <- nk.(!i);
        ns.(!m) <- ns.(!i);
        nv.(!m) <- nv.(!i);
        nk.(!i) <- tk;
        ns.(!i) <- ts;
        nv.(!i) <- tv;
        i := !m
      end
    done
  end
  else nv.(0) <- h.dummy;
  (k, v)

(* ---- ring slots (shared append for both levels) ---- *)

let slot_add dummy rp rv rn s packed v =
  let n = Array.unsafe_get rn s in
  let p = Array.unsafe_get rp s in
  if n = Array.length p then begin
    let ncap = if n = 0 then 16 else n * 2 in
    let p' = Array.make ncap 0 in
    let v' = Array.make ncap dummy in
    Array.blit p 0 p' 0 n;
    Array.blit (Array.unsafe_get rv s) 0 v' 0 n;
    Array.unsafe_set rp s p';
    Array.unsafe_set rv s v';
    Array.unsafe_set p' n packed;
    Array.unsafe_set v' n v
  end
  else begin
    Array.unsafe_set p n packed;
    Array.unsafe_set (Array.unsafe_get rv s) n v
  end;
  Array.unsafe_set rn s (n + 1)

(* ---- level-1 occupancy bitmap ---- *)

(* Count trailing zeros of a non-zero 32-bit word: isolate the lowest set
   bit and hash it through a de Bruijn sequence. *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x =
  Array.unsafe_get debruijn32
    ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let occ_set h s =
  let w = s lsr 5 in
  let o = Array.unsafe_get h.occ w in
  if o = 0 then begin
    let sw = w lsr 5 in
    Array.unsafe_set h.occ_sum sw
      (Array.unsafe_get h.occ_sum sw lor (1 lsl (w land 31)))
  end;
  Array.unsafe_set h.occ w (o lor (1 lsl (s land 31)))

let occ_clear h s =
  let w = s lsr 5 in
  let o = Array.unsafe_get h.occ w land lnot (1 lsl (s land 31)) in
  Array.unsafe_set h.occ w o;
  if o = 0 then begin
    let sw = w lsr 5 in
    Array.unsafe_set h.occ_sum sw
      (Array.unsafe_get h.occ_sum sw land lnot (1 lsl (w land 31)))
  end

(* First occupied level-1 slot at or after [s], or -1 if none. *)
let find_next h s =
  let w = s lsr 5 in
  let o = Array.unsafe_get h.occ w land (-1 lsl (s land 31)) in
  if o <> 0 then (w lsl 5) lor ctz32 o
  else begin
    let w = w + 1 in
    let nsum = Array.length h.occ_sum in
    let sw = ref (w lsr 5) in
    let m =
      ref (if !sw < nsum then Array.unsafe_get h.occ_sum !sw land (-1 lsl (w land 31))
           else 0)
    in
    while !m = 0 && !sw + 1 < nsum do
      incr sw;
      m := Array.unsafe_get h.occ_sum !sw
    done;
    if !m = 0 then -1
    else begin
      let w = (!sw lsl 5) lor ctz32 !m in
      (w lsl 5) lor ctz32 (Array.unsafe_get h.occ w)
    end
  end

let add1 h key seq v =
  let packed = ((key land h.wmask1) lsl h.sb1) lor seq in
  let s = (key asr h.shift) land h.mask1 in
  if Array.unsafe_get h.r1n s = 0 then occ_set h s;
  slot_add h.dummy h.r1p h.r1v h.r1n s packed v;
  h.count1 <- h.count1 + 1

let add2 h key seq v =
  let packed = ((key land h.wmask2) lsl h.sb2) lor seq in
  slot_add h.dummy h.r2p h.r2v h.r2n ((key asr h.shift2) land h.mask2) packed v;
  h.count2 <- h.count2 + 1

(* ---- sorting a drained bucket ----

   A single int compare on the packed (offset, seq) entry gives the full
   (key, seq) order within a bucket.  Only the (packed, index) int pair is
   sorted — values stay in append order and are read through the
   permutation.  Insertion sort for small buckets, bottom-up merge through
   the shared scratch otherwise. *)

let sort_bucket h p idx n =
  for i = 0 to n - 1 do
    Array.unsafe_set idx i i
  done;
  if n <= 32 then begin
    for i = 1 to n - 1 do
      let pi = Array.unsafe_get p i in
      if pi < Array.unsafe_get p (i - 1) then begin
        let xi = Array.unsafe_get idx i in
        let j = ref (i - 1) in
        while !j >= 0 && Array.unsafe_get p !j > pi do
          Array.unsafe_set p (!j + 1) (Array.unsafe_get p !j);
          Array.unsafe_set idx (!j + 1) (Array.unsafe_get idx !j);
          decr j
        done;
        Array.unsafe_set p (!j + 1) pi;
        Array.unsafe_set idx (!j + 1) xi
      end
    done
  end
  else begin
    if Array.length h.scp < n then begin
      let cap = ref (if Array.length h.scp = 0 then 64 else Array.length h.scp) in
      while !cap < n do
        cap := !cap * 2
      done;
      h.scp <- Array.make !cap 0;
      h.sci <- Array.make !cap 0
    end;
    let tp = h.scp and ti = h.sci in
    let merge ap ai bp bi lo mid hi =
      let i = ref lo and j = ref mid in
      for x = lo to hi - 1 do
        if
          !i < mid
          && (!j >= hi || Array.unsafe_get ap !i <= Array.unsafe_get ap !j)
        then begin
          Array.unsafe_set bp x (Array.unsafe_get ap !i);
          Array.unsafe_set bi x (Array.unsafe_get ai !i);
          incr i
        end
        else begin
          Array.unsafe_set bp x (Array.unsafe_get ap !j);
          Array.unsafe_set bi x (Array.unsafe_get ai !j);
          incr j
        end
      done
    in
    let src_is_orig = ref true in
    let width = ref 1 in
    while !width < n do
      let ap, ai, bp, bi =
        if !src_is_orig then (p, idx, tp, ti) else (tp, ti, p, idx)
      in
      let lo = ref 0 in
      while !lo < n do
        let mid = min (!lo + !width) n in
        let hi = min (!lo + (2 * !width)) n in
        merge ap ai bp bi !lo mid hi;
        lo := hi
      done;
      src_is_orig := not !src_is_orig;
      width := !width * 2
    done;
    if not !src_is_orig then begin
      Array.blit tp 0 p 0 n;
      Array.blit ti 0 idx 0 n
    end
  end

(* ---- horizon movement ---- *)

(* Slide overflow entries under the L2 horizon ending at coarse bucket
   [vb2 + n2] into level 2.  Entries always land at the far edge (their
   coarse bucket is >= the previous horizon), never behind the clock. *)
let migrate_far h vb2 =
  let lim = ((vb2 + h.n2) lsl h.shift2) - 1 in
  let continue = ref true in
  while !continue do
    match Pheap.pop_if_le h.far ~limit:lim with
    | Some (k, (seq, v)) -> add2 h k seq v
    | None -> continue := false
  done

(* Spill coarse bucket [vb2] into level 1.  Caller guarantees
   [h.cur_vb = (vb2 lsl b1) - 1], so every entry lands within
   [cur_vb + 1, cur_vb + 2^b1] — inside the L1 window. *)
let spill2 h vb2 =
  let s = vb2 land h.mask2 in
  let n = h.r2n.(s) in
  if n > 0 then begin
    let p = h.r2p.(s) and v = h.r2v.(s) in
    let base = vb2 lsl h.shift2 in
    for j = 0 to n - 1 do
      let pj = Array.unsafe_get p j in
      add1 h (base lor (pj asr h.sb2)) (pj land h.smask2) (Array.unsafe_get v j);
      Array.unsafe_set v j h.dummy
    done;
    h.r2n.(s) <- 0;
    h.count2 <- h.count2 - n
  end

(* ---- sorted run refill ---- *)

(* Refill the run with the next occupied L1 bucket (assumes size > 0, run
   exhausted, latecomer heap empty). *)
let advance h =
  h.rpos <- 0;
  h.rlen <- 0;
  let found = ref false in
  while not !found do
    if h.count1 > 0 then begin
      (* jump to the next occupied L1 slot of the current coarse bucket;
         crossing into a new coarse bucket first spills it (and slides the
         overflow horizon), so spilled entries are always ahead of the
         search *)
      let nxt = h.cur_vb + 1 in
      let first = nxt land h.mask1 in
      if first = 0 then begin
        let vb2 = nxt asr h.b1 in
        migrate_far h vb2;
        spill2 h vb2
      end;
      let s = find_next h first in
      if s < 0 then begin
        (* the rest of this coarse bucket is empty: the occupied slots
           belong to the next one (a fresh spill covers the whole ring,
           so it cannot come up empty) *)
        assert (first > 0);
        h.cur_vb <- nxt lor h.mask1
      end
      else begin
        (* steal the slot's arrays as the new run; the previous run's
           arrays (fully consumed, values dummied) go back to the slot *)
        let n = h.r1n.(s) in
        assert (n > 0);  (* a set bit always names a non-empty slot *)
        let p = h.r1p.(s) and v = h.r1v.(s) in
        h.r1p.(s) <- h.rp;
        h.r1v.(s) <- h.rv;
        h.r1n.(s) <- 0;
        occ_clear h s;
        h.count1 <- h.count1 - n;
        if Array.length h.ridx < Array.length p then
          h.ridx <- Array.make (Array.length p) 0;
        sort_bucket h p h.ridx n;
        let vb = nxt - first + s in
        h.cur_vb <- vb;
        h.rp <- p;
        h.rv <- v;
        h.rbase <- vb lsl h.shift;
        h.rlen <- n;
        found := true
      end
    end
    else if h.count2 > 0 then begin
      (* L1 empty: walk L2 to its next occupied slot and spill it *)
      let vb2 = ref ((h.cur_vb asr h.b1) + 1) in
      while h.r2n.(!vb2 land h.mask2) = 0 do
        migrate_far h !vb2;
        incr vb2
      done;
      migrate_far h !vb2;
      h.cur_vb <- (!vb2 lsl h.b1) - 1;
      spill2 h !vb2
      (* loop: count1 > 0 now *)
    end
    else begin
      match Pheap.peek_key h.far with
      | None -> found := true (* caller violated size > 0; degrade safely *)
      | Some k ->
        (* both rings empty: jump straight to the overflow minimum *)
        let vb2 = k asr h.shift2 in
        let cur2 = h.cur_vb asr h.b1 in
        let vb2 = if vb2 > cur2 then vb2 else cur2 + 1 in
        migrate_far h vb2;
        h.cur_vb <- (vb2 lsl h.b1) - 1
        (* loop: count2 > 0 now *)
    end
  done

(* head selection: 0 = run, 1 = latecomer heap (assumes size > 0) *)
let rec ready_head h =
  if h.rpos < h.rlen then begin
    if h.nsize = 0 then 0
    else begin
      let pk = h.rp.(h.rpos) in
      let rk = h.rbase lor (pk asr h.sb1) and nk = h.nk.(0) in
      if rk < nk || (rk = nk && pk land h.smask1 < h.ns.(0)) then 0 else 1
    end
  end
  else if h.nsize > 0 then 1
  else begin
    advance h;
    ready_head h
  end

let take h head =
  h.size <- h.size - 1;
  if head = 0 then begin
    let p = h.rpos in
    let k = h.rbase lor (h.rp.(p) asr h.sb1) in
    let x = h.ridx.(p) in
    let v = h.rv.(x) in
    h.rv.(x) <- h.dummy;
    h.rpos <- p + 1;
    (k, v)
  end
  else near_pop h

(* ---- public ops ---- *)

let push h ~key v =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.size <- h.size + 1;
  let vb = key asr h.shift in
  if vb <= h.cur_vb then near_push h key seq v
  else if vb - h.cur_vb <= h.mask1 then add1 h key seq v
  else if (key asr h.shift2) - (h.cur_vb asr h.b1) < h.n2 then add2 h key seq v
  else Pheap.push h.far ~key (seq, v)

let pop h = if h.size = 0 then None else Some (take h (ready_head h))

let pop_if_le h ~limit =
  if h.size = 0 then None
  else begin
    let head = ready_head h in
    let k =
      if head = 0 then h.rbase lor (h.rp.(h.rpos) asr h.sb1) else h.nk.(0)
    in
    if k > limit then None else Some (take h head)
  end

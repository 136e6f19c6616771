type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable arr : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { arr = [||]; size = 0; next_seq = 0 }
let is_empty h = h.size = 0
let length h = h.size

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow h e =
  let cap = Array.length h.arr in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let narr = Array.make ncap e in
    Array.blit h.arr 0 narr 0 h.size;
    h.arr <- narr
  end

let push h ~key value =
  let e = { key; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  grow h e;
  h.arr.(h.size) <- e;
  h.size <- h.size + 1;
  (* sift up *)
  let i = ref (h.size - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    less h.arr.(!i) h.arr.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = h.arr.(p) in
    h.arr.(p) <- h.arr.(!i);
    h.arr.(!i) <- tmp;
    i := p
  done

(* Remove the root (caller has already read it); assumes size > 0. *)
let remove_top h =
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.arr.(0) <- h.arr.(h.size);
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.size && less h.arr.(l) h.arr.(!m) then m := l;
      if r < h.size && less h.arr.(r) h.arr.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = h.arr.(!m) in
        h.arr.(!m) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := !m
      end
    done
  end

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.arr.(0) in
    remove_top h;
    Some (top.key, top.value)
  end

let pop_if_le h ~limit =
  if h.size = 0 then None
  else begin
    let top = h.arr.(0) in
    if top.key > limit then None
    else begin
      remove_top h;
      Some (top.key, top.value)
    end
  end

let peek_key h = if h.size = 0 then None else Some h.arr.(0).key

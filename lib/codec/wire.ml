let format_version = 2
let magic = "ZPC1"

(* Node tags.  Ints are split into small non-negative (inline) and LEB128
   zigzag forms to keep typical images compact. *)
let t_unit = 0x00
let t_false = 0x01
let t_true = 0x02
let t_int = 0x03
let t_float = 0x04
let t_str = 0x05
let t_f64s = 0x06
let t_list = 0x07
let t_assoc = 0x08
let t_tag = 0x09
let t_smallint = 0x80 (* 0x80 + n for n in [0,0x7f) *)

(* LEB128 on the zigzag encoding so negative ints stay short.  The zigzag
   pattern is treated as a raw 63-bit word: [lsr] shifts in zeros, so the
   loops terminate even for patterns with the top bit set (e.g. min_int). *)
let zigzag n = (n lsl 1) lxor (n asr 62)

(* Bytes [put_varint] writes for [n]. *)
let varint_size n =
  let rec go z k = if z land lnot 0x7f = 0 then k else go (z lsr 7) (k + 1) in
  go (zigzag n) 1

let str_size s = varint_size (String.length s) + String.length s

(* The encoding's length, added up node by node. *)
let rec encoded_size (v : Value.t) =
  match v with
  | Unit | Bool _ -> 1
  | Int n -> if n >= 0 && n < 0x7f then 1 else 1 + varint_size n
  | Float _ -> 9
  | Str s -> 1 + str_size s
  | F64s a -> 1 + varint_size (Array.length a) + (8 * Array.length a)
  | List xs ->
    let rec sum acc = function [] -> acc | x :: rest -> sum (acc + encoded_size x) rest in
    sum (1 + varint_size (List.length xs)) xs
  | Assoc kvs ->
    let rec sum acc = function
      | [] -> acc
      | (k, x) :: rest -> sum (acc + str_size k + encoded_size x) rest
    in
    sum (1 + varint_size (List.length kvs)) kvs
  | Tag (name, x) -> 1 + str_size name + encoded_size x

(* The writers fill a buffer [encoded_size] sized, each returning the
   offset just past what it wrote. *)
let put_byte b pos x =
  Bytes.set b pos (Char.unsafe_chr x);
  pos + 1

let put_varint b pos n =
  let rec go z pos =
    if z land lnot 0x7f = 0 then put_byte b pos z
    else go (z lsr 7) (put_byte b pos (0x80 lor (z land 0x7f)))
  in
  go (zigzag n) pos

let put_f64 b pos f =
  Bytes.set_int64_le b pos (Int64.bits_of_float f);
  pos + 8

let put_str b pos s =
  let pos = put_varint b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let rec put_value b pos (v : Value.t) =
  match v with
  | Unit -> put_byte b pos t_unit
  | Bool false -> put_byte b pos t_false
  | Bool true -> put_byte b pos t_true
  | Int n ->
    if n >= 0 && n < 0x7f then put_byte b pos (t_smallint + n)
    else put_varint b (put_byte b pos t_int) n
  | Float f -> put_f64 b (put_byte b pos t_float) f
  | Str s -> put_str b (put_byte b pos t_str) s
  | F64s a ->
    let pos = put_varint b (put_byte b pos t_f64s) (Array.length a) in
    for i = 0 to Array.length a - 1 do
      Bytes.set_int64_le b (pos + (8 * i)) (Int64.bits_of_float a.(i))
    done;
    pos + (8 * Array.length a)
  | List xs ->
    List.fold_left (put_value b) (put_varint b (put_byte b pos t_list) (List.length xs)) xs
  | Assoc kvs ->
    List.fold_left
      (fun pos (k, x) -> put_value b (put_str b pos k) x)
      (put_varint b (put_byte b pos t_assoc) (List.length kvs))
      kvs
  | Tag (name, x) -> put_value b (put_str b (put_byte b pos t_tag) name) x

(* [v] encoded after [header], written straight into a string of the exact
   size. *)
let encode_after header v =
  let h = String.length header in
  let b = Bytes.create (h + encoded_size v) in
  Bytes.blit_string header 0 b 0 h;
  let fin = put_value b h v in
  assert (fin = Bytes.length b);
  Bytes.unsafe_to_string b

let encode_raw buf v = Buffer.add_string buf (encode_after "" v)

(* Decoding reads through one cursor over the stream: [pos] is the offset
   of the next unread byte. *)
type cursor = { s : string; mutable pos : int }

let need c n =
  if n > String.length c.s - c.pos then Value.decode_error "truncated stream at %d" c.pos

let get_varint c =
  let rec go acc shift =
    if c.pos >= String.length c.s then Value.decode_error "truncated varint";
    let b = Char.code (String.unsafe_get c.s c.pos) in
    c.pos <- c.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  let z = go 0 0 in
  (z lsr 1) lxor (-(z land 1))

(* A length prefix: a varint that must be non-negative. *)
let get_len c what =
  let n = get_varint c in
  if n < 0 then Value.decode_error "negative %s length" what;
  n

let get_f64 c =
  need c 8;
  let f = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  f

let get_str c =
  let n = get_len c "string" in
  need c n;
  let str = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  str

let rec decode_node c : Value.t =
  need c 1;
  let tag = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  if tag >= t_smallint then Value.Int (tag - t_smallint)
  else if tag = t_unit then Value.Unit
  else if tag = t_false then Value.Bool false
  else if tag = t_true then Value.Bool true
  else if tag = t_int then Value.Int (get_varint c)
  else if tag = t_float then Value.Float (get_f64 c)
  else if tag = t_str then Value.Str (get_str c)
  else if tag = t_f64s then begin
    let n = get_len c "f64s" in
    if n > (String.length c.s - c.pos) / 8 then
      Value.decode_error "truncated stream at %d" c.pos;
    let a = Array.make n 0.0 in
    for i = 0 to n - 1 do
      a.(i) <- Int64.float_of_bits (String.get_int64_le c.s (c.pos + (8 * i)))
    done;
    c.pos <- c.pos + (8 * n);
    Value.F64s a
  end
  else if tag = t_list then begin
    let n = get_len c "list" in
    let rec go acc i = if i = 0 then List.rev acc else go (decode_node c :: acc) (i - 1) in
    Value.List (go [] n)
  end
  else if tag = t_assoc then begin
    let n = get_len c "assoc" in
    let rec go acc i =
      if i = 0 then List.rev acc
      else
        let k = get_str c in
        go ((k, decode_node c) :: acc) (i - 1)
    in
    Value.Assoc (go [] n)
  end
  else if tag = t_tag then begin
    let name = get_str c in
    Value.Tag (name, decode_node c)
  end
  else Value.decode_error "unknown wire tag 0x%02x at %d" tag (c.pos - 1)

let decode_raw s off =
  let c = { s; pos = off } in
  let v = decode_node c in
  (v, c.pos)

let header = magic ^ String.make 1 (Char.chr format_version)

let encode v = encode_after header v

let decode s =
  if String.length s < 5 then Value.decode_error "stream too short";
  if not (String.equal (String.sub s 0 4) magic) then Value.decode_error "bad magic";
  let version = Char.code s.[4] in
  if version <> format_version then
    Value.decode_error "format version mismatch: got %d, want %d" version format_version;
  let v, off = decode_raw s 5 in
  if off <> String.length s then Value.decode_error "trailing garbage at %d" off;
  v

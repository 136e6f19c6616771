(* Packed little-endian float64 payloads for message passing. *)

let pack_sub (a : float array) ~pos ~len : string =
  if pos < 0 || len < 0 || pos > Array.length a - len then invalid_arg "Floats.pack_sub";
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float (Array.unsafe_get a (pos + i)))
  done;
  Bytes.unsafe_to_string b

let pack a = pack_sub a ~pos:0 ~len:(Array.length a)

let unpack_into (s : string) (a : float array) ~pos =
  let n = String.length s / 8 in
  if pos < 0 || pos > Array.length a - n then invalid_arg "Floats.unpack_into";
  for i = 0 to n - 1 do
    Array.unsafe_set a (pos + i) (Int64.float_of_bits (String.get_int64_le s (8 * i)))
  done

let unpack (s : string) : float array =
  let a = Array.create_float (String.length s / 8) in
  unpack_into s a ~pos:0;
  a

let add_into ~(acc : float array) (other : float array) =
  Array.iteri (fun i v -> if i < Array.length acc then acc.(i) <- acc.(i) +. v) other

let sum_packed a b =
  let fa = unpack a and fb = unpack b in
  add_into ~acc:fa fb;
  pack fa

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

let create ~seed = { state = mix (Int64.of_int seed) }
let split t = { state = mix (next t) }

let int t n =
  assert (n > 0);
  (* keep 62 bits so the value stays non-negative in OCaml's 63-bit int *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod n

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. (r /. 9007199254740992.0)

let bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

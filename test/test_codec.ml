(* Unit and property tests for the portable checkpoint format. *)

module Value = Zapc_codec.Value
module Wire = Zapc_codec.Wire

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let roundtrip v = Wire.decode (Wire.encode v)

let test_scalars () =
  List.iter
    (fun v -> check tbool "roundtrip" true (Value.equal v (roundtrip v)))
    [ Value.Unit; Value.Bool true; Value.Bool false; Value.Int 0; Value.Int 1;
      Value.Int (-1); Value.Int max_int; Value.Int min_int; Value.Int 126; Value.Int 127;
      Value.Float 0.0; Value.Float (-1.5); Value.Float Float.pi; Value.Float nan;
      Value.Str ""; Value.Str "hello"; Value.Str (String.make 10000 'x') ]

let test_nan_roundtrip () =
  match roundtrip (Value.Float nan) with
  | Value.Float f -> check tbool "nan" true (Float.is_nan f)
  | _ -> Alcotest.fail "not a float"

let test_composites () =
  let v =
    Value.assoc
      [ ("a", Value.List [ Value.Int 1; Value.Str "x"; Value.Unit ]);
        ("b", Value.Tag ("variant", Value.Bool true));
        ("c", Value.F64s [| 1.0; -2.5; 3e40 |]);
        ("d", Value.Assoc [ ("nested", Value.List []) ]) ]
  in
  check tbool "roundtrip" true (Value.equal v (roundtrip v))

let test_deep_nesting () =
  let rec build n acc = if n = 0 then acc else build (n - 1) (Value.List [ acc ]) in
  let v = build 500 (Value.Int 42) in
  check tbool "deep" true (Value.equal v (roundtrip v))

let test_bad_magic () =
  Alcotest.check_raises "bad magic" (Value.Decode_error "bad magic") (fun () ->
      ignore (Wire.decode "XXXX\002\000"))

let test_version_mismatch () =
  let s = Wire.encode Value.Unit in
  let s = String.sub s 0 4 ^ "\255" ^ String.sub s 5 (String.length s - 5) in
  match Wire.decode s with
  | exception Value.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected version mismatch"

let test_truncation () =
  let s = Wire.encode (Value.Str "hello world, a longer string") in
  for cut = 5 to String.length s - 1 do
    match Wire.decode (String.sub s 0 cut) with
    | exception Value.Decode_error _ -> ()
    | _ -> Alcotest.failf "truncation at %d not detected" cut
  done

let test_trailing_garbage () =
  let s = Wire.encode Value.Unit ^ "junk" in
  match Wire.decode s with
  | exception Value.Decode_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage not detected"

let test_field_access () =
  let v = Value.assoc [ ("x", Value.Int 1); ("y", Value.Str "s") ] in
  check tint "field x" 1 (Value.to_int (Value.field "x" v));
  check tstr "field y" "s" (Value.to_str (Value.field "y" v));
  check tbool "field_opt none" true (Value.field_opt "z" v = None);
  Alcotest.check_raises "missing field" (Value.Decode_error "missing field z") (fun () ->
      ignore (Value.field "z" v))

let test_option_pair () =
  let v = Value.option Value.int (Some 3) in
  check tbool "some" true (Value.to_option Value.to_int v = Some 3);
  let v = Value.option Value.int None in
  check tbool "none" true (Value.to_option Value.to_int v = None);
  let v = Value.pair Value.int Value.str (7, "z") in
  check tbool "pair" true (Value.to_pair Value.to_int Value.to_str v = (7, "z"))

let test_encoded_size () =
  let v = Value.Str (String.make 100 'a') in
  let sz = Wire.encoded_size v in
  check tint "encoded size" (String.length (Wire.encode v) - 5) sz

(* [encoded_size] adds sizes up without encoding, so the varint widths it
   predicts are checked where they step.  Lengths are zigzag-encoded like
   ints, so a length's width steps at 63/64 and 8191/8192; 127/128 and
   16383/16384 are the raw LEB128 steps.  Ints run around the inline form
   and out to the extremes.  The qcheck generator never draws a length of
   128 or more. *)
let test_encoded_size_varint_boundaries () =
  let agrees label v =
    check tint label (String.length (Wire.encode v) - 5) (Wire.encoded_size v)
  in
  List.iter
    (fun n ->
      let s = String.make n 'k' in
      agrees (Printf.sprintf "str %d" n) (Value.Str s);
      agrees (Printf.sprintf "f64s %d" n) (Value.F64s (Array.make n 0.5));
      agrees (Printf.sprintf "list %d" n) (Value.List (List.init n (fun _ -> Value.Unit)));
      agrees (Printf.sprintf "assoc key %d" n) (Value.Assoc [ (s, Value.Int 1) ]);
      agrees (Printf.sprintf "assoc of %d" n)
        (Value.Assoc (List.init n (fun i -> (string_of_int i, Value.Unit))));
      agrees (Printf.sprintf "tag name %d" n) (Value.Tag (s, Value.Unit)))
    [ 63; 64; 127; 128; 8191; 8192; 16383; 16384 ];
  List.iter
    (fun n -> agrees (Printf.sprintf "int %d" n) (Value.Int n))
    [ 0x7e; 0x7f; -1; 63; 64; -64; -65; max_int; min_int ]

let test_smallint_boundary () =
  (* 0..126 use the inline encoding; make sure the boundary is exact *)
  List.iter
    (fun n ->
      match roundtrip (Value.Int n) with
      | Value.Int n' -> check tint "int" n n'
      | _ -> Alcotest.fail "not an int")
    [ 0; 1; 125; 126; 127; 128; 255; 16384 ]

(* --- properties --- *)

module Image = Zapc_ckpt.Image
module Kv_wire = Zapc_apps.Kv_wire

let value_gen =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self n ->
          let leaf =
            oneof
              [ return Value.Unit;
                map (fun b -> Value.Bool b) bool;
                map (fun i -> Value.Int i) int;
                map (fun f -> Value.Float f) float;
                map (fun s -> Value.Str s) string_small;
                map (fun l -> Value.F64s (Array.of_list l)) (small_list float) ]
          in
          if n <= 0 then leaf
          else
            oneof
              [ leaf;
                map (fun l -> Value.List l) (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun l -> Value.Assoc l)
                  (list_size (int_bound 4)
                     (pair string_small (self (n / 2))));
                map2 (fun s v -> Value.Tag (s, v)) string_small (self (n / 2)) ])
        (min size 6))

let arbitrary_value = QCheck.make ~print:(Fmt.to_to_string Value.pp) value_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip is identity" ~count:500 arbitrary_value (fun v ->
      Value.equal v (roundtrip v))

let prop_size =
  QCheck.Test.make ~name:"encoded_size matches encode" ~count:200 arbitrary_value
    (fun v -> Wire.encoded_size v = String.length (Wire.encode v) - 5)

(* The value QCHECK_SEED=501828073 drew: full-width ints take a 9-byte
   varint each. *)
let test_wide_ints_size () =
  let v =
    Value.List
      [ Value.Int 1544658332998841271; Value.Int 1137302157317495315;
        Value.Int (-723548881901561539); Value.Float 6.13958e-05 ]
  in
  Alcotest.(check int) "encoded size" 41 (Wire.encoded_size v)

(* fuzz: the decoder must reject arbitrary bytes with Decode_error, never
   crash or loop (checkpoint images may be corrupted in transit) *)
let prop_decode_never_crashes =
  QCheck.Test.make ~name:"decoder total on arbitrary bytes" ~count:500
    QCheck.(string_of_size Gen.(int_bound 200))
    (fun junk ->
      match Wire.decode junk with
      | _ -> true
      | exception Value.Decode_error _ -> true)

(* fuzz: bit-flipping a valid image either decodes (flip hit a payload
   byte) or raises Decode_error — nothing else *)
let prop_bitflip_safe =
  QCheck.Test.make ~name:"bit flips are detected or benign" ~count:300
    QCheck.(pair arbitrary_value (pair small_nat small_nat))
    (fun (v, (pos, bit)) ->
      let s = Bytes.of_string (Wire.encode v) in
      let pos = pos mod Bytes.length s in
      Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor (1 lsl (bit mod 8))));
      match Wire.decode (Bytes.to_string s) with
      | _ -> true
      | exception Value.Decode_error _ -> true)

(* --- pod-image section roundtrips ------------------------------------
   The pod-image sections the checkpointer stores must survive
   encode/decode for arbitrary (seeded-random) contents: these are the
   bytes a restart on a different node has to make sense of. *)

(* a pod image: the three required header fields plus arbitrary extra
   sections; Image serialization must preserve every section verbatim *)
let pod_image_gen =
  let open QCheck.Gen in
  map
    (fun ((pod_id, name), (mem, extra)) ->
      Value.Assoc
        ([ ("pod_id", Value.Int pod_id); ("name", Value.Str name);
           ("memory_bytes", Value.Int mem) ]
        @ List.mapi (fun i v -> (Printf.sprintf "sec%d" i, v)) extra))
    (pair (pair nat string_small) (pair nat (list_size (int_bound 4) value_gen)))

let prop_image_sections_roundtrip =
  QCheck.Test.make ~name:"pod image sections roundtrip" ~count:300
    (QCheck.make pod_image_gen) (fun v ->
      let img = Image.of_pod_image v in
      Value.equal v (Image.to_pod_image img)
      && img.Image.pod_id = Value.to_int (Value.field "pod_id" v)
      && String.equal img.Image.name (Value.to_str (Value.field "name" v)))

(* the storage integrity checksum: deterministic for the same image, and
   any single-byte mutation of the encoded payload changes it *)
let prop_image_checksum_detects_bitflips =
  QCheck.Test.make ~name:"image checksum detects single-byte corruption" ~count:300
    (QCheck.make (QCheck.Gen.pair pod_image_gen (QCheck.Gen.int_bound 10_000)))
    (fun (v, pos) ->
      let img = Image.of_pod_image v in
      let sum = Image.checksum img in
      sum = Image.checksum img
      &&
      let n = String.length img.Image.encoded in
      if n = 0 then true
      else begin
        let i = pos mod n in
        let b = Bytes.of_string img.Image.encoded in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
        Image.checksum { img with Image.encoded = Bytes.to_string b } <> sum
      end)

(* --- key-value service wire protocol -----------------------------------
   The request/response/redirect/replication messages of the served-traffic
   battery and their length-prefixed framing: a retried request is only
   idempotent if the bytes a server logs and re-sends survive the codec
   bit for bit, and a checkpoint can cut the TCP stream at ANY byte — the
   framing must reassemble from an arbitrary split. *)

let kv_op_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun (k, v) -> Kv_wire.Set (k, v)) (pair string_small string_small);
      map (fun k -> Kv_wire.Get k) string_small;
      map (fun k -> Kv_wire.Del k) string_small ]

let kv_status_gen =
  let open QCheck.Gen in
  oneof
    [ return Kv_wire.S_ok;
      return Kv_wire.S_not_found;
      map (fun o -> Kv_wire.S_redirect o) (int_bound 15) ]

let kv_msg_gen =
  let open QCheck.Gen in
  oneof
    [ map
        (fun ((rq_client, rq_id), rq_op) -> Kv_wire.Req { rq_client; rq_id; rq_op })
        (pair (pair nat nat) kv_op_gen);
      map
        (fun (((rs_client, rs_id), rs_status), rs_value) ->
          Kv_wire.Resp { rs_client; rs_id; rs_status; rs_value })
        (pair (pair (pair nat nat) kv_status_gen) string_small);
      map
        (fun ((rp_seq, (rp_client, rp_id)), rp_op) ->
          Kv_wire.Repl { rp_seq; rp_client; rp_id; rp_op })
        (pair (pair nat (pair nat nat)) kv_op_gen);
      map (fun s -> Kv_wire.Repl_ack s) nat ]

let prop_kv_msg_roundtrip =
  QCheck.Test.make ~name:"kv messages roundtrip" ~count:300
    (QCheck.make kv_msg_gen) (fun m ->
      Kv_wire.msg_of_value (roundtrip (Kv_wire.msg_to_value m)) = m)

(* cut a framed stream at an arbitrary byte: the head parses to a prefix of
   the messages, the tail carried over plus the remainder parses to the
   rest, and nothing is left — exactly what a restored connection buffer
   must guarantee *)
let prop_kv_frame_split =
  QCheck.Test.make ~name:"kv framing reassembles at any cut" ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_bound 6) kv_msg_gen) nat))
    (fun (msgs, cut) ->
      let s = String.concat "" (List.map Kv_wire.frame msgs) in
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let head, tail = Kv_wire.split (String.sub s 0 cut) in
      let more, rest =
        Kv_wire.split (tail ^ String.sub s cut (String.length s - cut))
      in
      head @ more = msgs && String.equal rest "")

let prop_kv_owner_stable =
  QCheck.Test.make ~name:"kv shard owner is stable and in range" ~count:300
    (QCheck.make QCheck.Gen.(pair string_small (int_range 1 8)))
    (fun (key, nshards) ->
      let o = Kv_wire.owner ~nshards key in
      o >= 0 && o < nshards && o = Kv_wire.owner ~nshards key)

let () =
  Alcotest.run "codec"
    [ ( "wire",
        [ Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "nan" `Quick test_nan_roundtrip;
          Alcotest.test_case "composites" `Quick test_composites;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "smallint boundary" `Quick test_smallint_boundary ] );
      ( "value",
        [ Alcotest.test_case "field access" `Quick test_field_access;
          Alcotest.test_case "option/pair" `Quick test_option_pair;
          Alcotest.test_case "encoded size" `Quick test_encoded_size;
          Alcotest.test_case "encoded size at varint boundaries" `Quick
            test_encoded_size_varint_boundaries;
          Alcotest.test_case "wide ints encoded size" `Quick test_wide_ints_size ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_size; prop_decode_never_crashes;
            prop_bitflip_safe ] );
      ( "protocol",
        List.map QCheck_alcotest.to_alcotest
          [ prop_image_sections_roundtrip; prop_image_checksum_detects_bitflips ] );
      ( "kv wire",
        List.map QCheck_alcotest.to_alcotest
          [ prop_kv_msg_roundtrip; prop_kv_frame_split; prop_kv_owner_stable ] ) ]

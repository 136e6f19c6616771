(* Tests for the discrete-event engine, heap, RNG and time arithmetic. *)

module Simtime = Zapc_sim.Simtime
module Pheap = Zapc_sim.Pheap
module Engine = Zapc_sim.Engine
module Rng = Zapc_sim.Rng
module Stats = Zapc_sim.Stats

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* --- heap --- *)

let test_heap_order () =
  let h = Pheap.create () in
  List.iter (fun k -> Pheap.push h ~key:k k) [ 5; 3; 8; 1; 9; 2; 7 ];
  let out = ref [] in
  let rec drain () =
    match Pheap.pop h with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Pheap.create () in
  List.iteri (fun i name -> Pheap.push h ~key:(i mod 2) name) [ "a"; "b"; "c"; "d"; "e" ];
  (* keys: a=0 b=1 c=0 d=1 e=0; expect a,c,e (fifo at key 0) then b,d *)
  let out = ref [] in
  let rec drain () =
    match Pheap.pop h with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "fifo ties" [ "a"; "c"; "e"; "b"; "d" ] (List.rev !out)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in key order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Pheap.create () in
      List.iter (fun k -> Pheap.push h ~key:k k) keys;
      let rec drain acc =
        match Pheap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort Int.compare keys)

(* --- calendar queue vs the sorted-list model --- *)

module Calq = Zapc_sim.Calq

(* Reference: a plain insertion-ordered list.  The expected pop is the
   earliest-inserted entry among those with the minimal key — exactly the
   [(key, seq)] total order both real queues implement. *)
let model_take_min model =
  match model with
  | [] -> None
  | _ ->
    let k = List.fold_left (fun acc (key, _) -> min acc key) max_int model in
    let rec go acc = function
      | (key, v) :: rest when key = k -> Some ((key, v), List.rev_append acc rest)
      | x :: rest -> go (x :: acc) rest
      | [] -> None
    in
    go [] model

(* One step of a queue script; offsets count from the largest key popped
   so far, so pushes never land before the clock. *)
type calq_op = Push of int | Pop | Pop_le of int

let calq_agrees_with_model q ops =
  let model = ref [] in
  let seq = ref 0 in
  let clock = ref 0 in
  let ok = ref true in
  let popped k v = function
    | Some ((k', v'), rest) ->
      if k <> k' || v <> v' then ok := false;
      model := rest;
      clock := max !clock k
    | None -> ok := false
  in
  List.iter
    (function
      | Push d ->
        let v = !seq in
        incr seq;
        Calq.push q ~key:(!clock + d) v;
        model := !model @ [ (!clock + d, v) ]
      | Pop ->
        (match Calq.pop q with
         | Some (k, v) -> popped k v (model_take_min !model)
         | None -> if !model <> [] then ok := false)
      | Pop_le d ->
        let limit = !clock + d in
        (match (Calq.pop_if_le q ~limit, model_take_min !model) with
         | Some (k, v), (Some ((k', _), _) as m) when k' <= limit -> popped k v m
         | None, Some ((k', _), _) when k' > limit -> ()
         | None, None -> ()
         | _ -> ok := false))
    ops;
  (* drain: the remainder must come out in model order too *)
  let rec drain () =
    match Calq.pop q with
    | Some (k, v) ->
      popped k v (model_take_min !model);
      drain ()
    | None -> if !model <> [] then ok := false
  in
  drain ();
  !ok && Calq.is_empty q

(* Tiny geometry (fine width 16, fine horizon 256, coarse horizon 2048) so
   a short random op sequence crosses every layer: fine ring, coarse ring,
   the latecomer heap, and the overflow pheap. *)
let prop_calq_vs_model =
  QCheck.Test.make ~name:"calendar queue matches sorted-list model" ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 5_000)))
    (fun ops ->
      let q = Calq.create ~shift:4 ~b1:4 ~buckets2:8 ~dummy:(-1) () in
      calq_agrees_with_model q
        (List.map
           (fun (kind, n) ->
             match kind with
             | 0 -> Push (n mod 300)  (* fine/coarse horizons *)
             | 1 -> Push n  (* up to overflow *)
             | 2 -> Pop
             | _ -> Pop_le (n mod 500))
           ops))

(* A 2048-slot fine ring (fine width 2, fine horizon 4096, coarse horizon
   32768): its occupancy bitmap is 64 words under a two-word summary, so
   a refill's search skips whole words and crosses summary words.  Few
   standing entries and wide gaps, the shape of a quiet simulation. *)
let prop_calq_sparse_vs_model =
  QCheck.Test.make ~name:"sparse calendar queue matches sorted-list model"
    ~count:300
    QCheck.(list (pair (int_bound 5) (int_bound 70_000)))
    (fun ops ->
      let q = Calq.create ~shift:1 ~b1:11 ~buckets2:8 ~dummy:(-1) () in
      calq_agrees_with_model q
        (List.map
           (fun (kind, n) ->
             match kind with
             | 0 -> Push (n mod 8)  (* ties and latecomers *)
             | 1 -> Push (n mod 4_096)  (* anywhere in the fine ring *)
             | 2 -> Push n  (* coarse ring and overflow *)
             | 3 | 4 -> Pop
             | _ -> Pop_le (n mod 8_192))
           ops))

(* Keys sitting exactly on fine-bucket, fine-horizon and coarse-horizon
   boundaries, with FIFO ties straddling the layers. *)
let test_calq_bucket_boundaries () =
  let q = Calq.create ~shift:2 ~b1:2 ~buckets2:4 ~dummy:(-1) () in
  (* fine width 4, fine horizon 16, coarse horizon 64 *)
  let keys = [ 0; 3; 4; 15; 16; 17; 63; 64; 64; 65; 200; 1_000_000; 0 ] in
  List.iteri (fun i k -> Calq.push q ~key:k i) keys;
  check tint "length" (List.length keys) (Calq.length q);
  let rec drain acc =
    match Calq.pop q with Some (k, v) -> drain ((k, v) :: acc) | None -> List.rev acc
  in
  let out = drain [] in
  let expected =
    (* sort by key, stable in insertion order (= value order here) *)
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.mapi (fun i k -> (k, i)) keys)
  in
  Alcotest.(check (list (pair int int))) "boundary order + fifo ties" expected out;
  check tbool "empty" true (Calq.is_empty q)

(* Early slots of a coarse bucket are reused once the fine ring wraps:
   after the clock has consumed slots 1 and 3 of coarse bucket 0 and
   nothing is left in the rest of it, the next refill spills coarse bucket
   1 and must find its entries in slots 2 and 5 and beyond, in (key, seq)
   order, with a tie whose halves came through the coarse ring and
   straight into the fine ring. *)
let test_calq_wrap_to_next_coarse () =
  let q = Calq.create ~shift:1 ~b1:11 ~buckets2:8 ~dummy:(-1) () in
  (* fine width 2, fine horizon 4096 = one coarse bucket *)
  let drain () =
    let rec go acc =
      match Calq.pop q with Some kv -> go (kv :: acc) | None -> List.rev acc
    in
    go []
  in
  List.iter (fun (k, v) -> Calq.push q ~key:k v) [ (0, 0); (2, 1); (6, 2) ];
  Alcotest.(check (list (pair int int)))
    "first coarse bucket" [ (0, 0); (2, 1); (6, 2) ] (drain ());
  (* clock in slot 3: 4100 and 4106 wrap the fine ring into slots 2 and 5,
     6096 is beyond the fine horizon and waits in the coarse ring *)
  List.iter
    (fun (k, v) -> Calq.push q ~key:k v)
    [ (6096, 3); (4106, 4); (4000, 5); (4100, 6) ];
  (match Calq.pop q with
   | Some kv -> Alcotest.(check (pair int int)) "last of bucket 0" (4000, 5) kv
   | None -> Alcotest.fail "queue empty before 4000");
  (* clock in slot 2000: a second 6096 now fits the fine ring and must
     still follow the one spilled from the coarse ring *)
  Calq.push q ~key:6096 7;
  Calq.push q ~key:4100 8;
  Alcotest.(check (list (pair int int)))
    "after the spill"
    [ (4100, 6); (4100, 8); (4106, 4); (6096, 3); (6096, 7) ]
    (drain ());
  check tbool "empty" true (Calq.is_empty q)

(* --- engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:(Simtime.ms 5) (fun () -> log := 5 :: !log);
  Engine.schedule e ~delay:(Simtime.ms 1) (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:(Simtime.ms 3) (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 3; 5 ] (List.rev !log);
  check tint "clock" (Simtime.ms 5) (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(Simtime.ms i) (fun () -> incr fired)
  done;
  Engine.run ~until:(Simtime.ms 5) e;
  check tint "fired by 5ms" 5 !fired;
  check tint "clock stopped" (Simtime.ms 5) (Engine.now e);
  Engine.run e;
  check tint "all fired" 10 !fired

(* Regression: running to an instant already past must not rewind the
   clock.  A rewound clock queued later events behind ones already run, so a
   process could see two dispatches for one syscall result. *)
let test_engine_until_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:(Simtime.ms 100) (fun () -> ());
  Engine.run ~until:(Simtime.ms 50) e;
  check tint "at the horizon" (Simtime.ms 50) (Engine.now e);
  Engine.run ~until:(Simtime.ms 20) e;
  check tint "never backward" (Simtime.ms 50) (Engine.now e);
  check tint "event still pending" 1 (Engine.pending e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick n =
    if n > 0 then begin
      incr count;
      Engine.schedule e ~delay:(Simtime.us 10) (fun () -> tick (n - 1))
    end
  in
  Engine.schedule e ~delay:Simtime.zero (fun () -> tick 100);
  Engine.run e;
  check tint "nested" 100 !count

let test_engine_past_schedule_clamped () =
  let e = Engine.create () in
  let at = ref (-1) in
  Engine.schedule e ~delay:(Simtime.ms 2) (fun () ->
      (* scheduling "in the past" clamps to now *)
      Engine.schedule_at e ~at:Simtime.zero (fun () -> at := Engine.now e));
  Engine.run e;
  check tint "clamped" (Simtime.ms 2) !at

let test_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec forever () =
    incr count;
    Engine.schedule e ~delay:(Simtime.us 1) forever
  in
  Engine.schedule e ~delay:Simtime.zero (fun () -> forever ());
  Engine.run ~max_events:50 e;
  check tint "bounded" 50 !count

(* The engine fires in (time, scheduling index) order: a stable sort of the
   schedule by time is the reference model. *)
let prop_engine_fires_in_time_then_schedule_order =
  QCheck.Test.make ~name:"fires in (time, schedule index) order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun delays ->
      let e = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i d ->
          Engine.schedule e ~delay:(Simtime.us d) (fun () ->
              log := (i, Engine.now e) :: !log))
        delays;
      Engine.run e;
      let expected =
        List.mapi (fun i d -> (i, Simtime.us d)) delays
        |> List.stable_sort (fun (_, a) (_, b) -> Simtime.compare a b)
      in
      List.rev !log = expected)

(* Cancellable timer handles: re-arming moves the deadline (one fire per
   arm..fire cycle), cancelling turns the queued trampoline into a no-op,
   and a cancelled timer re-arms cleanly. *)
let test_timer_cancel_rearm () =
  let e = Engine.create () in
  let fired = ref [] in
  let tm = Engine.timer (fun () -> fired := Engine.now e :: !fired) in
  Engine.timer_arm_in e tm ~delay:(Simtime.ms 1);
  Engine.timer_arm_in e tm ~delay:(Simtime.ms 3);
  check tbool "active while armed" true (Engine.timer_active tm);
  Engine.run e;
  Alcotest.(check (list int)) "one fire, at the moved deadline"
    [ Simtime.ms 3 ] (List.rev !fired);
  check tbool "inactive after fire" false (Engine.timer_active tm);
  Engine.timer_arm_in e tm ~delay:(Simtime.ms 1);
  Engine.timer_cancel tm;
  check tbool "inactive after cancel" false (Engine.timer_active tm);
  Engine.run e;
  check tint "cancelled arm never fires" 1 (List.length !fired);
  Engine.timer_arm_in e tm ~delay:(Simtime.ms 2);
  Engine.run e;
  check tint "re-arms after cancel" 2 (List.length !fired)

(* --- rng determinism --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check tint "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int c 1000) in
  check tbool "streams differ" true (xs <> ys)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng int in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let r = Rng.create ~seed in
      let x = Rng.int r n in
      x >= 0 && x < n)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"rng float in bounds" ~count:200 QCheck.small_int (fun seed ->
      let r = Rng.create ~seed in
      let x = Rng.float r 2.5 in
      x >= 0.0 && x < 2.5)

(* --- stats --- *)

let test_stats () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 1.25) (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max s);
  check tint "count" 4 (Stats.count s)

let test_time_units () =
  check tint "us" 1_000 (Simtime.us 1);
  check tint "ms" 1_000_000 (Simtime.ms 1);
  check tint "sec" 1_000_000_000 (Simtime.sec 1.0);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Simtime.to_ms (Simtime.us 1500))

let () =
  Alcotest.run "sim"
    [ ( "heap",
        [ Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          QCheck_alcotest.to_alcotest prop_heap_sorted ] );
      ( "calq",
        [ QCheck_alcotest.to_alcotest prop_calq_vs_model;
          QCheck_alcotest.to_alcotest prop_calq_sparse_vs_model;
          Alcotest.test_case "bucket boundaries + fifo ties" `Quick
            test_calq_bucket_boundaries;
          Alcotest.test_case "wrap into the next coarse bucket" `Quick
            test_calq_wrap_to_next_coarse ] );
      ( "engine",
        [ Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "nested" `Quick test_engine_nested_schedule;
          Alcotest.test_case "past clamped" `Quick test_engine_past_schedule_clamped;
          Alcotest.test_case "max events" `Quick test_max_events;
          QCheck_alcotest.to_alcotest prop_engine_fires_in_time_then_schedule_order;
          Alcotest.test_case "timer cancel + re-arm" `Quick test_timer_cancel_rearm;
          Alcotest.test_case "until in the past" `Quick test_engine_until_past ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          QCheck_alcotest.to_alcotest prop_rng_bounds;
          QCheck_alcotest.to_alcotest prop_rng_float_bounds ] );
      ( "stats",
        [ Alcotest.test_case "moments" `Quick test_stats;
          Alcotest.test_case "time units" `Quick test_time_units ] ) ]

(* Metrics registry: counters, gauges, fixed-bucket histograms.

   Everything lives in per-kind hashtables keyed by the instrument name.
   The hot paths (incr / observe) do one hashtable lookup and O(log B)
   work for the bucket search, so the registry can stay on for every run
   without perturbing benchmark numbers. *)

type hist = {
  h_bounds : float array; (* ascending upper bounds; +inf implicit *)
  h_counts : int array;   (* length = Array.length h_bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type gauge = Gval of float | Gfn of (unit -> float)

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable on_record : (string -> float -> unit) option;
}

let create () =
  { counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 32;
    on_record = None }

let clear t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.hists

let set_on_record t obs = t.on_record <- obs

let notify t name v =
  match t.on_record with Some f -> f name v | None -> ()

(* Counters *)

let add t name n =
  (match Hashtbl.find_opt t.counters name with
   | Some r -> r := !r + n
   | None -> Hashtbl.replace t.counters name (ref n));
  notify t name (float_of_int n)

let incr t name = add t name 1
let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Gauges *)

let set_gauge t name v = Hashtbl.replace t.gauges name (Gval v)
let gauge_fn t name f = Hashtbl.replace t.gauges name (Gfn f)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some (Gval v) -> v
  | Some (Gfn f) -> f ()
  | None -> 0.

(* Histograms *)

let exp_buckets ~start ~factor ~n =
  if start <= 0. || factor <= 1. || n < 1 then
    invalid_arg "Metrics.exp_buckets";
  Array.init n (fun i -> start *. (factor ** float_of_int i))

let default_ms_buckets =
  (* 0.1ms .. 10s, roughly 1-2-5 per decade *)
  [| 0.1; 0.2; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.;
     1_000.; 2_000.; 5_000.; 10_000. |]

let default_bytes_buckets = exp_buckets ~start:1024. ~factor:4. ~n:11

let mk_hist bounds =
  let bounds = Array.copy bounds in
  Array.sort compare bounds;
  { h_bounds = bounds;
    h_counts = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0.;
    h_min = infinity;
    h_max = neg_infinity }

let bucket_of h v =
  (* first bucket whose upper bound is >= v; overflow bucket otherwise *)
  let n = Array.length h.h_bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= h.h_bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe t ?(buckets = default_ms_buckets) name v =
  let h =
    match Hashtbl.find_opt t.hists name with
    | Some h -> h
    | None ->
      let h = mk_hist buckets in
      Hashtbl.replace t.hists name h;
      h
  in
  h.h_counts.(bucket_of h v) <- h.h_counts.(bucket_of h v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  notify t name v

let hist_count t name =
  match Hashtbl.find_opt t.hists name with Some h -> h.h_count | None -> 0

let hist_sum t name =
  match Hashtbl.find_opt t.hists name with Some h -> h.h_sum | None -> 0.

let hist_quantile h q =
  if h.h_count = 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = q *. float_of_int h.h_count in
    let acc = ref 0. and i = ref 0 in
    let nb = Array.length h.h_counts in
    while !i < nb - 1 && !acc +. float_of_int h.h_counts.(!i) < rank do
      acc := !acc +. float_of_int h.h_counts.(!i);
      i := !i + 1
    done;
    let v =
      if !i >= Array.length h.h_bounds then h.h_max
      else begin
        let ub = h.h_bounds.(!i) in
        let lb = if !i = 0 then 0. else h.h_bounds.(!i - 1) in
        let inbucket = float_of_int h.h_counts.(!i) in
        if inbucket <= 0. then ub
        else lb +. (ub -. lb) *. ((rank -. !acc) /. inbucket)
      end
    in
    (* clamp the estimate to what was actually observed *)
    let v = if v < h.h_min then h.h_min else v in
    if v > h.h_max then h.h_max else v
  end

let quantile t name q =
  match Hashtbl.find_opt t.hists name with
  | Some h -> hist_quantile h q
  | None -> 0.

let p50 t name = quantile t name 0.5
let p90 t name = quantile t name 0.9
let p99 t name = quantile t name 0.99

(* Snapshot *)

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let names t =
  List.sort_uniq compare
    (sorted_keys t.counters @ sorted_keys t.gauges @ sorted_keys t.hists)

let to_json t =
  let b = Buffer.create 4096 in
  let comma first = if not !first then Buffer.add_char b ',' ; first := false in
  Buffer.add_string b "{\"counters\":{";
  let first = ref true in
  List.iter
    (fun k ->
      comma first;
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%d" (Json.escape k) (counter t k)))
    (sorted_keys t.counters);
  Buffer.add_string b "},\"gauges\":{";
  let first = ref true in
  List.iter
    (fun k ->
      comma first;
      Buffer.add_string b (Printf.sprintf "\"%s\":%s" (Json.escape k) (Json.number (gauge t k))))
    (sorted_keys t.gauges);
  Buffer.add_string b "},\"histograms\":{";
  let first = ref true in
  List.iter
    (fun k ->
      comma first;
      let h = Hashtbl.find t.hists k in
      Buffer.add_string b (Printf.sprintf "\"%s\":{" (Json.escape k));
      Buffer.add_string b
        (Printf.sprintf "\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,"
           h.h_count (Json.number h.h_sum) (Json.number h.h_min) (Json.number h.h_max));
      Buffer.add_string b
        (Printf.sprintf "\"p50\":%s,\"p90\":%s,\"p99\":%s,\"buckets\":["
           (Json.number (hist_quantile h 0.5))
           (Json.number (hist_quantile h 0.9))
           (Json.number (hist_quantile h 0.99)));
      let nfirst = ref true in
      Array.iteri
        (fun i n ->
          if n > 0 then begin
            comma nfirst;
            let ub =
              if i < Array.length h.h_bounds then Json.number h.h_bounds.(i)
              else "\"+inf\""
            in
            Buffer.add_string b (Printf.sprintf "[%s,%d]" ub n)
          end)
        h.h_counts;
      Buffer.add_string b "]}")
    (sorted_keys t.hists);
  Buffer.add_string b "}}";
  Buffer.contents b

let dump t path =
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc

(* Comparison of two BENCH_<workload>.json results of one workload at one
   seed, where every virtual quantity is deterministic:
   - an end-to-end metric fails when it is worse than the base by more than
     its bound in BENCHMARK.json;
   - a per-layer metric fails when it moved either way by more than
     [layer_tolerance], and the failure names it;
   - host clocks and rates (Harness.is_host) are printed, never gated. *)

module Json = Zapc_obs.Json

let layer_tolerance = 0.005

let rel_change b c = if b = 0.0 then (if c = 0.0 then 0.0 else infinity) else (c -. b) /. Float.abs b

(* Per-layer virtual metrics of [cur] that moved away from [base]. *)
let moved ~base ~cur =
  List.filter_map
    (fun (name, _, b) ->
      if Harness.is_host name then None
      else
        match List.find_opt (fun (n, _, _) -> String.equal n name) cur with
        | None -> Some (name ^ ": missing")
        | Some (_, _, c) ->
          if Float.abs (rel_change b c) > layer_tolerance then
            Some (Printf.sprintf "%s: %.6g -> %.6g (%+.2f%%)" name b c (100.0 *. rel_change b c))
          else None)
    base

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("compare: " ^ m); exit 2) fmt

let load path =
  match Json.parse_file path with Ok v -> v | Error e -> fail "%s: %s" path e

let field path k v = match Json.member k v with Some x -> x | None -> fail "%s: no %S" path k

let str path k v =
  match Json.to_string_opt (field path k v) with Some s -> s | None -> fail "%s: %S" path k

let num path k v =
  match Json.to_float (field path k v) with Some x -> x | None -> fail "%s: %S" path k

(* A metrics object {"name": {"value": v, "unit": u}, ...} as a list. *)
let metrics path k v =
  match field path k v with
  | Json.Obj kvs -> List.map (fun (name, m) -> (name, str path "unit" m, num path "value" m)) kvs
  | _ -> fail "%s: %S is not an object" path k

let run ~benchmark base_path cur_path =
  let base = load base_path and cur = load cur_path and bench = load benchmark in
  List.iter
    (fun k ->
      if Json.member k base <> Json.member k cur then
        fail "%s and %s differ in %S" base_path cur_path k)
    [ "workload"; "seed" ];
  let bounds =
    match Json.to_list (field benchmark "end_to_end" bench) with
    | Some l ->
      List.map
        (fun m -> (str benchmark "name" m, (str benchmark "better" m, num benchmark "bound" m)))
        l
    | None -> fail "%s: end_to_end is not a list" benchmark
  in
  let violations = ref [] in
  let violate m = violations := m :: !violations in
  let cur_e2e = metrics cur_path "e2e" cur in
  List.iter
    (fun (name, unit, b) ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) cur_e2e with
      | None -> violate (name ^ ": missing")
      | Some (_, _, c) ->
        if Harness.is_host name then
          Printf.printf "  %-24s %14.6g -> %14.6g %s (host, not gated)\n" name b c unit
        else begin
          let better, bound =
            match List.assoc_opt name bounds with
            | Some x -> x
            | None -> fail "%s: no bound for %s" benchmark name
          in
          let worse = if String.equal better "lower" then rel_change b c else -.rel_change b c in
          Printf.printf "  %-24s %14.6g -> %14.6g %s (%+.3f%%, bound %.1f%%)\n" name b c unit
            (100.0 *. rel_change b c) (100.0 *. bound);
          if worse > bound then
            violate (Printf.sprintf "%s: %.6g -> %.6g, worse by more than %.1f%%" name b c
                       (100.0 *. bound))
        end)
    (metrics base_path "e2e" base);
  List.iter violate (moved ~base:(metrics base_path "layers" base) ~cur:(metrics cur_path "layers" cur));
  match List.rev !violations with
  | [] ->
    Printf.printf "compare: %s matches %s\n" cur_path base_path;
    0
  | vs ->
    List.iter (fun v -> Printf.printf "REGRESSION %s\n" v) vs;
    1

(* Regression gate behind the @obsdiff alias: compare a freshly generated
   BENCH_*.json artifact against its committed baseline (bench/baselines/)
   with per-metric tolerances.

     obs_diff.exe BASELINE.json CURRENT.json   exit 1 on any violation
     obs_diff.exe --selftest BASELINE.json     gate sanity: the baseline
                                               must match itself, and both
                                               a grossly and a 1%-perturbed
                                               copy MUST fail

   Tolerance rules, matched on the dotted path of each leaf in the
   baseline:
     - paths containing "host", "seed", "stddev" or "floor" are skipped
       (wall-clock measurements, run identity and the gate thresholds an
       experiment echoes into its artifact are not regressions);
     - the few keys that differ between two runs of the same commit
       without saying "host" in their name ([loose_keys]) keep 50%
       relative slack;
     - everything else is a seeded, deterministic virtual output (times,
       counts, bytes, ratios of virtual quantities) and must reproduce
       to 0.5% relative, with an absolute floor of 0.001 for values
       printed at that precision.

   Lists of objects are joined by their identifying key ("label", "name",
   "phase", "rate", "app") so reordering — e.g. the profile's sort by
   count — is not a diff; positional with a length check otherwise.  A key
   present in the baseline but missing from the current artifact is a
   violation; extra keys in the current artifact are ignored (new metrics
   are not regressions). *)

module Json = Zapc_obs.Json

let violations = ref 0
let quiet = ref false

let violate fmt =
  Printf.ksprintf
    (fun m ->
      incr violations;
      if not !quiet then prerr_endline ("obs_diff: " ^ m))
    fmt

let parse_file path =
  match Json.parse_file path with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "obs_diff: FAIL: %s: %s\n" path e;
    exit 1

let ends_with suf s =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.equal (String.sub s (ls - lf) lf) suf

let contains sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i =
    i + lb <= ls && (String.equal (String.sub s i lb) sub || go (i + 1))
  in
  go 0

type rule =
  | Skip
  | Rel of float * float  (* relative slack, absolute floor *)

(* Keys measured from the host clock whose names do not say "host":
   BENCH_serve.json's restore-time ratio of two wall-clock samples. *)
let loose_keys = [ "mass_restore_ratio" ]

let rule_for path =
  if List.exists (fun k -> contains k path) [ "host"; "seed"; "stddev"; "floor" ]
  then Skip
  else if List.exists (fun k -> ends_with k path) loose_keys then Rel (0.5, 0.5)
  else Rel (0.005, 0.001)

let check path (b : float) (c : float) =
  match rule_for path with
  | Skip -> ()
  | Rel (rel, floor) ->
    let tol = Float.max (rel *. Float.abs b) floor in
    if Float.abs (c -. b) > tol then
      violate "%s: %.4f drifted from baseline %.4f (tol %.3f)" path c b tol

(* the identifying key of one list element, when it has one *)
let key_of v =
  List.fold_left
    (fun acc k ->
      match acc with
      | Some _ -> acc
      | None ->
        (match Option.bind (Json.member k v) Json.to_string_opt with
         | Some s -> Some (k ^ "=" ^ s)
         | None -> None))
    None
    [ "label"; "name"; "phase"; "rate"; "app" ]

let rec diff path (b : Json.t) (c : Json.t option) =
  match (b, c) with
  | _, None -> violate "%s: missing from the current artifact" path
  | Json.Num bn, Some (Json.Num cn) -> check path bn cn
  | Json.Num _, Some _ -> violate "%s: not a number in the current artifact" path
  | Json.Obj fields, Some cv ->
    List.iter (fun (k, bv) -> diff (path ^ "." ^ k) bv (Json.member k cv)) fields
  | Json.List bl, Some (Json.List cl) ->
    let keyed = List.map (fun v -> (key_of v, v)) bl in
    if keyed <> [] && List.for_all (fun (k, _) -> k <> None) keyed then
      List.iter
        (fun (k, bv) ->
          let k = Option.get k in
          let cv = List.find_opt (fun v -> key_of v = Some k) cl in
          diff (Printf.sprintf "%s[%s]" path k) bv cv)
        keyed
    else begin
      if List.length bl <> List.length cl then
        violate "%s: %d entries vs %d in the baseline" path (List.length cl)
          (List.length bl);
      List.iteri
        (fun i bv -> diff (Printf.sprintf "%s[%d]" path i) bv (List.nth_opt cl i))
        bl
    end
  | Json.List _, Some _ -> violate "%s: not a list in the current artifact" path
  | (Json.Str _ | Json.Bool _ | Json.Null), Some cv ->
    if rule_for path <> Skip && cv <> b then
      violate "%s: value changed from the baseline" path

let rec perturb f = function
  | Json.Num n -> Json.Num (f n)
  | Json.Obj fs -> Json.Obj (List.map (fun (k, v) -> (k, perturb f v)) fs)
  | Json.List l -> Json.List (List.map (perturb f) l)
  | v -> v

(* the number of violations the gate reports against a perturbed copy *)
let caught b f =
  violations := 0;
  quiet := true;
  diff "$" b (Some (perturb f b));
  quiet := false;
  let n = !violations in
  violations := 0;
  n

let selftest path =
  let b = parse_file path in
  diff "$" b (Some b);
  if !violations > 0 then begin
    Printf.eprintf "obs_diff: selftest FAIL: %s does not match itself\n" path;
    exit 1
  end;
  (* every numeric leaf shifted well past any tolerance (also away from 0),
     then every one bumped by 1% — a real regression in a deterministic
     output, which the near-exact bound must catch *)
  let gross = caught b (fun n -> (n *. 3.0) +. 10.0) in
  let fine = caught b (fun n -> n *. 1.01) in
  if gross = 0 || fine = 0 then begin
    Printf.eprintf
      "obs_diff: selftest FAIL: a %s-perturbed copy of %s passed the gate\n"
      (if gross = 0 then "grossly" else "1%") path;
    exit 1
  end;
  Printf.printf
    "obs_diff: selftest ok (%s matches itself; %d violation(s) caught on the \
     grossly perturbed copy, %d on the 1%% bump)\n"
    path gross fine

let () =
  match Array.to_list Sys.argv with
  | _ :: "--selftest" :: (_ :: _ as paths) -> List.iter selftest paths
  | [ _; baseline; current ] ->
    let b = parse_file baseline and c = parse_file current in
    diff "$" b (Some c);
    if !violations > 0 then begin
      Printf.eprintf "obs_diff: FAIL: %d violation(s) against %s\n" !violations
        baseline;
      exit 1
    end;
    Printf.printf "obs_diff: %s ok against baseline %s\n" current baseline
  | _ ->
    prerr_endline
      "usage: obs_diff.exe BASELINE.json CURRENT.json\n\
      \       obs_diff.exe --selftest BASELINE.json...";
    exit 2

(* Critical-path analysis over a finished operation's span tree.

   Given the closed spans recorded during one operation and its window
   [t0, t1], walk backwards from t1: at each cursor position charge the
   innermost span still covering the cursor (latest begin wins — a leaf
   phase like [Net_ckpt] beats its [Pod_ckpt] container), jump the cursor
   to that span's begin, and charge uncovered gaps to "other" ([None]).  Spans that
   cover the whole window (the op span itself, or a container opened and
   closed with it) carry no attribution and are excluded up front.

   The result answers "which phase dominates end-to-end latency" — the
   per-op breakdown the Manager emits as mgr.critpath.* metrics. *)

module Simtime = Zapc_sim.Simtime

type report = {
  cp_total : Simtime.t;                     (* t1 - t0 *)
  cp_phases : (string * Simtime.t) list;    (* duration desc, then name *)
  cp_dominant : string;                     (* head of cp_phases, "" if none *)
}

let analyze ~spans ~t0 ~t1 =
  let total = if Simtime.compare t1 t0 > 0 then t1 - t0 else 0 in
  (* candidates: closed, intersecting the window, not covering all of it *)
  let cands =
    List.filter_map
      (fun (s : Span.span) ->
        match s.Span.sp_end with
        | None -> None
        | Some e ->
          let b = s.Span.sp_begin in
          if e <= t0 || b >= t1 then None
          else if b <= t0 && e >= t1 then None
          else Some (Some s.Span.sp_name, max b t0, min e t1))
      spans
  in
  let charge = Hashtbl.create 8 in
  let add name d =
    if d > 0 then
      match Hashtbl.find_opt charge name with
      | Some r -> r := !r + d
      | None -> Hashtbl.replace charge name (ref d)
  in
  let cursor = ref t1 in
  while !cursor > t0 do
    let c = !cursor in
    (* innermost span active at the cursor: begin < c <= end, max begin;
       ties (same begin) go to the later-ending span for determinism *)
    let active =
      List.fold_left
        (fun acc (n, b, e) ->
          if b < c && c <= e then
            match acc with
            | Some (_, b', e') when b' > b || (b' = b && e' >= e) -> acc
            | _ -> Some (n, b, e)
          else acc)
        None cands
    in
    match active with
    | Some (name, b, _) ->
      add name (c - max b t0);
      cursor := max b t0
    | None ->
      (* gap: jump to the latest end strictly before the cursor *)
      let prev =
        List.fold_left
          (fun acc (_, _, e) ->
            if e < c then max acc e else acc)
          t0 cands
      in
      add None (c - prev);
      cursor := prev
  done;
  let phases =
    Hashtbl.fold
      (fun phase r acc -> (Option.fold ~none:"other" ~some:Phase.to_string phase, !r) :: acc)
      charge []
    |> List.sort (fun (na, da) (nb, db) ->
           match compare db da with 0 -> compare na nb | c -> c)
  in
  { cp_total = total;
    cp_phases = phases;
    cp_dominant = (match phases with (n, _) :: _ -> n | [] -> "") }

(* Every [val] in lib/**/*.mli must be named by some file outside its own
   module's .ml/.mli, searching the lib, bin, bench, perfbench, examples
   and test trees.  "Named" is a whole-word match on the identifier, as a
   grep would find it.  A val that only files under test/ name must say
   why in its .mli: its note (the lines from the val to the next item, or
   the comment just above it) names one of those test files, e.g.
   [test_zapc].

   Usage: check_exports.exe ROOT.  Prints each offender and exits 1 when
   there is any. *)

let roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if e = "_build" || e.[0] = '.' then acc
          else if Sys.is_directory p then walk p acc
          else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
          then p :: acc
          else acc)
        acc entries

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Every identifier-shaped word of [s]. *)
let words s =
  let tbl = Hashtbl.create 256 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_ident_char s.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      Hashtbl.replace tbl (String.sub s !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  tbl

(* A signature item starts on this (trimmed) line. *)
let item_start line =
  List.exists
    (fun prefix -> String.starts_with ~prefix line)
    [ "val "; "type "; "module "; "exception "; "external "; "include ";
      "open "; "end"; "class " ]

(* [(name, note)] for each val of an .mli. *)
let vals_of_mli text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let line i = String.trim lines.(i) in
  let n = Array.length lines in
  List.filter_map
    (fun i ->
      let l = line i in
      if not (String.starts_with ~prefix:"val " l) then None
      else begin
        let rest = String.trim (String.sub l 4 (String.length l - 4)) in
        let len = ref 0 in
        while !len < String.length rest && is_ident_char rest.[!len] do incr len done;
        if !len = 0 then None
        else begin
          let first = ref i and last = ref i in
          while !first > 0 && line (!first - 1) <> "" && not (item_start (line (!first - 1))) do
            decr first
          done;
          while !last + 1 < n && not (item_start (line (!last + 1))) do incr last done;
          let note = Array.sub lines !first (!last - !first + 1) in
          Some (String.sub rest 0 !len, String.concat "\n" (Array.to_list note))
        end
      end)
    (List.init n Fun.id)

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let under dir p = String.starts_with ~prefix:(Filename.concat root dir ^ "/") p in
  let files = List.concat_map (fun r -> List.rev (walk (Filename.concat root r) [])) roots in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let indexed = List.map (fun p -> (p, words (read p))) files in
  let bad = ref 0 in
  List.iter
    (fun mli ->
      let m = Filename.remove_extension mli in
      List.iter
        (fun (name, note) ->
          let users =
            List.filter_map
              (fun (p, ws) ->
                if Filename.remove_extension p <> m && Hashtbl.mem ws name then Some p
                else None)
              indexed
          in
          let tests =
            List.sort_uniq compare
              (List.map (fun p -> Filename.basename (Filename.remove_extension p)) users)
          in
          let shown = String.capitalize_ascii (Filename.basename m) ^ "." ^ name in
          if users = [] then begin
            incr bad;
            Printf.printf "%s: %s is named by no other file\n" mli shown
          end
          else if List.for_all (under "test") users
                  && not (List.exists (Hashtbl.mem (words note)) tests)
          then begin
            incr bad;
            Printf.printf "%s: %s is named only by tests (%s) and its note names none of them\n"
              mli shown (String.concat ", " tests)
          end)
        (vals_of_mli (read mli)))
    (List.filter (fun p -> under "lib" p && Filename.check_suffix p ".mli") files);
  if !bad > 0 then begin
    Printf.printf "%d export(s) without a caller or a reason\n" !bad;
    exit 1
  end

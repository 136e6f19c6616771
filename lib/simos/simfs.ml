(* The shared file system (the SAN/NAS-backed GFS of the paper's testbed).

   Every node mounts the same store, which is why pod checkpoints do not
   need to include file data: after migration the files are simply there
   (paper section 3).  Pods see a chroot-style private namespace — the pod
   syscall filter prefixes paths with the pod's root — and an optional
   file-system snapshot can be taken "immediately prior to reactivating the
   pod" by copying the pod's subtree.

   Files are byte strings; writes are whole-file or append. *)

module Value = Zapc_codec.Value

type t = {
  files : (string, string) Hashtbl.t;
  mutable bytes : int;
}

let create () = { files = Hashtbl.create 64; bytes = 0 }

let normalize path =
  if String.length path = 0 || path.[0] <> '/' then "/" ^ path else path

let put t path data =
  let path = normalize path in
  let old = match Hashtbl.find_opt t.files path with Some d -> String.length d | None -> 0 in
  Hashtbl.replace t.files path data;
  t.bytes <- t.bytes - old + String.length data

let append t path data =
  let path = normalize path in
  let old = match Hashtbl.find_opt t.files path with Some d -> d | None -> "" in
  Hashtbl.replace t.files path (old ^ data);
  t.bytes <- t.bytes + String.length data

let get t path = Hashtbl.find_opt t.files (normalize path)

let remove t path =
  let path = normalize path in
  (match Hashtbl.find_opt t.files path with
   | Some d -> t.bytes <- t.bytes - String.length d
   | None -> ());
  Hashtbl.remove t.files path

let exists t path = Hashtbl.mem t.files (normalize path)

let list t prefix =
  let prefix = normalize prefix in
  let n = String.length prefix in
  Hashtbl.fold
    (fun path _ acc ->
      if String.length path >= n && String.equal (String.sub path 0 n) prefix then
        path :: acc
      else acc)
    t.files []
  |> List.sort String.compare

(* Copy a subtree (used by the optional pre-reactivation snapshot); returns
   the number of bytes copied so the caller can charge storage time. *)
let snapshot_subtree t ~src_prefix ~dst_prefix =
  let files = list t src_prefix in
  let n = String.length (normalize src_prefix) in
  List.fold_left
    (fun copied path ->
      match get t path with
      | Some data ->
        let rel = String.sub path n (String.length path - n) in
        put t (normalize dst_prefix ^ rel) data;
        copied + String.length data
      | None -> copied)
    0 files

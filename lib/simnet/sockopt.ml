(* Socket and protocol options, exposed through getsockopt/setsockopt-style
   accessors.  The checkpoint saves the *entire* table (paper section 5: "For
   correctness, the entire set of the parameters is included in the saved
   state"), so restores reproduce behaviour bit-for-bit without knowing which
   options an application cares about. *)

module Value = Zapc_codec.Value

type key =
  | SO_RCVBUF
  | SO_SNDBUF
  | SO_REUSEADDR
  | SO_KEEPALIVE
  | SO_LINGER
  | SO_OOBINLINE
  | SO_BROADCAST
  | SO_PRIORITY
  | SO_RCVTIMEO
  | SO_SNDTIMEO
  | SO_NONBLOCK  (* O_NONBLOCK, kept here for uniform save/restore *)
  | TCP_NODELAY
  | TCP_MAXSEG
  | TCP_KEEPIDLE
  | TCP_KEEPINTVL
  | TCP_KEEPCNT
  | TCP_STDURG
  | IP_TTL
  | IP_TOS

let all_keys =
  [ SO_RCVBUF; SO_SNDBUF; SO_REUSEADDR; SO_KEEPALIVE; SO_LINGER; SO_OOBINLINE;
    SO_BROADCAST; SO_PRIORITY; SO_RCVTIMEO; SO_SNDTIMEO; SO_NONBLOCK; TCP_NODELAY;
    TCP_MAXSEG; TCP_KEEPIDLE; TCP_KEEPINTVL; TCP_KEEPCNT; TCP_STDURG; IP_TTL; IP_TOS ]

let key_name = function
  | SO_RCVBUF -> "SO_RCVBUF"
  | SO_SNDBUF -> "SO_SNDBUF"
  | SO_REUSEADDR -> "SO_REUSEADDR"
  | SO_KEEPALIVE -> "SO_KEEPALIVE"
  | SO_LINGER -> "SO_LINGER"
  | SO_OOBINLINE -> "SO_OOBINLINE"
  | SO_BROADCAST -> "SO_BROADCAST"
  | SO_PRIORITY -> "SO_PRIORITY"
  | SO_RCVTIMEO -> "SO_RCVTIMEO"
  | SO_SNDTIMEO -> "SO_SNDTIMEO"
  | SO_NONBLOCK -> "SO_NONBLOCK"
  | TCP_NODELAY -> "TCP_NODELAY"
  | TCP_MAXSEG -> "TCP_MAXSEG"
  | TCP_KEEPIDLE -> "TCP_KEEPIDLE"
  | TCP_KEEPINTVL -> "TCP_KEEPINTVL"
  | TCP_KEEPCNT -> "TCP_KEEPCNT"
  | TCP_STDURG -> "TCP_STDURG"
  | IP_TTL -> "IP_TTL"
  | IP_TOS -> "IP_TOS"

let key_of_name s =
  match List.find_opt (fun k -> String.equal (key_name k) s) all_keys with
  | Some k -> k
  | None -> Value.decode_error "unknown socket option %s" s

let default = function
  | SO_RCVBUF -> 262144
  | SO_SNDBUF -> 262144
  | TCP_MAXSEG -> 1448
  | TCP_KEEPIDLE -> 7200
  | TCP_KEEPINTVL -> 75
  | TCP_KEEPCNT -> 9
  | IP_TTL -> 64
  | SO_REUSEADDR | SO_KEEPALIVE | SO_LINGER | SO_OOBINLINE | SO_BROADCAST
  | SO_PRIORITY | SO_RCVTIMEO | SO_SNDTIMEO | SO_NONBLOCK | TCP_NODELAY
  | TCP_STDURG | IP_TOS -> 0

(* The key's position in [all_keys]. *)
let index = function
  | SO_RCVBUF -> 0
  | SO_SNDBUF -> 1
  | SO_REUSEADDR -> 2
  | SO_KEEPALIVE -> 3
  | SO_LINGER -> 4
  | SO_OOBINLINE -> 5
  | SO_BROADCAST -> 6
  | SO_PRIORITY -> 7
  | SO_RCVTIMEO -> 8
  | SO_SNDTIMEO -> 9
  | SO_NONBLOCK -> 10
  | TCP_NODELAY -> 11
  | TCP_MAXSEG -> 12
  | TCP_KEEPIDLE -> 13
  | TCP_KEEPINTVL -> 14
  | TCP_KEEPCNT -> 15
  | TCP_STDURG -> 16
  | IP_TTL -> 17
  | IP_TOS -> 18

let defaults = Array.of_list (List.map default all_keys)

(* One slot per key, indexed by [index]; bit [index k] of [set] records that
   [k] was set explicitly, so [copy_into] copies exactly those keys. *)
type table = { vals : int array; mutable set : int }

let create () = { vals = Array.copy defaults; set = 0 }
let get t k = Array.unsafe_get t.vals (index k)

let set t k v =
  let i = index k in
  t.vals.(i) <- v;
  t.set <- t.set lor (1 lsl i)

let to_value t =
  let kvs = List.map (fun k -> (key_name k, Value.Int (get t k))) all_keys in
  Value.Assoc kvs

let of_value v =
  let t = create () in
  List.iter (fun (name, v) -> set t (key_of_name name) (Value.to_int v)) (Value.to_assoc v);
  t

let copy_into ~src ~dst =
  Array.iteri (fun i v -> if src.set land (1 lsl i) <> 0 then dst.vals.(i) <- v) src.vals;
  dst.set <- dst.set lor src.set

(* The per-pod daemon process (the mpd/pvmd analogue): each pod runs one in
   addition to the application endpoint, as on the paper's testbed.  It
   allocates a small working set and idles in a sleep loop; its only role is
   to make pods contain more than one process and to exercise multi-process
   checkpoint-restart. *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall

module P = struct
  type state = Fresh | Looping

  let name = "mpd"
  let start _args = Fresh

  let step state (_ : Syscall.outcome) =
    match state with
    | Fresh -> (Looping, Program.Sys (Syscall.Mem_alloc ("mpd.rss", 3_000_000)))
    | Looping -> (Looping, Program.Sys (Syscall.Nanosleep (Simtime.ms 500)))

  let to_value = function Fresh -> Value.Int 0 | Looping -> Value.Int 1
  let of_value v = match Value.to_int v with 0 -> Fresh | _ -> Looping
end

let register () = Program.register_if_absent (module P)

(* CPI: parallel computation of pi by numeric integration of 4/(1+x^2),
   the MPICH-2 example used in the paper.  Mostly computation-bound with one
   small allreduce per chunk of intervals.

   The integral is really computed; the per-interval virtual-time cost
   models the 3 GHz-era testbed. *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Mpi = Zapc_msg.Mpi

type params = {
  intervals : int;  (* total integration intervals *)
  chunks : int;  (* number of compute/allreduce rounds *)
  ns_per_interval : int;  (* virtual compute cost *)
  mem_base : int;  (* bytes resident regardless of scale *)
  mem_scaled : int;  (* bytes divided across ranks *)
}

let default_params =
  { intervals = 2_000_000; chunks = 10; ns_per_interval = 12; mem_base = 6_000_000;
    mem_scaled = 10_000_000 }

let params_to_value p =
  Value.assoc
    [ ("intervals", Value.int p.intervals);
      ("chunks", Value.int p.chunks);
      ("ns_per_interval", Value.int p.ns_per_interval);
      ("mem_base", Value.int p.mem_base);
      ("mem_scaled", Value.int p.mem_scaled) ]

let params_of_value v =
  {
    intervals = Value.to_int (Value.field "intervals" v);
    chunks = Value.to_int (Value.field "chunks" v);
    ns_per_interval = Value.to_int (Value.field "ns_per_interval" v);
    mem_base = Value.to_int (Value.field "mem_base" v);
    mem_scaled = Value.to_int (Value.field "mem_scaled" v);
  }

type phase =
  | Boot
  | Initing
  | Computing of int  (* chunk index *)
  | Reducing of int
  | Done_phase

module P = struct
  type state = {
    comm : Mpi.comm;
    params : params;
    mutable phase : phase;
    mutable mpi : Mpi.pending option;
    mutable pi_acc : float;  (* accumulated integral *)
    mutable partial : float;  (* this chunk's local contribution *)
  }

  let name = "cpi"

  let start args =
    let rank, size, vips, port, app = Mpi.parse_args args in
    let comm = Mpi.make ~rank ~size ~vips ~port in
    { comm; params = params_of_value app; phase = Boot; mpi = None; pi_acc = 0.0;
      partial = 0.0 }

  (* Integrate this rank's strided share of one chunk (the real math). *)
  let compute_chunk s c =
    let { intervals; chunks; _ } = s.params in
    let per_chunk = intervals / chunks in
    let lo = c * per_chunk in
    let n = float_of_int intervals in
    let h = 1.0 /. n in
    let sum = ref 0.0 in
    let i = ref (lo + s.comm.rank) in
    while !i < lo + per_chunk do
      let x = h *. (float_of_int !i +. 0.5) in
      sum := !sum +. (4.0 /. (1.0 +. (x *. x)));
      i := !i + s.comm.size
    done;
    s.partial <- h *. !sum;
    let my_share = per_chunk / s.comm.size in
    Program.Compute (Simtime.ns (Stdlib.max 1 (my_share * s.params.ns_per_interval)))

  let enter_mpi s (pending, act) =
    s.mpi <- Some pending;
    act

  let rec continue s (r : Mpi.result) : Program.action =
    match (s.phase, r) with
    | _, Mpi.R_fail msg ->
      s.phase <- Done_phase;
      Program.Sys (Syscall.Log ("cpi: MPI failure: " ^ msg))
    | Boot, _ -> assert false
    | Initing, _ ->
      s.phase <- Computing 0;
      compute_chunk s 0
    | Computing _, _ -> assert false
    | Reducing c, Mpi.R_floats totals ->
      s.pi_acc <- s.pi_acc +. totals.(0);
      let c' = c + 1 in
      if c' < s.params.chunks then begin
        s.phase <- Computing c';
        compute_chunk s c'
      end
      else begin
        s.phase <- Done_phase;
        if s.comm.rank = 0 then
          Program.Sys
            (Syscall.Log (Printf.sprintf "cpi: pi ~= %.12f (err %.2e)" s.pi_acc
                            (Float.abs (s.pi_acc -. Float.pi))))
        else Program.Exit 0
      end
    | Reducing _, _ -> continue s (Mpi.R_fail "unexpected reduce result")
    | Done_phase, _ -> Program.Exit 0

  let step s (outcome : Syscall.outcome) =
    match s.mpi with
    | Some pending ->
      (match Mpi.step s.comm pending outcome with
       | `Again (p, act) ->
         s.mpi <- Some p;
         (s, act)
       | `Done r ->
         s.mpi <- None;
         (s, continue s r))
    | None ->
      (match s.phase with
       | Boot ->
         (match outcome with
          | Syscall.Started ->
            let mem = s.params.mem_base + (s.params.mem_scaled / s.comm.size) in
            (s, Program.Sys (Syscall.Mem_alloc ("cpi.rss", mem)))
          | _ ->
            s.phase <- Initing;
            (s, enter_mpi s (Mpi.init s.comm)))
       | Computing c ->
         (* compute finished; reduce the chunk *)
         s.phase <- Reducing c;
         (s, enter_mpi s (Mpi.allreduce_sum s.comm [| s.partial |]))
       | Initing | Reducing _ -> (s, Program.Exit 1)
       | Done_phase -> (s, Program.Exit 0))

  let phase_to_value = function
    | Boot -> Value.Tag ("boot", Value.Unit)
    | Initing -> Value.Tag ("initing", Value.Unit)
    | Computing c -> Value.Tag ("computing", Value.Int c)
    | Reducing c -> Value.Tag ("reducing", Value.Int c)
    | Done_phase -> Value.Tag ("done", Value.Unit)

  let phase_of_value v =
    match Value.to_tag v with
    | "boot", _ -> Boot
    | "initing", _ -> Initing
    | "computing", c -> Computing (Value.to_int c)
    | "reducing", c -> Reducing (Value.to_int c)
    | "done", _ -> Done_phase
    | t, _ -> Value.decode_error "cpi phase %s" t

  let to_value s =
    Value.assoc
      [ ("comm", Mpi.comm_to_value s.comm);
        ("params", params_to_value s.params);
        ("phase", phase_to_value s.phase);
        ("mpi", Value.option Mpi.pending_to_value s.mpi);
        ("pi_acc", Value.float s.pi_acc);
        ("partial", Value.float s.partial) ]

  let of_value v =
    {
      comm = Mpi.comm_of_value (Value.field "comm" v);
      params = params_of_value (Value.field "params" v);
      phase = phase_of_value (Value.field "phase" v);
      mpi = Value.to_option Mpi.pending_of_value (Value.field "mpi" v);
      pi_acc = Value.to_float (Value.field "pi_acc" v);
      partial = Value.to_float (Value.field "partial" v);
    }
end

let register () = Program.register_if_absent (module P)

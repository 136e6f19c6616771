(* PETSc-style Bratu (SFI — solid fuel ignition) solver: the nonlinear PDE
   -lap(u) = lambda * e^u on the unit square, discretized on a distributed
   2D array (row partition with ghost rows) and solved by damped nonlinear
   Jacobi relaxation.  Communication is moderate: one halo exchange per
   sweep plus a residual allreduce every few sweeps — the paper's
   "moderate level of communication" profile. *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Mpi = Zapc_msg.Mpi
module Floats = Zapc_msg.Floats

let tag_halo = 9

type params = {
  g : int;
  lambda : float;
  max_iters : int;
  tol : float;
  check_every : int;  (* residual allreduce cadence *)
  ns_per_cell : int;
  mem_base : int;
  mem_scaled : int;
}

let default_params =
  { g = 160; lambda = 6.0; max_iters = 60; tol = 1e-6; check_every = 5; ns_per_cell = 90;
    mem_base = 15_000_000; mem_scaled = 130_000_000 }

let params_to_value p =
  Value.assoc
    [ ("g", Value.int p.g); ("lambda", Value.float p.lambda);
      ("max_iters", Value.int p.max_iters); ("tol", Value.float p.tol);
      ("check_every", Value.int p.check_every); ("ns_per_cell", Value.int p.ns_per_cell);
      ("mem_base", Value.int p.mem_base); ("mem_scaled", Value.int p.mem_scaled) ]

let params_of_value v =
  {
    g = Value.to_int (Value.field "g" v);
    lambda = Value.to_float (Value.field "lambda" v);
    max_iters = Value.to_int (Value.field "max_iters" v);
    tol = Value.to_float (Value.field "tol" v);
    check_every = Value.to_int (Value.field "check_every" v);
    ns_per_cell = Value.to_int (Value.field "ns_per_cell" v);
    mem_base = Value.to_int (Value.field "mem_base" v);
    mem_scaled = Value.to_int (Value.field "mem_scaled" v);
  }

type ex_step = Send_up | Send_down | Recv_up | Recv_down

type phase =
  | Boot
  | Initing
  | Exchange of int * ex_step
  | Computing of int
  | Residual of int
  | Done_phase

(* One damped nonlinear Jacobi sweep from the (rows + 2) x g grid [src]
   (rows 0 and rows + 1 are ghosts) into [dst]: [dst] gets [src]'s ghost
   rows and the relaxed interior.  Returns the local residual norm of the
   Bratu operator.  Dirichlet zero boundary on the domain edge (missing
   halos stay zero). *)
let sweep ~g ~rows ~lambda ~src:u ~dst:next =
  let h = 1.0 /. float_of_int (g + 1) in
  let h2l = h *. h *. lambda in
  Array.blit u 0 next 0 g;
  Array.blit u ((rows + 1) * g) next ((rows + 1) * g) g;
  let res = ref 0.0 in
  for r = 1 to rows do
    let base = r * g in
    for i = 0 to g - 1 do
      let left = if i > 0 then u.(base + i - 1) else 0.0 in
      let right = if i < g - 1 then u.(base + i + 1) else 0.0 in
      let up = u.(base - g + i) in
      let down = u.(base + g + i) in
      let uij = u.(base + i) in
      let f = left +. right +. up +. down -. (4.0 *. uij) +. (h2l *. exp uij) in
      res := !res +. (f *. f);
      next.(base + i) <- uij +. (0.22 *. f)
    done
  done;
  !res

module P = struct
  type state = {
    comm : Mpi.comm;
    params : params;
    mutable phase : phase;
    mutable mpi : Mpi.pending option;
    mutable u : float array;  (* (rows+2) * g with ghosts *)
    mutable spare : float array;  (* the sweep's output grid; derived, never imaged *)
    rows : int;
    row0 : int;  (* global index of first interior row *)
    mutable local_res : float;
    mutable final_res : float;
  }

  let name = "bratu"

  let partition ~g ~size ~rank =
    let base = g / size and extra = g mod size in
    let rows = base + (if rank < extra then 1 else 0) in
    let row0 = (rank * base) + min rank extra in
    (rows, row0)

  let start args =
    let rank, size, vips, port, app = Mpi.parse_args args in
    let comm = Mpi.make ~rank ~size ~vips ~port in
    let params = params_of_value app in
    let rows, row0 = partition ~g:params.g ~size ~rank in
    let u = Array.make ((rows + 2) * params.g) 0.0 in
    { comm; params; phase = Boot; mpi = None; u; spare = Array.make (Array.length u) 0.0;
      rows; row0; local_res = infinity; final_res = infinity }

  let g s = s.params.g
  let pack_row s r = Floats.pack_sub s.u ~pos:(r * g s) ~len:(g s)
  let unpack_row s r data = Floats.unpack_into data s.u ~pos:(r * g s)
  let has_up s = s.comm.rank > 0
  let has_down s = s.comm.rank < s.comm.size - 1

  (* One sweep into the spare grid, which then becomes the grid. *)
  let compute_sweep s =
    s.local_res <- sweep ~g:(g s) ~rows:s.rows ~lambda:s.params.lambda ~src:s.u ~dst:s.spare;
    let u = s.u in
    s.u <- s.spare;
    s.spare <- u;
    Program.Compute (Simtime.ns (Stdlib.max 1 (s.rows * g s * s.params.ns_per_cell)))

  let enter_mpi s (pending, act) =
    s.mpi <- Some pending;
    act

  let rec exchange s it (stp : ex_step) : Program.action =
    s.phase <- Exchange (it, stp);
    match stp with
    | Send_up ->
      if has_up s then
        enter_mpi s
          (Mpi.send s.comm ~peer:(s.comm.rank - 1) ~tag:tag_halo (pack_row s 1))
      else exchange s it Send_down
    | Send_down ->
      if has_down s then
        enter_mpi s
          (Mpi.send s.comm ~peer:(s.comm.rank + 1) ~tag:tag_halo
             (pack_row s s.rows))
      else exchange s it Recv_up
    | Recv_up ->
      if has_up s then enter_mpi s (Mpi.recv s.comm ~src:(s.comm.rank - 1) ~tag:tag_halo)
      else exchange s it Recv_down
    | Recv_down ->
      if has_down s then enter_mpi s (Mpi.recv s.comm ~src:(s.comm.rank + 1) ~tag:tag_halo)
      else begin
        s.phase <- Computing it;
        compute_sweep s
      end

  let finish s =
    s.phase <- Done_phase;
    if s.comm.rank = 0 then
      Program.Sys
        (Syscall.Log
           (Printf.sprintf "bratu: residual %.3e (lambda=%.2f)" s.final_res s.params.lambda))
    else Program.Exit 0

  let rec continue s (r : Mpi.result) : Program.action =
    match (s.phase, r) with
    | _, Mpi.R_fail msg ->
      s.phase <- Done_phase;
      Program.Sys (Syscall.Log ("bratu: MPI failure: " ^ msg))
    | Initing, _ -> exchange s 0 Send_up
    | Exchange (it, Send_up), _ -> exchange s it Send_down
    | Exchange (it, Send_down), _ -> exchange s it Recv_up
    | Exchange (it, Recv_up), Mpi.R_msg { data; _ } ->
      unpack_row s 0 data;
      exchange s it Recv_down
    | Exchange (it, Recv_down), Mpi.R_msg { data; _ } ->
      unpack_row s (s.rows + 1) data;
      s.phase <- Computing it;
      compute_sweep s
    | Residual it, Mpi.R_floats totals ->
      let res = sqrt totals.(0) in
      s.final_res <- res;
      let it' = it + 1 in
      if res < s.params.tol || it' >= s.params.max_iters then finish s
      else exchange s it' Send_up
    | (Boot | Exchange _ | Computing _ | Residual _ | Done_phase), _ ->
      continue s (Mpi.R_fail "unexpected MPI result")

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
            (s, Program.Sys (Syscall.Mem_alloc ("bratu.rss", mem)))
          | _ ->
            s.phase <- Initing;
            (s, enter_mpi s (Mpi.init s.comm)))
       | Computing it ->
         let it' = it + 1 in
         if it' mod s.params.check_every = 0 || it' >= s.params.max_iters then begin
           s.phase <- Residual it;
           (s, enter_mpi s (Mpi.allreduce_sum s.comm [| s.local_res |]))
         end
         else (s, exchange s it' Send_up)
       | Initing | Exchange _ | Residual _ -> (s, Program.Exit 1)
       | Done_phase -> (s, Program.Exit 0))

  let ex_to_int = function Send_up -> 0 | Send_down -> 1 | Recv_up -> 2 | Recv_down -> 3

  let ex_of_int = function 0 -> Send_up | 1 -> Send_down | 2 -> Recv_up | _ -> Recv_down

  let phase_to_value = function
    | Boot -> Value.Tag ("boot", Value.Unit)
    | Initing -> Value.Tag ("initing", Value.Unit)
    | Exchange (it, stp) ->
      Value.Tag ("exchange", Value.List [ Value.Int it; Value.Int (ex_to_int stp) ])
    | Computing it -> Value.Tag ("computing", Value.Int it)
    | Residual it -> Value.Tag ("residual", Value.Int it)
    | Done_phase -> Value.Tag ("done", Value.Unit)

  let phase_of_value v =
    match Value.to_tag v with
    | "boot", _ -> Boot
    | "initing", _ -> Initing
    | "exchange", Value.List [ Value.Int it; Value.Int stp ] -> Exchange (it, ex_of_int stp)
    | "computing", it -> Computing (Value.to_int it)
    | "residual", it -> Residual (Value.to_int it)
    | "done", _ -> Done_phase
    | t, _ -> Value.decode_error "bratu phase %s" t

  let to_value s =
    Value.assoc
      [ ("comm", Mpi.comm_to_value s.comm);
        ("params", params_to_value s.params);
        ("phase", phase_to_value s.phase);
        ("mpi", Value.option Mpi.pending_to_value s.mpi);
        ("u", Value.f64s (Array.copy s.u));
        ("rows", Value.int s.rows);
        ("row0", Value.int s.row0);
        ("local_res", Value.float s.local_res);
        ("final_res", Value.float s.final_res) ]

  let of_value v =
    (* the grids swap and are swept in place, and an image is never
       mutated *)
    let u = Array.copy (Value.to_f64s (Value.field "u" v)) in
    {
      comm = Mpi.comm_of_value (Value.field "comm" v);
      params = params_of_value (Value.field "params" v);
      phase = phase_of_value (Value.field "phase" v);
      mpi = Value.to_option Mpi.pending_of_value (Value.field "mpi" v);
      u;
      spare = Array.make (Array.length u) 0.0;
      rows = Value.to_int (Value.field "rows" v);
      row0 = Value.to_int (Value.field "row0" v);
      local_res = Value.to_float (Value.field "local_res" v);
      final_res = Value.to_float (Value.field "final_res" v);
    }
end

let register () = Program.register_if_absent (module P)

(* BT/NAS-like workload: iterative block-tridiagonal solver on a 2D grid,
   row-partitioned across ranks.  Each iteration exchanges halo rows with
   both neighbours (substantial communication, like the NAS BT benchmark)
   and then performs real numeric work: a Thomas tridiagonal solve along
   every row followed by a vertical relaxation against the neighbour rows.

   The paper runs BT on square process counts (1, 4, 9, 16); this
   implementation accepts any count (the benches use the paper's). *)

module Value = Zapc_codec.Value
module Simtime = Zapc_sim.Simtime
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Mpi = Zapc_msg.Mpi
module Floats = Zapc_msg.Floats

let tag_halo = 7

type params = {
  g : int;  (* global grid is g x g *)
  iters : int;
  ns_per_cell : int;
  mem_base : int;
  mem_scaled : int;
}

let default_params =
  { g = 192; iters = 30; ns_per_cell = 55; mem_base = 20_000_000;
    mem_scaled = 320_000_000 }

let params_to_value p =
  Value.assoc
    [ ("g", Value.int p.g); ("iters", Value.int p.iters);
      ("ns_per_cell", Value.int p.ns_per_cell); ("mem_base", Value.int p.mem_base);
      ("mem_scaled", Value.int p.mem_scaled) ]

let params_of_value v =
  {
    g = Value.to_int (Value.field "g" v);
    iters = Value.to_int (Value.field "iters" v);
    ns_per_cell = Value.to_int (Value.field "ns_per_cell" v);
    mem_base = Value.to_int (Value.field "mem_base" v);
    mem_scaled = Value.to_int (Value.field "mem_scaled" v);
  }

type ex_step = Send_up | Send_down | Recv_up | Recv_down

type phase =
  | Boot
  | Initing
  | Exchange of int * ex_step  (* iteration, sub-step *)
  | Computing of int
  | Reducing
  | Done_phase

(* The Thomas solve of tri(-1, 4, -1) x = row, in place, on the row of
   [u] (length [g]) that starts at [b].  [cp] and the pivots [m] depend
   only on [g].  Each chain carries its last value in a register rather
   than through the array. *)
let thomas1 (u : float array) ~g ~(cp : float array) ~(m : float array) ~b =
  let a = -1.0 in
  let p = ref (Array.unsafe_get u b /. m.(0)) in
  Array.unsafe_set u b !p;
  for i = 1 to g - 1 do
    p := (Array.unsafe_get u (b + i) -. (a *. !p)) /. Array.unsafe_get m i;
    Array.unsafe_set u (b + i) !p
  done;
  for i = g - 2 downto 0 do
    p := Array.unsafe_get u (b + i) -. (Array.unsafe_get cp i *. !p);
    Array.unsafe_set u (b + i) !p
  done

(* [thomas1] on the rows at [b1] and [b2] in one loop, so that their
   independent division chains overlap; each row sees exactly the
   operations of a solve on its own. *)
let thomas2 (u : float array) ~g ~(cp : float array) ~(m : float array) ~b1 ~b2 =
  let a = -1.0 in
  let p1 = ref (Array.unsafe_get u b1 /. m.(0)) in
  let p2 = ref (Array.unsafe_get u b2 /. m.(0)) in
  Array.unsafe_set u b1 !p1;
  Array.unsafe_set u b2 !p2;
  for i = 1 to g - 1 do
    let mi = Array.unsafe_get m i in
    p1 := (Array.unsafe_get u (b1 + i) -. (a *. !p1)) /. mi;
    Array.unsafe_set u (b1 + i) !p1;
    p2 := (Array.unsafe_get u (b2 + i) -. (a *. !p2)) /. mi;
    Array.unsafe_set u (b2 + i) !p2
  done;
  for i = g - 2 downto 0 do
    let ci = Array.unsafe_get cp i in
    p1 := Array.unsafe_get u (b1 + i) -. (ci *. !p1);
    Array.unsafe_set u (b1 + i) !p1;
    p2 := Array.unsafe_get u (b2 + i) -. (ci *. !p2);
    Array.unsafe_set u (b2 + i) !p2
  done

(* One sweep over the (rows + 2) x g grid [u], whose rows 0 and rows + 1
   are ghosts: a Thomas solve along every interior row, then a vertical
   relaxation against the neighbour rows.  The relaxation updates in place,
   row after row, so each row sees its upper neighbour already relaxed;
   that order is part of the result. *)
let sweep ~g ~rows u =
  if Array.length u < (rows + 2) * g then invalid_arg "Bt_nas.sweep";
  let a = -1.0 and b = 4.0 and c = -1.0 in
  let cp = Array.make g 0.0 and m = Array.make g b in
  cp.(0) <- c /. b;
  for i = 1 to g - 1 do
    m.(i) <- b -. (a *. cp.(i - 1));
    cp.(i) <- c /. m.(i)
  done;
  for k = 0 to (rows / 2) - 1 do
    thomas2 u ~g ~cp ~m ~b1:(((2 * k) + 1) * g) ~b2:(((2 * k) + 2) * g)
  done;
  if rows land 1 = 1 then thomas1 u ~g ~cp ~m ~b:(rows * g);
  for r = 1 to rows do
    let base = r * g in
    let up = (r - 1) * g and dn = (r + 1) * g in
    for i = 0 to g - 1 do
      u.(base + i) <- (0.5 *. u.(base + i)) +. (0.25 *. (u.(up + i) +. u.(dn + i)))
    done
  done

module P = struct
  type state = {
    comm : Mpi.comm;
    params : params;
    mutable phase : phase;
    mutable mpi : Mpi.pending option;
    mutable u : float array;  (* (rows + 2) * g, with ghost rows 0 and rows+1 *)
    rows : int;  (* interior rows owned by this rank *)
    mutable checksum : float;
  }

  let name = "bt_nas"

  let local_rows ~g ~size ~rank =
    let base = g / size and extra = g mod size in
    base + (if rank < extra then 1 else 0)

  let start args =
    let rank, size, vips, port, app = Mpi.parse_args args in
    let comm = Mpi.make ~rank ~size ~vips ~port in
    let params = params_of_value app in
    let rows = local_rows ~g:params.g ~size ~rank in
    let u =
      Array.init
        ((rows + 2) * params.g)
        (fun i ->
          (* deterministic nontrivial initial field *)
          let x = float_of_int (i mod params.g) /. float_of_int params.g in
          let y = float_of_int (i / params.g) /. float_of_int (rows + 2) in
          sin (3.0 *. x) *. cos (2.0 *. y) +. (0.01 *. float_of_int rank))
    in
    { comm; params; phase = Boot; mpi = None; u; rows; checksum = 0.0 }

  let g s = s.params.g
  let pack_row s r = Floats.pack_sub s.u ~pos:(r * g s) ~len:(g s)
  let unpack_row s r data = Floats.unpack_into data s.u ~pos:(r * g s)
  let has_up s = s.comm.rank > 0
  let has_down s = s.comm.rank < s.comm.size - 1

  (* One sweep of real numeric work; returns the compute action that
     charges virtual time. *)
  let compute_sweep s =
    sweep ~g:(g s) ~rows:s.rows s.u;
    Program.Compute
      (Simtime.ns (Stdlib.max 1 (s.rows * g s * s.params.ns_per_cell)))

  let enter_mpi s (pending, act) =
    s.mpi <- Some pending;
    act

  (* advance the halo-exchange machine; sends both boundary rows, then
     receives both ghost rows *)
  let rec exchange s it (stp : ex_step) : Program.action =
    s.phase <- Exchange (it, stp);
    match stp with
    | Send_up ->
      if has_up s then
        enter_mpi s
          (Mpi.send s.comm ~peer:(s.comm.rank - 1) ~tag:tag_halo
             (pack_row s 1))
      else exchange s it Send_down
    | Send_down ->
      if has_down s then
        enter_mpi s
          (Mpi.send s.comm ~peer:(s.comm.rank + 1) ~tag:tag_halo
             (pack_row s s.rows))
      else exchange s it Recv_up
    | Recv_up ->
      if has_up s then
        enter_mpi s (Mpi.recv s.comm ~src:(s.comm.rank - 1) ~tag:tag_halo)
      else exchange s it Recv_down
    | Recv_down ->
      if has_down s then
        enter_mpi s (Mpi.recv s.comm ~src:(s.comm.rank + 1) ~tag:tag_halo)
      else begin
        s.phase <- Computing it;
        compute_sweep s
      end

  let local_checksum s =
    let acc = ref 0.0 in
    for r = 1 to s.rows do
      for i = 0 to g s - 1 do
        let v = s.u.((r * g s) + i) in
        acc := !acc +. (v *. v)
      done
    done;
    !acc

  let rec continue s (r : Mpi.result) : Program.action =
    match (s.phase, r) with
    | _, Mpi.R_fail msg ->
      s.phase <- Done_phase;
      Program.Sys (Syscall.Log ("bt_nas: MPI failure: " ^ msg))
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
    | Reducing, Mpi.R_floats totals ->
      s.checksum <- totals.(0);
      s.phase <- Done_phase;
      if s.comm.rank = 0 then
        Program.Sys
          (Syscall.Log (Printf.sprintf "bt_nas: checksum %.6e after %d iters" s.checksum
                          s.params.iters))
      else Program.Exit 0
    | (Boot | Exchange _ | Computing _ | Reducing | Done_phase), _ ->
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
            (s, Program.Sys (Syscall.Mem_alloc ("bt.rss", mem)))
          | _ ->
            s.phase <- Initing;
            (s, enter_mpi s (Mpi.init s.comm)))
       | Computing it ->
         (* sweep finished *)
         let it' = it + 1 in
         if it' < s.params.iters then (s, exchange s it' Send_up)
         else begin
           s.phase <- Reducing;
           (s, enter_mpi s (Mpi.allreduce_sum s.comm [| local_checksum s |]))
         end
       | Exchange _ -> (s, exchange s 0 Send_up)
       | Initing | Reducing -> (s, Program.Exit 1)
       | Done_phase -> (s, Program.Exit 0))

  let ex_to_int = function Send_up -> 0 | Send_down -> 1 | Recv_up -> 2 | Recv_down -> 3

  let ex_of_int = function
    | 0 -> Send_up
    | 1 -> Send_down
    | 2 -> Recv_up
    | _ -> Recv_down

  let phase_to_value = function
    | Boot -> Value.Tag ("boot", Value.Unit)
    | Initing -> Value.Tag ("initing", Value.Unit)
    | Exchange (it, stp) -> Value.Tag ("exchange", Value.List [ Value.Int it; Value.Int (ex_to_int stp) ])
    | Computing it -> Value.Tag ("computing", Value.Int it)
    | Reducing -> Value.Tag ("reducing", Value.Unit)
    | Done_phase -> Value.Tag ("done", Value.Unit)

  let phase_of_value v =
    match Value.to_tag v with
    | "boot", _ -> Boot
    | "initing", _ -> Initing
    | "exchange", Value.List [ Value.Int it; Value.Int stp ] -> Exchange (it, ex_of_int stp)
    | "computing", it -> Computing (Value.to_int it)
    | "reducing", _ -> Reducing
    | "done", _ -> Done_phase
    | t, _ -> Value.decode_error "bt phase %s" t

  let to_value s =
    Value.assoc
      [ ("comm", Mpi.comm_to_value s.comm);
        ("params", params_to_value s.params);
        ("phase", phase_to_value s.phase);
        ("mpi", Value.option Mpi.pending_to_value s.mpi);
        ("u", Value.f64s (Array.copy s.u));
        ("rows", Value.int s.rows);
        ("checksum", Value.float s.checksum) ]

  let of_value v =
    {
      comm = Mpi.comm_of_value (Value.field "comm" v);
      params = params_of_value (Value.field "params" v);
      phase = phase_of_value (Value.field "phase" v);
      mpi = Value.to_option Mpi.pending_of_value (Value.field "mpi" v);
      u = Value.to_f64s (Value.field "u" v);
      rows = Value.to_int (Value.field "rows" v);
      checksum = Value.to_float (Value.field "checksum" v);
    }
end

let register () = Program.register_if_absent (module P : Program.S)

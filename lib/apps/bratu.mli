(** PETSc-style Bratu (SFI — solid fuel ignition) solver: the nonlinear PDE
    -lap(u) = lambda e^u on the unit square, discretized on a distributed 2D
    array (row partition with ghost rows) and solved by damped nonlinear
    Jacobi relaxation.  One halo exchange per sweep plus a residual
    allreduce every few sweeps — the paper's "moderate level of
    communication" profile. *)

type params = {
  g : int;
  lambda : float;
  max_iters : int;
  tol : float;
  check_every : int;  (** residual allreduce cadence *)
  ns_per_cell : int;
  mem_base : int;
  mem_scaled : int;
}

val default_params : params
val params_to_value : params -> Zapc_codec.Value.t
val params_of_value : Zapc_codec.Value.t -> params

val sweep :
  g:int -> rows:int -> lambda:float -> src:float array -> dst:float array -> float
(** [sweep ~g ~rows ~lambda ~src ~dst] is one damped nonlinear Jacobi sweep
    of the [(rows + 2) * g] grid [src] (first and last rows are the halo
    ghosts) into [dst], which gets [src]'s ghost rows and the new interior;
    it returns the local squared residual.  The program keeps [dst] as a
    spare grid and swaps the two after each sweep.  Exported for
    [test_apps], which holds grid and residual to the copying sweep bit for
    bit, and for the micro benchmark. *)

val register : unit -> unit
(** Register program ["bratu"]. *)

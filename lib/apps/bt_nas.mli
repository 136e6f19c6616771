(** BT/NAS-like workload: an iterative block-tridiagonal solver on a 2D
    grid, row-partitioned across ranks.  Each iteration exchanges halo rows
    with both neighbours (substantial communication, like the NAS BT
    benchmark) and performs real numeric work — a Thomas tridiagonal solve
    along every row followed by a vertical relaxation.  Rank 0 logs a
    checksum, which restart-transparency tests compare bit-for-bit. *)

type params = {
  g : int;  (** global grid is g x g *)
  iters : int;
  ns_per_cell : int;
  mem_base : int;
  mem_scaled : int;
}

val default_params : params
val params_to_value : params -> Zapc_codec.Value.t
val params_of_value : Zapc_codec.Value.t -> params

val sweep : g:int -> rows:int -> float array -> unit
(** [sweep ~g ~rows u] is one iteration's numeric work, in place, on the
    [(rows + 2) * g] grid [u] whose first and last rows are the halo
    ghosts: a Thomas solve along every interior row, then a vertical
    relaxation.  The elimination coefficients are computed once per sweep
    and rows are solved two at a time; every grid value is bit-identical to
    a row-by-row solve.  Exported for [test_apps], which holds it to that
    row-by-row solve, and for the micro benchmark.
    @raise Invalid_argument if [u] is shorter than [(rows + 2) * g]. *)

val register : unit -> unit
(** Register program ["bt_nas"]; the paper runs it on square node counts. *)

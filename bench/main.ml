(* Experiment harness entry point.

   Usage: bench/main.exe [fig5|fig6a|fig6b|fig6c|netstate|variance|ablation|micro|availability|migration|serve|all|quick]

   Each experiment regenerates the corresponding table/figure of the paper
   (see DESIGN.md's experiment index and EXPERIMENTS.md for the comparison
   against the published results). *)

let usage () =
  print_endline
    "usage: main.exe [fig5|fig6a|fig6b|fig6c|netstate|variance|ablation|flush|storage|micro|availability|incremental|migration|serve|profile|scale|all|quick]"

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  Zapc_apps.Registry.register_all ();
  match what with
  | "fig5" -> Experiments.fig5 ()
  | "variance" -> Experiments.fig5_variance ()
  | "fig6a" -> Experiments.fig6a ()
  | "fig6b" -> Experiments.fig6b ()
  | "fig6c" -> Experiments.fig6c ()
  | "netstate" -> Experiments.netstate ()
  | "ablation" -> Experiments.ablations ()
  | "flush" -> Experiments.storage_flush ()
  | "storage" -> Experiments.storage_backends ()
  | "micro" -> Micro.run ()
  | "availability" -> Experiments.availability ()
  | "incremental" -> Experiments.incremental ()
  | "migration" -> Experiments.migration ()
  | "serve" -> Experiments.serve ()
  | "profile" -> Experiments.profile ()
  | "scale" -> Experiments.scale ()
  | "all" ->
    Experiments.fig5 ();
    Experiments.fig6a ();
    Experiments.fig6b ();
    Experiments.fig6c ();
    Experiments.netstate ();
    Experiments.fig5_variance ();
    Experiments.ablations ();
    Experiments.storage_flush ();
    Experiments.storage_backends ();
    Experiments.availability ();
    Experiments.incremental ();
    Experiments.migration ();
    Experiments.serve ();
    Experiments.profile ();
    Experiments.scale ();
    Micro.run ()
  | "quick" -> Experiments.quick ()
  | _ -> usage ()

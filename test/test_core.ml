let () =
  Alcotest.run "tensorir"
    [
      ("expr", Test_expr.suite);
      ("arith", Test_arith.suite);
      ("region", Test_region.suite);
      ("interp", Test_interp.suite);
      ("parser", Test_parser.suite);
      ("codegen", Test_codegen.suite);
      ("sim", Test_sim.suite);
      ("workloads", Test_workloads.suite);
      ("te", Test_te.suite);
      ("printer", Test_printer.suite);
      ("graph", Test_graph.suite);
      ("fuzz", Test_fuzz.suite);
      ("zipper", Test_zipper.suite);
      ("sched", Test_sched.suite);
      ("rewrite", Test_rewrite.suite);
      ("trace", Test_trace.suite);
      ("sched-errors", Test_sched_errors.suite);
      ("candidate", Test_candidate.suite);
      ("validate", Test_validate.suite);
      ("analysis", Test_analysis.suite);
      ("legality", Test_legality.suite);
      ("intrin", Test_intrin.suite);
      ("autosched", Test_autosched.suite);
      ("model", Test_model.suite);
      ("hotpath", Test_hotpath.suite);
      ("database", Test_database.suite);
      ("facade", Test_facade.suite);
      ("parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("tracing", Test_tracing.suite);
      ("session", Test_session.suite);
      ("scheduler", Test_scheduler.suite);
    ]

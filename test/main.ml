let () =
  Alcotest.run "fast-byzantine-agreement"
    (List.concat
       [
         Test_stdx.suites;
         Test_pool.suites;
         Test_sim.suites;
         Test_samplers.suites;
         Test_aeba.suites;
         Test_baselines.suites;
         Test_core.suites;
         Test_aer_unit.suites;
         Test_adversary.suites;
         Test_extensions.suites;
         Test_harness.suites;
         Test_props.suites;
         Test_packed.suites;
         Test_compiled.suites;
         Test_determinism.suites;
         Test_net.suites;
         Test_prof.suites;
         Test_streamed.suites;
         Test_service.suites;
         Test_cli.suites;
       ])

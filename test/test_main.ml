let () =
  Alcotest.run "fpga-debug"
    [
      ("bits", Test_bits.suite);
      ("hdl", Test_hdl.suite);
      ("sim", Test_sim.suite);
      ("analysis", Test_analysis.suite);
      ("core", Test_core.suite);
      ("resources", Test_resources.suite);
      ("study", Test_study.suite);
      ("testbed", Test_testbed.suite);
      ("report", Test_report.suite);
      ("telemetry", Test_telemetry.suite);
      ("campaign", Test_campaign.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("fuzz", Test_fuzz.suite);
      ("trace", Test_trace.suite);
      ("json", Test_json.suite);
    ]

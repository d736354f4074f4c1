let () =
  Alcotest.run "dprbg"
    [
      ("prng", Test_prng.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("field", Test_field.suite);
      ("ntt-edge", Test_ntt_edge.suite);
      ("poly", Test_poly.suite);
      ("rs", Test_rs.suite);
      ("net", Test_net.suite);
      ("sentinel", Test_sentinel.suite);
      ("graph", Test_graph.suite);
      ("shamir", Test_shamir.suite);
      ("robust-decode", Test_robust_decode.suite);
      ("kernel", Test_kernel.suite);
      ("batch-kernels", Test_batch_kernels.suite);
      ("bcast", Test_bcast.suite);
      ("gradecast-all", Test_gradecast_all.suite);
      ("eig-ba", Test_eig.suite);
      ("refresh", Test_refresh.suite);
      ("broadcast-protocol", Test_broadcast_protocol.suite);
      ("multivalued-ba", Test_multivalued_ba.suite);
      ("persistence", Test_persistence.suite);
      ("integration", Test_integration.suite);
      ("vss", Test_vss.suite);
      ("vss-baselines", Test_vss_baselines.suite);
      ("coin-expose", Test_coin_expose.suite);
      ("bit-gen", Test_bit_gen.suite);
      ("coin-gen", Test_coin_gen.suite);
      ("pool", Test_pool.suite);
      ("beacon", Test_beacon.suite);
      ("beacon-recovery", Test_beacon_recovery.suite);
      ("common-coin-ba", Test_common_coin_ba.suite);
      ("stats", Test_stats.suite);
      ("wire", Test_wire.suite);
      ("frame-partial", Test_frame_partial.suite);
      (* Chaos socket cases must precede every domains case in the run
         (fork is forbidden once a domain has spawned), hence the split
         registration around the transport suite. *)
      ("chaos-socket", Test_chaos.socket_suite);
      ("transport", Test_transport.suite);
      ("chaos-domains", Test_chaos.domains_suite);
      ("randomness", Test_randomness.suite);
      ("ablations", Test_ablations.suite);
      ("fuzz", Prop_fuzz.suite);
    ]

(* Test entry point: one alcotest suite per module. *)

module Arc_suite = Reg_suite.Make (Arc_core.Arc.Make (Arc_mem.Real_mem))
module Arc_nohint_suite = Reg_suite.Make (Arc_core.Arc_nohint.Make (Arc_mem.Real_mem))
module Rf_suite = Reg_suite.Make (Arc_baselines.Rf.Make (Arc_mem.Real_mem))
module Peterson_suite = Reg_suite.Make (Arc_baselines.Peterson.Make (Arc_mem.Real_mem))
module Rwlock_suite = Reg_suite.Make (Arc_baselines.Rwlock_reg.Make (Arc_mem.Real_mem))
module Seqlock_suite = Reg_suite.Make (Arc_baselines.Seqlock_reg.Make (Arc_mem.Real_mem))

(* The same black-box suite over simulated memory (standalone, no
   scheduler: cede degrades to a no-op) — catches substrate-dependent
   assumptions. *)
module Arc_sim_suite = Reg_suite.Make (Arc_core.Arc.Make (Arc_vsched.Sim_mem))
module Peterson_sim_suite = Reg_suite.Make (Arc_baselines.Peterson.Make (Arc_vsched.Sim_mem))
module Arc_dynamic_suite = Reg_suite.Make (Arc_core.Arc_dynamic.Make (Arc_mem.Real_mem))
module Lamport_suite = Reg_suite.Make (Arc_baselines.Lamport_reg.Make (Arc_mem.Real_mem))
module Rf_sim_suite = Reg_suite.Make (Arc_baselines.Rf.Make (Arc_vsched.Sim_mem))
module Rwlock_sim_suite = Reg_suite.Make (Arc_baselines.Rwlock_reg.Make (Arc_vsched.Sim_mem))
module Seqlock_sim_suite = Reg_suite.Make (Arc_baselines.Seqlock_reg.Make (Arc_vsched.Sim_mem))
module Arc_dynamic_sim_suite =
  Reg_suite.Make (Arc_core.Arc_dynamic.Make (Arc_vsched.Sim_mem))

(* ... and over the coherence-modelled memory (uninstalled cache:
   degrades to unit costs, still exercises the line-mapped buffers). *)
module Arc_cc_suite = Reg_suite.Make (Arc_core.Arc.Make (Arc_coherence.Cc_mem))
module Peterson_cc_suite =
  Reg_suite.Make (Arc_baselines.Peterson.Make (Arc_coherence.Cc_mem))

let () =
  Alcotest.run "arc_register"
    [
      ("packed", Test_packed.suite);
      ("term-vote", Test_term_vote.suite);
      ("bits", Test_bits.suite);
      ("splitmix", Test_splitmix.suite);
      ("stats", Test_stats.suite);
      ("mem", Test_mem.suite);
      ("sched", Test_sched.suite);
      ("sim-mem", Test_sim_mem.suite);
      ("histogram", Test_histogram.suite);
      ("history", Test_history.suite);
      ("checker", Test_checker.suite);
      ("fastpath", Test_fastpath.suite);
      ("gate", Test_gate.suite);
      ("generic:arc", Arc_suite.suite);
      ("generic:arc-nohint", Arc_nohint_suite.suite);
      ("generic:rf", Rf_suite.suite);
      ("generic:peterson", Peterson_suite.suite);
      ("generic:rwlock", Rwlock_suite.suite);
      ("generic:seqlock", Seqlock_suite.suite);
      ("generic:arc-sim", Arc_sim_suite.suite);
      ("generic:peterson-sim", Peterson_sim_suite.suite);
      ("generic:arc-dynamic", Arc_dynamic_suite.suite);
      ("generic:lamport77", Lamport_suite.suite);
      ("generic:rf-sim", Rf_sim_suite.suite);
      ("generic:rwlock-sim", Rwlock_sim_suite.suite);
      ("generic:seqlock-sim", Seqlock_sim_suite.suite);
      ("generic:arc-dynamic-sim", Arc_dynamic_sim_suite.suite);
      ("generic:arc-coherence", Arc_cc_suite.suite);
      ("generic:peterson-coherence", Peterson_cc_suite.suite);
      ("arc", Test_arc.suite);
      ("rf", Test_rf.suite);
      ("peterson", Test_peterson.suite);
      ("locks", Test_locks.suite);
      ("lamport77", Test_lamport.suite);
      ("simpson", Test_simpson.suite);
      ("arc-dynamic", Test_arc_dynamic.suite);
      ("explore", Test_explore.suite);
      ("coherence", Test_coherence.suite);
      ("schedules", Test_schedules.suite);
      ("stress", Test_stress.suite);
      ("workload", Test_workload.suite);
      ("harness", Test_harness.suite);
      ("experiment", Test_experiment.suite);
      ("report", Test_report.suite);
      ("audit", Test_audit.suite);
      ("replay", Test_replay.suite);
      ("fault", Test_fault.suite);
      ("resilience", Test_resilience.suite);
      ("admission", Test_admission.suite);
      ("mrmw", Test_mrmw.suite);
      ("shm", Test_shm.suite);
      ("obs", Test_obs.suite);
      ("fabric", Test_fabric.suite);
    ]

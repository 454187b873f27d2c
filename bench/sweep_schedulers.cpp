//===- bench/sweep_schedulers.cpp - OS scheduler-policy sweep -------------===//
//
// Sweeps the scheduler axis on its own: identical uninstrumented
// programs, identical queues and seeds, four OS-level assignment
// strategies (Sec. V's design space):
//
//  - oblivious: the Linux O(1) baseline (the zero reference row);
//  - fastest-first: asymmetry-aware, program-oblivious placement;
//  - hass-static: whole-program static assignment (Shelepov et al.);
//  - ipc-sampling: Kumar-style dynamic reassignment from counter IPC
//    sampled per quantum window.
//
// The grid runs on two machines: the paper quad and the same silicon
// enumerated slow-cores-first, which exposes how much of the oblivious
// baseline's behaviour is an accident of core-scan order.
//
// Because SchedulerSpec is orthogonal to suite preparation, the sweep
// needs exactly one prepared suite per machine (the baseline images); a
// warm persistent cache replays everything with zero static-pipeline
// runs — the invariant CI asserts over this experiment.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(sweep_schedulers) {
  ExperimentHarness H("sweep_schedulers",
                      "OS scheduler-policy sweep (oblivious baseline vs "
                      "asymmetry-aware strategies)",
                      "CGO'11 Sec. V OS-level assignment strategies");

  // The paper quad plus the same silicon enumerated slow-cores-first:
  // an oblivious scheduler's core-scan order is an accident of the
  // machine description, and the asymmetry-aware strategies must win
  // exactly where that accident hurts (on the paper quad the fast cores
  // happen to come first, so fastest-first coincides with oblivious).
  MachineConfig SlowFirst = MachineConfig::quadAsymmetric();
  SlowFirst.Name = "quadAsymmetric-slowFirst";
  SlowFirst.Cores = {{1, 1}, {1, 1}, {0, 0}, {0, 0}};

  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline()};
  G.Schedulers = {SchedulerSpec::oblivious(), SchedulerSpec::fastestFirst(),
                  SchedulerSpec::hassStatic(),
                  SchedulerSpec::ipcSampling()};
  G.Machines = {MachineConfig::quadAsymmetric(), SlowFirst};
  G.Workloads = {{/*Slots=*/18, /*Horizon=*/400 * H.scale(), /*Seed=*/77},
                 {/*Slots=*/6, /*Horizon=*/400 * H.scale(), /*Seed=*/78}};
  // Per-cell scheduler telemetry (per-core-type insts/cycles/IPC) in
  // the artifact: this grid is the natural consumer — the whole point
  // is where each strategy spends instructions — and its exact Flat
  // engine keeps the exported cycles deterministic (pbt-bench-v7).
  G.ExportTelemetry = true;
  std::vector<SweepResult> Results = H.sweep(G);

  Table T({"machine", "scheduler", "slots", "throughput %", "avg time %",
           "max-flow %", "max-stretch %"});
  for (size_t MIdx = 0; MIdx < Results.size(); ++MIdx)
    for (const SweepCell &Cell : Results[MIdx].Cells) {
      Comparison Cmp = Results[MIdx].comparison(Cell);
      T.addRow({G.Machines[MIdx].Name,
                G.Schedulers[Cell.Scheduler].label(),
                Table::fmtInt(static_cast<long long>(
                    G.Workloads[Cell.Workload].Slots)),
                Table::fmt(Cmp.throughputImprovement(), 2),
                Table::fmt(Cmp.avgTimeDecrease(), 2),
                Table::fmt(Cmp.maxFlowDecrease(), 2),
                Table::fmt(Cmp.maxStretchDecrease(), 2)});
    }
  H.table(T);
  H.note("all four strategies replay the same cached uninstrumented "
         "suite (one preparation per machine for the whole grid): the "
         "scheduler is a replay-time axis, outside the suite-cache "
         "key.\nexpected shape: on the paper quad fastest-first "
         "coincides with oblivious (fast cores happen to be scanned "
         "first); on the slow-first enumeration of the same silicon the "
         "asymmetry-aware strategies clearly win. none react to phase "
         "changes within a program, which is what phase-based tuning "
         "adds");
  return H.finish();
}

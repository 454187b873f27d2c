//===- bench/ablation_instrumentation.cpp - Paper Sec. III ----------------===//
//
// Instrumentation-strategy ablation: the paper's finely tuned marks
// (code specialization, live-register analysis, instruction motion)
// against an ATOM-style general trampoline (full register save/restore).
// Paper claims instrumented binaries run ~10x faster with the tuned
// strategy when code is inserted before every basic block; here we
// compare the per-mark execution cost on the naive every-block marking.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(ablation_instrumentation) {
  ExperimentHarness H("ablation_instrumentation",
                      "Sec. III: tuned vs ATOM-style instrumentation",
                      "CGO'11 Sec. III");

  // Isolate pure instrumentation cost: the paper's ATOM comparison
  // measures the inserted analysis code, not affinity-API calls.
  SimConfig Sim;
  Sim.AffinityApiCycles = 0;
  Lab &L = H.customLab(MachineConfig::quadAsymmetric(), Sim);

  // Naive marking (every differently-typed edge, no size filter)
  // maximizes mark executions, as in the paper's ATOM comparison.
  TransitionConfig Naive;
  Naive.Strat = Strategy::BasicBlock;
  Naive.Naive = true;
  Naive.MinSize = 0;

  auto TechWith = [&](MarkCostModel Cost) {
    TechniqueSpec Tech = TechniqueSpec::tuned(Naive, defaultTuner());
    Tech.Tuner.SwitchToAllCores = true;
    Tech.Cost = Cost;
    return Tech;
  };
  // Overhead measured from the per-process instrumentation-cycle
  // accounting (exact, noise-free): cycles spent inside marks over
  // cycles spent on program work.
  auto OverheadOf = [](const CompletedJob &Job) {
    double Work = Job.Stats.CyclesConsumed - Job.Stats.OverheadCycles;
    return 100.0 * Job.Stats.OverheadCycles / Work;
  };
  // Every second benchmark, as in the paper's sampled comparison.
  std::vector<uint32_t> Benches;
  for (uint32_t Bench = 0; Bench < L.programs().size(); Bench += 2)
    Benches.push_back(Bench);
  std::vector<CompletedJob> TunedJobs =
      L.isolatedJobs(TechWith(MarkCostModel::tuned()), Benches);
  std::vector<CompletedJob> AtomJobs =
      L.isolatedJobs(TechWith(MarkCostModel::atomStyle()), Benches);

  Table T({"benchmark", "tuned ovh %", "atom ovh %", "ratio"});
  std::vector<double> Ratios;
  for (size_t I = 0; I < Benches.size(); ++I) {
    double Tuned = OverheadOf(TunedJobs[I]);
    double Atom = OverheadOf(AtomJobs[I]);
    double Ratio = Tuned > 0 ? Atom / Tuned : 0;
    if (Ratio > 0)
      Ratios.push_back(Ratio);
    T.addRow({L.programs()[Benches[I]].Name, Table::fmt(Tuned, 3),
              Table::fmt(Atom, 3), Table::fmt(Ratio, 1)});
  }
  H.table(T);
  H.json()["mean_overhead_ratio"] = mean(Ratios);
  H.note("mean overhead ratio (ATOM / tuned): " + Table::fmt(mean(Ratios), 1) +
         "x (paper: ~10x faster with the tuned strategy)");
  return H.finish();
}

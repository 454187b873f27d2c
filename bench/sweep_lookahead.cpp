//===- bench/sweep_lookahead.cpp - Paper Sec. IV-C2 -----------------------===//
//
// Lookahead-depth sweep for the basic-block strategy. Paper's shape:
// less lookahead gives higher throughput but at a significant cost in
// fairness (more marks fire, more aggressive switching).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(sweep_lookahead) {
  ExperimentHarness H("sweep_lookahead",
                      "Sec. IV-C2: lookahead depth sweep (BB[15,*])",
                      "CGO'11 Sec. IV-C2");

  SweepGrid G;
  for (uint32_t Depth : {0u, 1u, 2u, 3u}) {
    TransitionConfig C;
    C.Strat = Strategy::BasicBlock;
    C.MinSize = 15;
    C.Lookahead = Depth;
    G.Techniques.push_back(TechniqueSpec::tuned(C, defaultTuner(0.15)));
  }
  G.Workloads = {{/*Slots=*/18, /*Horizon=*/400 * H.scale(), /*Seed=*/4}};
  SweepResult R = H.sweep(H.lab(), G);

  Table T({"lookahead", "throughput %", "avg time %", "max-stretch %",
           "switches"});
  for (const SweepCell &Cell : R.Cells) {
    Comparison Cmp = R.comparison(Cell);
    T.addRow(
        {std::to_string(
             G.Techniques[Cell.Technique].Transition.Lookahead),
         Table::fmt(Cmp.throughputImprovement(), 2),
         Table::fmt(Cmp.avgTimeDecrease(), 2),
         Table::fmt(Cmp.maxStretchDecrease(), 2),
         Table::fmtInt(static_cast<long long>(Cmp.Tuned.TotalSwitches))});
  }
  H.table(T);
  H.note("paper reference shape: lookahead 0 marks most edges "
         "(highest throughput potential, worst fairness); deeper "
         "lookahead suppresses marks");
  return H.finish();
}

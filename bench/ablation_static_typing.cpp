//===- bench/ablation_static_typing.cpp - Paper Sec. II-A3 ----------------===//
//
// Accuracy of the proof-of-concept static block typing (instruction mix
// + reuse-distance estimate + k-means) against the behavioural oracle,
// and its end-to-end effect. Paper claims the static analysis
// misclassifies only ~15% of loops, accurate enough that results do not
// suffer (cf. Fig. 7's error tolerance).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

#include "analysis/BlockTyping.h"
#include "sim/CostModel.h"
#include "support/ThreadPool.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(ablation_static_typing) {
  ExperimentHarness H("ablation_static_typing",
                      "Sec. II-A3: static typing accuracy vs oracle",
                      "CGO'11 Sec. II-A3");

  Lab &L = H.lab();
  const std::vector<Program> &Programs = L.programs();
  // Each program's typings are independent: compute them on the pool,
  // each into its own slot, then add the rows in program order.
  std::vector<double> Disagreements(Programs.size());
  ThreadPool::global().parallelFor(Programs.size(), [&](size_t I) {
    const Program &Prog = Programs[I];
    CostModel Cost(Prog, L.machine());
    ProgramTyping Oracle = computeOracleTyping(Prog, Cost);
    ProgramTyping Static = computeStaticTyping(Prog, TypingConfig());
    Disagreements[I] = 100.0 * Static.disagreement(Oracle);
  });
  Table T({"benchmark", "blocks", "disagreement %"});
  for (size_t I = 0; I < Programs.size(); ++I)
    T.addRow({Programs[I].Name,
              Table::fmtInt(static_cast<long long>(Programs[I].blockCount())),
              Table::fmt(Disagreements[I], 2)});
  H.table(T);
  H.json()["mean_disagreement_pct"] = mean(Disagreements);
  std::printf("\nmean disagreement: %.2f%% (paper: ~15%% of loops "
              "misclassified)\n\n",
              mean(Disagreements));

  // End-to-end: oracle typing vs static typing under Loop[45].
  TechniqueSpec OracleTech = loop45();
  TechniqueSpec StaticTech = OracleTech;
  StaticTech.UseStaticTyping = true;

  SweepGrid G;
  G.Techniques = {OracleTech, StaticTech};
  G.Workloads = {{/*Slots=*/18, /*Horizon=*/300 * H.scale(), /*Seed=*/9}};
  SweepResult R = H.sweep(L, G);

  std::printf("end-to-end throughput improvement vs baseline:\n"
              "  oracle typing: %+.2f%%\n  static typing: %+.2f%%\n",
              R.throughputImprovement(R.Cells[0]),
              R.throughputImprovement(R.Cells[1]));
  return H.finish();
}

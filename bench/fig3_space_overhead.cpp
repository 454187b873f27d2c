//===- bench/fig3_space_overhead.cpp - Paper Fig. 3 -----------------------===//
//
// Space overhead of phase-mark instrumentation, as a box plot per
// technique variant over the 15-benchmark suite. Paper claims: the best
// technique (Loop[45]) stays under 4% with about 20 marks per benchmark
// of at most 78 bytes each; overhead falls as minimum size and lookahead
// depth grow.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Registry.h"

using namespace pbt;
using namespace pbt::bench;

PBT_EXPERIMENT(fig3_space_overhead) {
  ExperimentHarness H("fig3_space_overhead",
                      "Fig. 3: space overhead box plots", "CGO'11 Fig. 3");

  Lab &L = H.lab();
  // Each program's original size, walked once for all its images.
  std::vector<double> OriginalBytes;
  for (const Program &Prog : L.programs())
    OriginalBytes.push_back(static_cast<double>(Prog.byteSize()));
  Table T({"variant", "min%", "q1%", "median%", "q3%", "max%", "mean%",
           "marks/bench"});
  for (const TechniqueSpec &Tech : paperTechniques()) {
    PreparedSuite Suite = L.suite(Tech);
    std::vector<double> Overheads;
    double TotalMarks = 0;
    for (size_t I = 0; I < Suite.Images.size(); ++I) {
      const InstrumentedProgram &Image = *Suite.Images[I];
      TotalMarks += static_cast<double>(Image.marks().size());
      // Same division as InstrumentedProgram::spaceOverheadPercent().
      Overheads.push_back(100.0 *
                          static_cast<double>(Image.addedByteSize()) /
                          OriginalBytes[I]);
    }
    BoxSummary Box = summarize(Overheads);
    T.addRow({Tech.Transition.label(), Table::fmt(Box.Min),
              Table::fmt(Box.Q1), Table::fmt(Box.Median),
              Table::fmt(Box.Q3), Table::fmt(Box.Max), Table::fmt(Box.Mean),
              Table::fmt(TotalMarks / L.programs().size(), 1)});
  }
  H.table(T);
  H.note("paper reference points: Loop[45] < 4% space overhead, "
         "~20.24 marks/benchmark, <= 78 bytes/mark");
  return H.finish();
}

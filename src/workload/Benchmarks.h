//===- workload/Benchmarks.h - SPEC-like synthetic suite --------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 15-program synthetic suite standing in for the SPEC CPU 2000/2006
/// benchmarks of the paper's evaluation (Table 1). Each program is
/// generated from a declarative spec: an optional outer loop alternating
/// between *phases* (compute-bound or memory-bound inner loops, some
/// placed in callee procedures to exercise the inter-procedural
/// analysis). Specs are calibrated so that
///
///  - relative isolated runtimes follow Table 1's ordering (log-
///    compressed into simulated seconds),
///  - per-benchmark phase-transition counts mirror Table 1's switch
///    counts (e.g. "equake" alternates thousands of times, "GemsFDTD"
///    and "astar" are single-phase and never transition).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_WORKLOAD_BENCHMARKS_H
#define PBT_WORKLOAD_BENCHMARKS_H

#include "ir/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pbt {

/// One phase of a benchmark: an inner loop with a fixed behaviour.
struct PhaseSpec {
  /// Memory-bound (streaming) vs compute-bound body.
  bool Memory = false;
  /// Fraction of one outer iteration's cycles spent in this phase.
  double Share = 1.0;
  /// Instructions per inner-loop iteration.
  unsigned BodyInsts = 160;
  /// Memory phases: streaming footprint in 64-byte lines.
  unsigned ColdLines = 131072;
  /// Memory phases: fraction of memory ops that stream.
  double ColdFrac = 0.25;
  /// Compute phases: floating-point share.
  double FpShare = 0.4;
  /// Place the phase loop in a helper procedure called from main.
  bool InCallee = false;
};

/// A whole benchmark.
struct BenchSpec {
  std::string Name;
  /// Target isolated runtime on a fast core, simulated seconds.
  double TargetSeconds = 2.0;
  /// Outer-loop trip count; 1 means the phases run once, sequentially.
  unsigned Alternations = 1;
  std::vector<PhaseSpec> Phases;
  /// Instructions of *cold code*: procedures that are linked into the
  /// binary but never executed (utility paths, error handling). Real
  /// binaries are dominated by such code; it is what makes the paper's
  /// space-overhead percentages small, and it exercises the static
  /// pipeline on code with no dynamic profile.
  unsigned ColdCodeInsts = 20000;
};

/// Builds the IR program for \p Spec. \p FastFrequency (cycles/s of the
/// fast core type) calibrates trip counts against TargetSeconds.
Program buildBenchmark(const BenchSpec &Spec, double FastFrequency = 2.4e6);

/// The default 15-benchmark suite mirroring the paper's Table 1 set.
std::vector<BenchSpec> specSuite();

/// Builds every program of specSuite(), one program per task of the
/// global pool. Each program comes from its own spec and seed and is
/// written by index, so the result is the same for any pool size.
std::vector<Program> buildSuite(double FastFrequency = 2.4e6);

} // namespace pbt

#endif // PBT_WORKLOAD_BENCHMARKS_H

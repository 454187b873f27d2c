//===- tests/fastreplay_test.cpp - fast-replay promotion contract ---------===//
//
// The validated fast-replay engine's contract (docs/ARCHITECTURE.md
// "Fast-replay engine"): on any workload, integer statistics and
// completion ORDER are exactly identical to the exact engines, and
// cycle totals / completion TIMES drift only by the reassociation of
// whole-chain sums into the quantum accumulator — within 1e-9
// relative. Also covers the hot-lane configuration-offset cache (must
// be invisible: Flat stays bit-identical to Reference), the streaming
// metric accumulators against their exact twins, and the completion
// sink's O(1)-memory run path.
//
//===----------------------------------------------------------------------===//

#include "core/Transitions.h"
#include "ir/IRBuilder.h"
#include "metrics/Fairness.h"
#include "metrics/Latency.h"
#include "sim/Machine.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "workload/Drift.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pbt;

namespace {

/// The promotion contract's drift bound: fused chain charges are
/// bit-equal to the exact walk's partial sums (left-to-right
/// ChainCycles), so the only error source is folding whole-chain sums
/// into a non-zero accumulator — a few ulps per charge, orders of
/// magnitude below this.
constexpr double DriftBound = 1e-9;

/// Same generator family as tests/flatimage_test.cpp: random but
/// guaranteed-terminating, with jump runs for the chain builder.
Program randomProgram(uint64_t Seed) {
  Rng Gen(Seed);
  IRBuilder B("random_" + std::to_string(Seed), Seed);
  uint32_t NumProcs = 2 + static_cast<uint32_t>(Gen.nextBelow(3));
  std::vector<uint32_t> BlockCounts;
  for (uint32_t P = 0; P < NumProcs; ++P) {
    B.createProc(P == 0 ? "main" : "helper" + std::to_string(P));
    BlockCounts.push_back(6 + static_cast<uint32_t>(Gen.nextBelow(10)));
  }
  for (uint32_t P = 0; P < NumProcs; ++P) {
    uint32_t N = BlockCounts[P];
    for (uint32_t I = 0; I < N; ++I)
      B.addBlock(P);
    for (uint32_t I = 0; I < N; ++I) {
      bool Memory = Gen.nextBool(0.4);
      unsigned Count = 8 + static_cast<unsigned>(Gen.nextBelow(120));
      InstMix Mix =
          Memory
              ? InstMix::memory(
                    Count,
                    1u << (15 + static_cast<unsigned>(Gen.nextBelow(4))),
                    0.1 + 0.4 * Gen.nextDouble())
              : InstMix::compute(Count, 0.85 * Gen.nextDouble());
      B.appendMix(P, I, Mix);

      if (I == N - 1) {
        B.setRet(P, I);
        continue;
      }
      double Roll = Gen.nextDouble();
      if (Roll < 0.3) {
        B.setJump(P, I, I + 1);
      } else if (Roll < 0.5) {
        uint32_t Other =
            I + 1 + static_cast<uint32_t>(Gen.nextBelow(N - I - 1));
        B.setCond(P, I, I + 1, Other, 0.1 + 0.8 * Gen.nextDouble());
      } else if (Roll < 0.8) {
        B.setLoop(P, I, I, I + 1,
                  20 + static_cast<uint32_t>(Gen.nextBelow(700)));
      } else if (Roll < 0.95 && P + 1 < NumProcs) {
        uint32_t Callee =
            P + 1 + static_cast<uint32_t>(Gen.nextBelow(NumProcs - P - 1));
        B.appendCall(P, I, Callee);
        B.setJump(P, I, I + 1);
      } else if (I >= 2) {
        B.setRet(P, I);
      } else {
        B.setJump(P, I, I + 1);
      }
    }
  }
  return B.take();
}

MachineConfig threeTypeMachine() {
  MachineConfig MC;
  MC.CoreTypes = {{"fast", 2.4e6, 4096},
                  {"mid", 2.0e6, 3072},
                  {"slow", 1.6e6, 2048}};
  MC.Cores = {{0, 0}, {1, 0}, {2, 1}, {2, 1}};
  return MC;
}

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 30;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

const Process &runAlone(Machine &M, const PreparedSuite &Suite,
                        uint64_t Seed) {
  uint32_t Pid = M.spawn(Suite.Images[0], Suite.Costs[0], Suite.Tuner, Seed,
                         -1, 0, Suite.Flats[0]);
  while (M.process(Pid).CompletionTime < 0)
    M.run(M.now() + 64);
  return M.process(Pid);
}

void expectStatsIdentical(const ProcessStats &A, const ProcessStats &B) {
  EXPECT_EQ(A.InstsRetired, B.InstsRetired);
  EXPECT_EQ(A.BlocksExecuted, B.BlocksExecuted);
  EXPECT_EQ(A.CyclesConsumed, B.CyclesConsumed); // Exact double equality.
  EXPECT_EQ(A.CpuSeconds, B.CpuSeconds);
  EXPECT_EQ(A.CoreSwitches, B.CoreSwitches);
  EXPECT_EQ(A.MarksFired, B.MarksFired);
  EXPECT_EQ(A.MonitorSessions, B.MonitorSessions);
  EXPECT_EQ(A.CounterWaits, B.CounterWaits);
  EXPECT_EQ(A.OverheadCycles, B.OverheadCycles);
}

} // namespace

//===----------------------------------------------------------------------===//
// Fast-replay differential contract
//===----------------------------------------------------------------------===//

TEST(FastReplay, IntegerIdenticalCycleDriftBoundedIsolated) {
  uint64_t TotalMarks = 0;
  uint64_t TotalSwitches = 0;
  for (uint64_t Seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    std::vector<Program> Programs = {randomProgram(Seed)};
    for (const MachineConfig &MC :
         {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
      for (const TechniqueSpec &Tech :
           {TechniqueSpec::baseline(), loopTechnique()}) {
        PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
        SimConfig Exact;
        Exact.Engine = ExecEngine::Flat;
        SimConfig Fast;
        Fast.Engine = ExecEngine::FastReplay;
        Machine ME(MC, Exact, std::make_unique<ObliviousScheduler>());
        Machine MF(MC, Fast, std::make_unique<ObliviousScheduler>());
        const Process &PE = runAlone(ME, Suite, 42 + Seed);
        const Process &PF = runAlone(MF, Suite, 42 + Seed);
        SCOPED_TRACE("seed " + std::to_string(Seed) + " cores " +
                     std::to_string(MC.numCores()) + " tech " +
                     Tech.label());
        // Integers: exactly identical, bit for bit.
        EXPECT_EQ(PE.Stats.InstsRetired, PF.Stats.InstsRetired);
        EXPECT_EQ(PE.Stats.BlocksExecuted, PF.Stats.BlocksExecuted);
        EXPECT_EQ(PE.Stats.MarksFired, PF.Stats.MarksFired);
        EXPECT_EQ(PE.Stats.CoreSwitches, PF.Stats.CoreSwitches);
        EXPECT_EQ(PE.Stats.MonitorSessions, PF.Stats.MonitorSessions);
        EXPECT_EQ(PE.Stats.CounterWaits, PF.Stats.CounterWaits);
        // FP totals: within the documented reassociation bound.
        EXPECT_NEAR(PE.Stats.CyclesConsumed, PF.Stats.CyclesConsumed,
                    DriftBound * PE.Stats.CyclesConsumed);
        EXPECT_NEAR(PE.CompletionTime, PF.CompletionTime,
                    DriftBound * PE.CompletionTime);
        TotalMarks += PE.Stats.MarksFired;
        TotalSwitches += PE.Stats.CoreSwitches;
      }
    }
  }
  // The sweep must exercise the monitored and migrating paths, or the
  // comparison proves nothing about them.
  EXPECT_GT(TotalMarks, 0u);
  EXPECT_GT(TotalSwitches, 0u);
}

TEST(FastReplay, WorkloadDriftWithinPromotionBound) {
  std::vector<Program> Programs;
  for (uint64_t Seed : {21ull, 22ull, 23ull})
    Programs.push_back(randomProgram(Seed));
  DriftReport Report;
  for (const MachineConfig &MC :
       {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
    Workload W = Workload::random(6, 64, Programs.size(), 9);
    SimConfig Exact;
    Exact.Engine = ExecEngine::Flat;
    SimConfig Fast;
    Fast.Engine = ExecEngine::FastReplay;
    RunResult A = runWorkload(Suite, W, MC, Exact, 25);
    RunResult B = runWorkload(Suite, W, MC, Fast, 25);
    Report.merge(A, B);
    // Machine-wide integer aggregates are part of the contract too.
    EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired);
    EXPECT_EQ(A.TotalSwitches, B.TotalSwitches);
    EXPECT_EQ(A.TotalMarks, B.TotalMarks);
    EXPECT_EQ(A.CounterWaits, B.CounterWaits);
  }
  EXPECT_GT(Report.Jobs, 0u);
  EXPECT_TRUE(Report.IntegerStatsIdentical);
  EXPECT_TRUE(Report.CompletionOrderIdentical);
  EXPECT_TRUE(Report.withinBound(DriftBound))
      << "cycle drift " << Report.MaxRelCycleDrift << " completion drift "
      << Report.MaxRelCompletionDrift << " total drift "
      << Report.MaxRelTotalCycleDrift;
}

TEST(FastReplay, ReferenceTwinAlsoWithinBound) {
  // The contract is against "the exact engines", plural: Reference and
  // Flat are bit-identical to each other, so fast replay must sit
  // within the same bound of Reference.
  std::vector<Program> Programs = {randomProgram(31)};
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  SimConfig Ref;
  Ref.Engine = ExecEngine::Reference;
  SimConfig Fast;
  Fast.Engine = ExecEngine::FastReplay;
  Workload W = Workload::random(4, 32, 1, 11);
  DriftReport Report;
  Report.merge(runWorkload(Suite, W, MC, Ref, 25),
               runWorkload(Suite, W, MC, Fast, 25));
  EXPECT_GT(Report.Jobs, 0u);
  EXPECT_TRUE(Report.withinBound(DriftBound));
}

//===----------------------------------------------------------------------===//
// Hot-lane invariant cache
//===----------------------------------------------------------------------===//

TEST(HotLane, ConfigOffsetCacheInvisibleUnderMigrationChurn) {
  // The per-process hot lane caches the (core type, sharers) ->
  // configuration offset mapping and recomputes it only on migration
  // or sharer change. configOffset is a pure function, so the cache
  // must be invisible: the Flat engine (which uses it) stays
  // bit-identical to the Reference interpreter (which does not) on a
  // migration-heavy contended workload — doubles compared with ==.
  std::vector<Program> Programs;
  for (uint64_t Seed : {21ull, 22ull, 23ull})
    Programs.push_back(randomProgram(Seed));
  uint64_t TotalSwitches = 0;
  for (const MachineConfig &MC :
       {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
    Workload W = Workload::random(6, 48, Programs.size(), 17);
    SimConfig Ref;
    Ref.Engine = ExecEngine::Reference;
    SimConfig Flat;
    Flat.Engine = ExecEngine::Flat;
    RunResult A = runWorkload(Suite, W, MC, Ref, 25);
    RunResult B = runWorkload(Suite, W, MC, Flat, 25);
    TotalSwitches += A.TotalSwitches;
    EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired);
    EXPECT_EQ(A.TotalCycles, B.TotalCycles);
    EXPECT_EQ(A.TotalOverheadCycles, B.TotalOverheadCycles);
    ASSERT_EQ(A.Completed.size(), B.Completed.size());
    ASSERT_GT(A.Completed.size(), 0u);
    for (size_t I = 0; I < A.Completed.size(); ++I) {
      EXPECT_EQ(A.Completed[I].Completion, B.Completed[I].Completion);
      expectStatsIdentical(A.Completed[I].Stats, B.Completed[I].Stats);
    }
  }
  // Many migrations and sharer changes, or the cache was not churned.
  EXPECT_GT(TotalSwitches, 0u);
}

//===----------------------------------------------------------------------===//
// Streaming metrics vs exact twins
//===----------------------------------------------------------------------===//

namespace {

/// One contended run with completions and slowdown oracles, shared by
/// the streaming-metrics tests.
RunResult metricsRun(const MachineConfig &MC, std::vector<double> &Iso) {
  static std::vector<Program> Programs = [] {
    std::vector<Program> P;
    for (uint64_t Seed : {51ull, 52ull, 53ull})
      P.push_back(randomProgram(Seed));
    return P;
  }();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Iso = isolatedRuntimes(Programs, MC);
  Workload W = Workload::random(6, 64, Programs.size(), 13);
  return runWorkload(Suite, W, MC, SimConfig(), 25, Iso);
}

} // namespace

TEST(StreamingMetrics, LatencyMatchesExactWithinSketchTolerance) {
  std::vector<double> Iso;
  MachineConfig MC = MachineConfig::quadAsymmetric();
  RunResult Run = metricsRun(MC, Iso);
  ASSERT_GT(Run.Completed.size(), 20u);

  // The accumulator fed the buffered completions in canonical order:
  // what a sink-fed run would produce had the jobs arrived that way.
  LatencyMetrics Exact = computeLatency(Run, MC);
  LatencyAccumulator Acc;
  for (const CompletedJob &Job : Run.Completed)
    Acc.add(Job);
  LatencyMetrics Stream = Acc.finish(Run.Horizon, MC);

  // Counts, running sums, maxima, and throughput are computed the same
  // way on both paths: identical.
  EXPECT_EQ(Exact.Jobs, Stream.Jobs);
  EXPECT_EQ(Exact.MeanTurnaround, Stream.MeanTurnaround);
  EXPECT_EQ(Exact.MeanSlowdown, Stream.MeanSlowdown);
  EXPECT_EQ(Exact.MaxSlowdown, Stream.MaxSlowdown);
  EXPECT_EQ(Exact.JobsPerMegacycle, Stream.JobsPerMegacycle);
  // Percentiles come from the sketch: close, not identical. Tolerance
  // is 10% of the turnaround spread (small samples sit between
  // markers).
  double Spread = Exact.P99Turnaround - Exact.P50Turnaround + 1e-12;
  EXPECT_NEAR(Exact.P50Turnaround, Stream.P50Turnaround, 0.2 * Spread);
  EXPECT_NEAR(Exact.P95Turnaround, Stream.P95Turnaround, 0.2 * Spread);
  EXPECT_NEAR(Exact.P99Turnaround, Stream.P99Turnaround, 0.2 * Spread);
  EXPECT_GT(Stream.P95Turnaround, 0.0);
}

TEST(StreamingMetrics, FairnessMatchesExactWithinSketchTolerance) {
  std::vector<double> Iso;
  MachineConfig MC = MachineConfig::quadAsymmetric();
  RunResult Run = metricsRun(MC, Iso);
  ASSERT_GT(Run.Completed.size(), 20u);

  FairnessMetrics Exact = computeFairness(Run.Completed);
  FairnessAccumulator Acc;
  for (const CompletedJob &Job : Run.Completed)
    Acc.add(Job);
  FairnessMetrics Stream = Acc.finish();
  EXPECT_EQ(Exact.Jobs, Stream.Jobs);
  EXPECT_EQ(Exact.MaxFlow, Stream.MaxFlow);
  EXPECT_EQ(Exact.MaxStretch, Stream.MaxStretch);
  EXPECT_EQ(Exact.AvgProcessTime, Stream.AvgProcessTime);
  EXPECT_NEAR(Exact.P95Flow, Stream.P95Flow, 0.2 * Exact.MaxFlow);
}

//===----------------------------------------------------------------------===//
// Completion sink: the O(1)-memory run path
//===----------------------------------------------------------------------===//

TEST(CompletionSink, SinkRunBuffersNothingAndLosesNoJob) {
  std::vector<Program> Programs;
  for (uint64_t Seed : {61ull, 62ull})
    Programs.push_back(randomProgram(Seed));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Workload W = Workload::random(5, 48, Programs.size(), 19);
  SimConfig SC;

  RunResult Buffered = runWorkload(Suite, W, MC, SC, 25);
  ASSERT_GT(Buffered.Completed.size(), 0u);

  std::vector<CompletedJob> Sunk;
  RunResult Streamed =
      runWorkload(Suite, W, MC, SC, 25, {}, SchedulerSpec(),
                  ScenarioSpec(),
                  [&Sunk](const CompletedJob &Job) { Sunk.push_back(Job); });

  // The sink run buffers nothing but still counts completions, and the
  // simulation itself is bit-identical.
  EXPECT_TRUE(Streamed.Completed.empty());
  EXPECT_EQ(Streamed.CompletedCount, Buffered.Completed.size());
  EXPECT_EQ(Streamed.CompletedCount, Sunk.size());
  EXPECT_EQ(Buffered.CompletedCount, Buffered.Completed.size());
  EXPECT_EQ(Streamed.InstructionsRetired, Buffered.InstructionsRetired);
  EXPECT_EQ(Streamed.TotalCycles, Buffered.TotalCycles);

  // The sink delivers machine exit order; canonically re-sorted it is
  // the exact same job multiset as the buffered run's Completed.
  auto Canonical = [](const CompletedJob &A, const CompletedJob &B) {
    if (A.Completion != B.Completion)
      return A.Completion < B.Completion;
    if (A.Slot != B.Slot)
      return A.Slot < B.Slot;
    if (A.Arrival != B.Arrival)
      return A.Arrival < B.Arrival;
    return A.Bench < B.Bench;
  };
  std::sort(Sunk.begin(), Sunk.end(), Canonical);
  std::vector<CompletedJob> Expected = Buffered.Completed;
  std::sort(Expected.begin(), Expected.end(), Canonical);
  for (size_t I = 0; I < Sunk.size(); ++I) {
    EXPECT_EQ(Sunk[I].Bench, Expected[I].Bench);
    EXPECT_EQ(Sunk[I].Slot, Expected[I].Slot);
    EXPECT_EQ(Sunk[I].Arrival, Expected[I].Arrival);
    EXPECT_EQ(Sunk[I].Completion, Expected[I].Completion);
    expectStatsIdentical(Sunk[I].Stats, Expected[I].Stats);
  }
}

TEST(CompletionSink, FeedsStreamingAccumulatorsEndToEnd) {
  // The composed O(1) pipeline: sink -> streaming accumulators, no
  // buffered completions anywhere. Order-insensitive fields must equal
  // the buffered exact metrics; sketched percentiles must be close.
  std::vector<Program> Programs = {randomProgram(71), randomProgram(72)};
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  std::vector<double> Iso = isolatedRuntimes(Programs, MC);
  Workload W = Workload::random(5, 48, Programs.size(), 23);
  SimConfig SC;

  RunResult Buffered = runWorkload(Suite, W, MC, SC, 25, Iso);
  ASSERT_GT(Buffered.Completed.size(), 10u);
  LatencyMetrics Exact = computeLatency(Buffered, MC);
  FairnessMetrics ExactFair = computeFairness(Buffered.Completed);

  LatencyAccumulator Lat;
  FairnessAccumulator Fair;
  RunResult Streamed = runWorkload(
      Suite, W, MC, SC, 25, Iso, SchedulerSpec(), ScenarioSpec(),
      [&](const CompletedJob &Job) {
        Lat.add(Job);
        Fair.add(Job);
      });
  EXPECT_TRUE(Streamed.Completed.empty());
  EXPECT_EQ(Lat.jobs(), Buffered.Completed.size());

  LatencyMetrics Stream = Lat.finish(Streamed.Horizon, MC);
  FairnessMetrics StreamFair = Fair.finish();
  EXPECT_EQ(Stream.Jobs, Exact.Jobs);
  EXPECT_EQ(Stream.MaxSlowdown, Exact.MaxSlowdown);
  EXPECT_EQ(Stream.JobsPerMegacycle, Exact.JobsPerMegacycle);
  // Sums fold in exit order, not canonical order: identical value up
  // to FP reassociation of a few dozen additions.
  EXPECT_NEAR(Stream.MeanTurnaround, Exact.MeanTurnaround,
              1e-9 * Exact.MeanTurnaround);
  double Spread = Exact.P99Turnaround - Exact.P50Turnaround + 1e-12;
  EXPECT_NEAR(Stream.P95Turnaround, Exact.P95Turnaround, 0.25 * Spread);
  EXPECT_EQ(StreamFair.MaxFlow, ExactFair.MaxFlow);
  EXPECT_EQ(StreamFair.MaxStretch, ExactFair.MaxStretch);
  EXPECT_NEAR(StreamFair.AvgProcessTime, ExactFair.AvgProcessTime,
              1e-9 * ExactFair.AvgProcessTime);
  EXPECT_NEAR(StreamFair.P95Flow, ExactFair.P95Flow,
              0.25 * ExactFair.MaxFlow);
}

//===----------------------------------------------------------------------===//
// T-digest sketch (the streaming accumulators' percentile carrier)
//===----------------------------------------------------------------------===//

// Below 2 x Compression observations no centroids ever merge, so the
// digest IS the sample and quantile() reduces to the exact type-7
// percentile — the regime most sweep cells' sketches live in.
TEST(TDigestTest, ExactBelowCompactionThreshold) {
  Rng Gen(31);
  TDigest D;
  std::vector<double> Sample;
  for (int I = 0; I < 500; ++I) {
    double X = 100 * Gen.nextDouble();
    D.add(X);
    Sample.push_back(X);
  }
  ASSERT_EQ(D.count(), 500u);
  for (double Pct : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0})
    EXPECT_EQ(D.percentile(Pct), percentile(Sample, Pct)) << "pct " << Pct;
}

// The digest is a pure function of the observation sequence: replaying
// the stream reproduces every quantile bit for bit.
TEST(TDigestTest, DeterministicAcrossReplays) {
  std::vector<double> First;
  for (int Round = 0; Round < 2; ++Round) {
    Rng Gen(77);
    TDigest D;
    for (int I = 0; I < 10000; ++I)
      D.add(1000 * Gen.nextDouble());
    std::vector<double> Quantiles;
    for (int Q = 0; Q <= 100; ++Q)
      Quantiles.push_back(D.quantile(Q / 100.0));
    if (Round == 0)
      First = Quantiles;
    else
      EXPECT_EQ(Quantiles, First);
  }
}

// Documented tolerance on large streams: within 1% of the sample range
// at the median, tails near-exact (extremes survive as singletons).
TEST(TDigestTest, LargeStreamWithinDocumentedTolerance) {
  Rng Gen(47);
  TDigest D;
  std::vector<double> Sample;
  for (int I = 0; I < 20000; ++I) {
    double X = 100 * Gen.nextDouble();
    D.add(X);
    Sample.push_back(X);
  }
  double Range = 100;
  for (double Pct : {50.0, 90.0, 95.0, 99.0})
    EXPECT_NEAR(D.percentile(Pct), percentile(Sample, Pct), 0.01 * Range)
        << "pct " << Pct;
  // The extremes are exact: tail centroids stay singletons.
  std::sort(Sample.begin(), Sample.end());
  EXPECT_EQ(D.quantile(0.0), Sample.front());
  EXPECT_EQ(D.quantile(1.0), Sample.back());
}

//===- tests/scenario_test.cpp - traffic-scenario subsystem tests ---------===//
//
// The traffic-scenario axis: ScenarioSpec identity/labels, arrival
// schedule determinism, the open-system multiprogramming cap, the
// latency metrics, the scenario sweep axis (cells multiply,
// preparations don't), and the acceptance bit-identity proof — the batch-at-zero ScenarioSpec must replay exactly like the
// pre-scenario runWorkload (direct spawns before run), via the shared
// comparator in tests/RunIdentity.h.
//
//===----------------------------------------------------------------------===//

#include "RunIdentity.h"
#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/Lab.h"
#include "exp/Sweep.h"
#include "metrics/Latency.h"
#include "scenario/Scenario.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

using namespace pbt;
using namespace pbt::exp;

namespace {

/// A trimmed suite (3 fast benchmarks) keeps these tests quick.
std::vector<Program> smallSuite() {
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const char *Name : {"164.gzip", "179.art", "473.astar"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  return Programs;
}

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

/// A faithful replication of the PRE-scenario runWorkload: all slot
/// heads spawned directly before run(), refills from the exit handler,
/// one M.run(Horizon) call. The batch ScenarioSpec path (which injects
/// the initial spawns through Machine::scheduleAt) must match this bit
/// for bit.
RunResult preScenarioRun(const PreparedSuite &Suite, const Workload &W,
                         const MachineConfig &MC, const SimConfig &Sim,
                         double Horizon,
                         const std::vector<double> &Isolated = {}) {
  RunResult Result;
  Result.Horizon = Horizon;
  Machine M(MC, Sim, SchedulerSpec().makeScheduler());

  std::vector<uint32_t> NextJob(W.numSlots(), 0);
  std::vector<uint32_t> BenchOfPid;
  auto SpawnSlot = [&](uint32_t Slot) {
    uint32_t Index = NextJob[Slot];
    if (Index >= W.Slots[Slot].size())
      return;
    ++NextJob[Slot];
    uint32_t Bench = W.Slots[Slot][Index];
    M.spawn(Suite.Images[Bench], Suite.Costs[Bench], Suite.Tuner,
            W.jobSeed(Slot, Index), static_cast<int32_t>(Slot),
            /*InitialAffinity=*/0, Suite.Flats[Bench]);
    BenchOfPid.push_back(Bench);
  };
  M.setExitHandler([&](Machine &, Process &P) {
    CompletedJob Job;
    Job.Bench = BenchOfPid[P.Pid];
    Job.Slot = P.Slot;
    Job.Arrival = P.ArrivalTime;
    Job.Admitted = P.ArrivalTime;
    Job.Completion = P.CompletionTime;
    if (Job.Bench < Isolated.size())
      Job.Isolated = Isolated[Job.Bench];
    Job.Stats = P.Stats;
    Result.Completed.push_back(Job);
    if (P.Slot >= 0)
      SpawnSlot(static_cast<uint32_t>(P.Slot));
  });
  for (uint32_t Slot = 0; Slot < W.numSlots(); ++Slot)
    SpawnSlot(Slot);
  M.run(Horizon);

  Result.InstructionsRetired = M.totalInstructions();
  for (uint32_t Core = 0; Core < MC.numCores(); ++Core)
    Result.CoreBusy.push_back(M.coreBusyFraction(Core));
  for (const auto &P : M.processes()) {
    Result.TotalSwitches += P->Stats.CoreSwitches;
    Result.TotalMarks += P->Stats.MarksFired;
    Result.CounterWaits += P->Stats.CounterWaits;
    Result.TotalOverheadCycles += P->Stats.OverheadCycles;
    Result.TotalCycles += P->Stats.CyclesConsumed;
  }
  std::stable_sort(Result.Completed.begin(), Result.Completed.end(),
                   [](const CompletedJob &A, const CompletedJob &B) {
                     if (A.Completion != B.Completion)
                       return A.Completion < B.Completion;
                     if (A.Slot != B.Slot)
                       return A.Slot < B.Slot;
                     if (A.Arrival != B.Arrival)
                       return A.Arrival < B.Arrival;
                     return A.Bench < B.Bench;
                   });
  return Result;
}

/// Maximum number of in-machine intervals [Admitted, Completion) alive
/// at once (Admitted, not Arrival: door-queued jobs are waiting, not
/// occupying the machine).
uint32_t maxConcurrency(const std::vector<CompletedJob> &Jobs) {
  std::vector<std::pair<double, int>> Points;
  for (const CompletedJob &Job : Jobs) {
    Points.push_back({Job.Admitted, +1});
    Points.push_back({Job.Completion, -1});
  }
  // Process completions before arrivals at equal instants: an exit
  // frees its admission slot before the deferred arrival is admitted.
  std::sort(Points.begin(), Points.end(),
            [](const std::pair<double, int> &A,
               const std::pair<double, int> &B) {
              if (A.first != B.first)
                return A.first < B.first;
              return A.second < B.second;
            });
  int Cur = 0;
  int Max = 0;
  for (const auto &P : Points) {
    Cur += P.second;
    Max = std::max(Max, Cur);
  }
  return static_cast<uint32_t>(Max);
}

} // namespace

//===----------------------------------------------------------------------===//
// ScenarioSpec identity and labels
//===----------------------------------------------------------------------===//

TEST(ScenarioSpecTest, LabelsAreSelfDescribing) {
  EXPECT_EQ(ScenarioSpec::batch().label(), "batch");
  EXPECT_EQ(ScenarioSpec().label(), "batch");
  EXPECT_EQ(ScenarioSpec::poisson(4).label(), "poisson[4]");
  EXPECT_EQ(ScenarioSpec::poisson(4, 7).label(), "poisson[4,s7]");
  EXPECT_EQ(ScenarioSpec::poisson(2).withMaxInFlight(8).label(),
            "poisson[2]+mpl8");
  EXPECT_EQ(ScenarioSpec::batch().withMaxInFlight(8).label(), "batch");
}

TEST(ScenarioSpecTest, EqualityAndHashingTrackReplayIdentity) {
  EXPECT_TRUE(ScenarioSpec::batch() == ScenarioSpec());
  EXPECT_FALSE(ScenarioSpec::batch() == ScenarioSpec::poisson(2));

  // Open-system knobs are irrelevant to a batch replay.
  ScenarioSpec A = ScenarioSpec::batch();
  ScenarioSpec B = ScenarioSpec::batch();
  B.Rate = 9;
  B.ArrivalSeed = 1;
  B.MaxInFlight = 3;
  EXPECT_TRUE(A == B);
  EXPECT_EQ(hashValue(A), hashValue(B));

  // Open scenarios compare their parameter, seed, and admission cap.
  EXPECT_TRUE(ScenarioSpec::poisson(2) == ScenarioSpec::poisson(2));
  EXPECT_EQ(hashValue(ScenarioSpec::poisson(2)),
            hashValue(ScenarioSpec::poisson(2)));
  EXPECT_FALSE(ScenarioSpec::poisson(2) == ScenarioSpec::poisson(3));
  EXPECT_NE(hashValue(ScenarioSpec::poisson(2)),
            hashValue(ScenarioSpec::poisson(3)));
  EXPECT_FALSE(ScenarioSpec::poisson(2) == ScenarioSpec::poisson(2, 7));
  EXPECT_FALSE(ScenarioSpec::poisson(2) ==
               ScenarioSpec::poisson(2).withMaxInFlight(4));
}

//===----------------------------------------------------------------------===//
// Arrival schedules
//===----------------------------------------------------------------------===//

TEST(ScenarioArrivals, PoissonSeededDeterministicAndMonotone) {
  ScenarioSpec S = ScenarioSpec::poisson(5);
  std::vector<ScenarioArrival> A = scenarioArrivals(S, 4, 20.0);
  std::vector<ScenarioArrival> B = scenarioArrivals(S, 4, 20.0);
  ASSERT_EQ(A.size(), B.size());
  ASSERT_GT(A.size(), 20u); // ~100 expected at rate 5 over 20 s.
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_DOUBLE_EQ(A[I].Time, B[I].Time);
    EXPECT_EQ(A[I].Bench, B[I].Bench);
    EXPECT_EQ(A[I].Seed, B[I].Seed);
    EXPECT_LT(A[I].Time, 20.0);
    EXPECT_LT(A[I].Bench, 4u);
    if (I > 0) {
      EXPECT_GE(A[I].Time, A[I - 1].Time);
    }
  }
  // A different seed draws a different stream.
  std::vector<ScenarioArrival> C =
      scenarioArrivals(ScenarioSpec::poisson(5, 9), 4, 20.0);
  bool Differs = C.size() != A.size();
  for (size_t I = 0; !Differs && I < std::min(A.size(), C.size()); ++I)
    Differs = A[I].Time != C[I].Time || A[I].Bench != C[I].Bench;
  EXPECT_TRUE(Differs);
}

TEST(ScenarioArrivals, RejectsInvalidSpecs) {
  EXPECT_THROW(scenarioArrivals(ScenarioSpec::poisson(0), 3, 10),
               std::invalid_argument);
  EXPECT_THROW(scenarioArrivals(ScenarioSpec::poisson(-1), 3, 10),
               std::invalid_argument);
  EXPECT_THROW(scenarioArrivals(ScenarioSpec::poisson(2), 0, 10),
               std::invalid_argument);
  // Batch has no open-system schedule.
  EXPECT_TRUE(scenarioArrivals(ScenarioSpec::batch(), 3, 10).empty());
}

//===----------------------------------------------------------------------===//
// Acceptance: batch-at-zero is bit-identical to the pre-scenario path
//===----------------------------------------------------------------------===//

TEST(ScenarioBitIdentity, BatchSpecMatchesPreScenarioRunWorkload) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  for (const TechniqueSpec &Tech :
       {TechniqueSpec::baseline(), loopTechnique()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
    RunResult Old = preScenarioRun(Suite, W, MC, SimConfig(), 25);
    // Default argument and explicit batch spec are the same path.
    RunResult New = runWorkload(Suite, W, MC, SimConfig(), 25);
    RunResult Explicit = runWorkload(Suite, W, MC, SimConfig(), 25, {},
                                     SchedulerSpec(), ScenarioSpec::batch());
    expectRunsIdentical(Old, New);
    expectRunsIdentical(Old, Explicit);
  }
}

//===----------------------------------------------------------------------===//
// Open-scenario determinism and admission cap
//===----------------------------------------------------------------------===//

TEST(ScenarioDeterminism, OpenRunsIdenticalAcrossRerunsAndParallelBatch) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  ScenarioSpec S = ScenarioSpec::poisson(2);
  RunResult A = runWorkload(Suite, W, MC, SimConfig(), 20, {},
                            SchedulerSpec(), S);
  RunResult B = runWorkload(Suite, W, MC, SimConfig(), 20, {},
                            SchedulerSpec(), S);
  expectRunsIdentical(A, B);
  EXPECT_GT(A.Completed.size(), 0u);
  // Open arrivals really arrive over time, not in a batch at zero.
  bool SawLateArrival = false;
  for (const CompletedJob &Job : A.Completed)
    SawLateArrival |= Job.Arrival > 0;
  EXPECT_TRUE(SawLateArrival);

  // The same replay inside a parallel runWorkloads batch (thread-pool
  // execution) is bit-identical to the serial calls.
  std::vector<WorkloadJob> Jobs(3);
  for (WorkloadJob &Job : Jobs)
    Job = {&Suite, &W, &MC, SimConfig(), 20, nullptr, SchedulerSpec(), S,
           std::string(), 0};
  std::vector<RunResult> Batch = runWorkloads(Jobs);
  for (const RunResult &R : Batch)
    expectRunsIdentical(A, R);
}

TEST(ScenarioStopRules, MaxInFlightCapsConcurrency) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  // A rate above the service capacity: without the cap, dozens of jobs
  // pile up in flight; with it, at most MaxInFlight run concurrently.
  // The timestamp reconstruction can overcount by one: an admission at
  // an exit is stamped at the quantum start while the freeing
  // completion lands mid-quantum, so allow MaxInFlight + 1 apparent.
  ScenarioSpec Uncapped = ScenarioSpec::poisson(2);
  ScenarioSpec Capped = ScenarioSpec::poisson(2).withMaxInFlight(2);
  RunResult Open = runWorkload(Suite, W, MC, SimConfig(), 60, {},
                               SchedulerSpec(), Uncapped);
  RunResult Mpl = runWorkload(Suite, W, MC, SimConfig(), 60, {},
                              SchedulerSpec(), Capped);
  EXPECT_GT(maxConcurrency(Open.Completed), 3u);
  EXPECT_LE(maxConcurrency(Mpl.Completed), 3u);
  EXPECT_GT(Mpl.Completed.size(), 0u);
  // The door queue defers, never drops: the capped run still serves a
  // healthy share of the stream.
  EXPECT_GT(Mpl.Completed.size(), Open.Completed.size() / 4);
  // Door-queue wait is visible in the latency accounting: some capped
  // job was admitted well after its scheduled arrival, and every job's
  // admission follows its arrival.
  bool SawDoorWait = false;
  for (const CompletedJob &Job : Mpl.Completed) {
    EXPECT_GE(Job.Admitted, Job.Arrival);
    SawDoorWait |= Job.Admitted > Job.Arrival + 1.0;
  }
  EXPECT_TRUE(SawDoorWait);
}

//===----------------------------------------------------------------------===//
// Latency metrics
//===----------------------------------------------------------------------===//

TEST(LatencyMetricsTest, HandComputedSmallCase) {
  MachineConfig MC;
  MC.CoreTypes = {{"core", 1e6, 4096}};
  MC.Cores = {{0, 0}, {0, 1}};
  RunResult Run;
  Run.Horizon = 2.0;
  auto AddJob = [&](double Arrival, double Completion, double Isolated) {
    CompletedJob Job;
    Job.Arrival = Arrival;
    Job.Completion = Completion;
    Job.Isolated = Isolated;
    Run.Completed.push_back(Job);
  };
  AddJob(0.0, 1.0, 0.5);  // Turnaround 1.0, slowdown 2.
  AddJob(0.5, 2.0, 0.5);  // Turnaround 1.5, slowdown 3.
  AddJob(1.0, 1.5, 0.0);  // Turnaround 0.5, no oracle.

  LatencyMetrics M = computeLatency(Run, MC);
  EXPECT_EQ(M.Jobs, 3u);
  EXPECT_DOUBLE_EQ(M.MeanTurnaround, 1.0);
  EXPECT_DOUBLE_EQ(M.P50Turnaround, 1.0);
  // Sorted turnarounds [0.5, 1.0, 1.5]: pos = 0.95*2 = 1.9 -> 1.45.
  EXPECT_DOUBLE_EQ(M.P95Turnaround, 1.45);
  EXPECT_DOUBLE_EQ(M.P99Turnaround, 1.49);
  // Slowdowns [2, 3]: the oracle-less job is skipped.
  EXPECT_DOUBLE_EQ(M.MeanSlowdown, 2.5);
  EXPECT_DOUBLE_EQ(M.P95Slowdown, 2.95);
  EXPECT_DOUBLE_EQ(M.MaxSlowdown, 3.0);
  // 3 jobs over 2 s x (1e6 + 1e6) cycles/s = 4 megacycles.
  EXPECT_DOUBLE_EQ(M.JobsPerMegacycle, 0.75);

  // Empty runs are all-zero (no division by zero).
  RunResult Empty;
  LatencyMetrics Z = computeLatency(Empty, MC);
  EXPECT_EQ(Z.Jobs, 0u);
  EXPECT_DOUBLE_EQ(Z.JobsPerMegacycle, 0.0);
}

//===----------------------------------------------------------------------===//
// The sweep axis
//===----------------------------------------------------------------------===//

// The scenario axis multiplies cells but NOT preparations, and the
// batch cell is the baseline replay itself.
TEST(ScenarioSweep, AxisEnumeratesWithoutExtraPreparation) {
  Lab L(smallSuite(), MachineConfig::quadAsymmetric());
  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline()};
  G.Scenarios = {ScenarioSpec::batch(), ScenarioSpec::poisson(2),
                 ScenarioSpec::poisson(4)};
  G.Workloads = {{/*Slots=*/4, /*Horizon=*/15, /*Seed=*/5,
                  /*JobsPerSlot=*/64}};
  SweepResult R = runSweep(L, G);
  ASSERT_EQ(R.Cells.size(), 3u);
  for (uint32_t I = 0; I < 3; ++I)
    EXPECT_EQ(R.Cells[I].Scenario, I);
  // One preparation total (the baseline suite, shared by the isolated-
  // runtime measurement, the cells, and the baseline replay).
  EXPECT_EQ(L.cache().misses(), 1u);
  // The batch cell reuses the workload's shared baseline replay.
  expectRunsIdentical(R.Cells[0].Run, R.Baselines[0]);
  // Open cells genuinely differ from the batch reference.
  EXPECT_NE(R.Cells[1].Run.Completed.size(),
            R.Cells[0].Run.Completed.size());
  // Latency metrics ride along on every cell, percentiles ordered.
  for (const SweepCell &Cell : R.Cells) {
    EXPECT_EQ(Cell.Latency.Jobs, Cell.Run.Completed.size());
    EXPECT_LE(Cell.Latency.P50Turnaround, Cell.Latency.P95Turnaround);
    EXPECT_LE(Cell.Latency.P95Turnaround, Cell.Latency.P99Turnaround);
    EXPECT_GT(Cell.Latency.JobsPerMegacycle, 0.0);
    EXPECT_GT(Cell.Latency.MeanSlowdown, 0.0) << "isolated oracle wired";
  }
}

// The CI warm-cache invariant, in-process: a scenario-only sweep over a
// persistent store must replay entirely from cached suites —
// prepared() == 0, storeHits() > 0 — in a cold lab, with bit-identical
// results.
TEST(ScenarioSweep, ScenarioOnlySweepServedFromStore) {
  auto Store = std::make_shared<CacheStore>(
      pbt_test::testCacheDir("scenario_test_axis.cache"));
  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline()};
  G.Scenarios = {ScenarioSpec::batch(), ScenarioSpec::poisson(2),
                 ScenarioSpec::poisson(0.5)};
  G.Workloads = {{4, 10, 5, 64}};
  G.WithBaseline = false;

  Lab First(smallSuite(), MachineConfig::quadAsymmetric());
  First.cache().setStore(Store);
  SweepResult Cold = runSweep(First, G);

  Lab Second(smallSuite(), MachineConfig::quadAsymmetric());
  Second.cache().setStore(Store);
  SweepResult Warm = runSweep(Second, G);
  EXPECT_EQ(Second.cache().prepared(), 0u);
  EXPECT_GT(Second.cache().storeHits(), 0u);

  ASSERT_EQ(Cold.Cells.size(), Warm.Cells.size());
  for (size_t I = 0; I < Cold.Cells.size(); ++I)
    expectRunsIdentical(Cold.Cells[I].Run, Warm.Cells[I].Run);
}

//===- tests/runner_test.cpp - suite preparation + workload replay --------===//

#include "exp/Shard.h"
#include "support/Binary.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pbt;

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

/// Every field of \p Run, doubles by bit pattern (the shard codec).
std::string runBytes(const RunResult &Run) {
  BinaryWriter W;
  exp::serializeRunResult(W, Run);
  return W.buffer();
}

} // namespace

TEST(PrepareSuite, BaselineHasNoMarks) {
  auto Programs = smallSuite();
  PreparedSuite Suite = prepareSuite(Programs, MachineConfig::quadAsymmetric(),
                                     TechniqueSpec::baseline());
  ASSERT_EQ(Suite.Images.size(), Programs.size());
  for (const auto &Image : Suite.Images)
    EXPECT_TRUE(Image->marks().empty());
}

TEST(PrepareSuite, TunedProgramsWithPhasesHaveMarks) {
  auto Programs = smallSuite();
  PreparedSuite Suite = prepareSuite(Programs, MachineConfig::quadAsymmetric(),
                                     loopTechnique());
  // gzip and art have phase changes; astar is single-phase but its cold
  // code may still carry marks. At minimum the multi-phase ones do.
  EXPECT_FALSE(Suite.Images[0]->marks().empty());
  EXPECT_FALSE(Suite.Images[1]->marks().empty());
}

TEST(PrepareSuite, TechniqueLabels) {
  EXPECT_EQ(TechniqueSpec::baseline().label(), "Linux");
  EXPECT_EQ(loopTechnique().label(), "Loop[45]");
}

TEST(IsolatedRuntimes, OrderedLikeTableOne) {
  auto Programs = buildSuite();
  auto Iso = isolatedRuntimes(Programs, MachineConfig::quadAsymmetric());
  ASSERT_EQ(Iso.size(), Programs.size());
  auto TimeOf = [&](const char *Name) {
    for (size_t I = 0; I < Programs.size(); ++I)
      if (Programs[I].Name == Name)
        return Iso[I];
    ADD_FAILURE() << Name;
    return 0.0;
  };
  // The scaled ordering of the paper's Table 1 runtimes.
  EXPECT_LT(TimeOf("164.gzip"), TimeOf("401.bzip2"));
  EXPECT_LT(TimeOf("401.bzip2"), TimeOf("429.mcf"));
  EXPECT_LT(TimeOf("429.mcf"), TimeOf("470.lbm"));
  EXPECT_LT(TimeOf("470.lbm"), TimeOf("459.GemsFDTD"));
  EXPECT_LT(TimeOf("459.GemsFDTD"), TimeOf("171.swim"));
  EXPECT_LT(TimeOf("171.swim"), TimeOf("410.bwaves"));
  for (double T : Iso)
    EXPECT_GT(T, 0.0);
}

TEST(RunIsolated, SwitchCountsFollowTableOne) {
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  SimConfig SC;
  auto SwitchesOf = [&](const char *Name) -> uint64_t {
    for (uint32_t I = 0; I < Programs.size(); ++I)
      if (Programs[I].Name == Name)
        return runIsolated(Suite, I, MC, SC).Stats.CoreSwitches;
    ADD_FAILURE() << Name;
    return 0;
  };
  uint64_t Equake = SwitchesOf("183.equake");
  uint64_t Bzip2 = SwitchesOf("401.bzip2");
  uint64_t Astar = SwitchesOf("473.astar");
  uint64_t Gems = SwitchesOf("459.GemsFDTD");
  EXPECT_GT(Equake, Bzip2);
  EXPECT_GT(Bzip2, 10u);
  EXPECT_EQ(Astar, 0u);
  EXPECT_EQ(Gems, 0u);
}

TEST(RunWorkload, CompletesAndRespawns) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 40);
  EXPECT_GT(R.Completed.size(), 4u); // Slots must have recycled.
  EXPECT_GT(R.InstructionsRetired, 0u);
  for (const CompletedJob &Job : R.Completed) {
    EXPECT_GE(Job.Completion, Job.Arrival);
    EXPECT_GE(Job.Slot, 0);
    EXPECT_LT(Job.Bench, Programs.size());
  }
}

TEST(RunWorkload, ReproducibleForSameInputs) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult A = runWorkload(Suite, W, MC, SimConfig(), 30);
  RunResult B = runWorkload(Suite, W, MC, SimConfig(), 30);
  EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired);
  ASSERT_EQ(A.Completed.size(), B.Completed.size());
  for (size_t I = 0; I < A.Completed.size(); ++I)
    EXPECT_DOUBLE_EQ(A.Completed[I].Completion, B.Completed[I].Completion);
}

TEST(RunWorkload, IsolatedTimesAttached) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  std::vector<double> Iso = {1.0, 2.0, 3.0};
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 30, Iso);
  for (const CompletedJob &Job : R.Completed)
    EXPECT_DOUBLE_EQ(Job.Isolated, Iso[Job.Bench]);
}

TEST(RunWorkload, MarksFireOnlyWhenInstrumented) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult Base = runWorkload(
      prepareSuite(Programs, MC, TechniqueSpec::baseline()), W, MC,
      SimConfig(), 30);
  RunResult Tuned = runWorkload(prepareSuite(Programs, MC, loopTechnique()),
                                W, MC, SimConfig(), 30);
  EXPECT_EQ(Base.TotalMarks, 0u);
  EXPECT_EQ(Base.TotalSwitches, 0u);
  EXPECT_DOUBLE_EQ(Base.TotalOverheadCycles, 0.0);
  EXPECT_GT(Tuned.TotalMarks, 0u);
}

TEST(RunWorkload, ErrorInjectionStillRuns) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  Tech.TypingError = 0.3;
  PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 20);
  EXPECT_GT(R.InstructionsRetired, 0u);
}

TEST(RunWorkload, StaticTypingPipelineRuns) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  Tech.UseStaticTyping = true;
  PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 20);
  EXPECT_GT(R.InstructionsRetired, 0u);
}

TEST(HassStatic, PinsDominantProgramsAtSpawn) {
  // The HASS comparator is an OS policy, not a preparation: the
  // uninstrumented baseline images replay under hass-static, and the
  // whole-program mask analysis pins clearly dominant programs only.
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  for (const auto &Image : Suite.Images)
    EXPECT_TRUE(Image->marks().empty());
  int PinnedFast = 0, PinnedSlow = 0;
  for (size_t I = 0; I < Programs.size(); ++I) {
    uint64_t Mask =
        hassWholeProgramMask(Programs[I], *Suite.Costs[I], MC);
    if (Mask == 0)
      continue;
    if (Mask == MC.coreMaskOfType(0))
      ++PinnedFast;
    else if (Mask == MC.coreMaskOfType(1))
      ++PinnedSlow;
    else
      ADD_FAILURE() << "unexpected mask " << Mask;
  }
  EXPECT_GT(PinnedFast, 0);
  EXPECT_GT(PinnedSlow, 0);
  EXPECT_EQ(SchedulerSpec::hassStatic().label(), "hass-static");
}

TEST(HassStatic, PinRespectedThroughoutRun) {
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  Workload W = Workload::random(4, 32, Programs.size(), 5);
  RunResult R = runWorkload(Suite, W, MC, SimConfig(), 20, {},
                            SchedulerSpec::hassStatic());
  EXPECT_EQ(R.TotalSwitches, 0u); // Static assignment never migrates.
  EXPECT_GT(R.InstructionsRetired, 0u);
}

//===----------------------------------------------------------------------===//
// runWorkloadHorizons: one simulation, a snapshot per horizon
//===----------------------------------------------------------------------===//

TEST(RunWorkloadHorizons, SnapshotsBitIdenticalToStandaloneRuns) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  std::vector<double> Iso = {1.5, 2.5, 3.5};
  SimConfig Base;
  // Unsorted, with duplicates, off the timeslice grid, and a pair less
  // than one timeslice apart (both land on the same quantum boundary).
  const std::vector<double> Horizons = {
      12, 3.0001, 12, 7.5, 7.5 + 0.25 * Base.Timeslice, 0.5, 3.0001};
  ASSERT_TRUE(sharesHorizonPrefix(ScenarioSpec()));
  for (ExecEngine Engine : {ExecEngine::Flat, ExecEngine::FastReplay})
    for (const SchedulerSpec &Sched :
         {SchedulerSpec::oblivious(), SchedulerSpec::ipcSampling()}) {
      SCOPED_TRACE(std::string(engineName(Engine)) + " / " + Sched.label());
      SimConfig Sim = Base;
      Sim.Engine = Engine;
      std::vector<RunResult> Shared =
          runWorkloadHorizons(Suite, W, MC, Sim, Horizons, Iso, Sched);
      ASSERT_EQ(Shared.size(), Horizons.size());
      for (size_t I = 0; I < Horizons.size(); ++I) {
        RunResult Alone =
            runWorkload(Suite, W, MC, Sim, Horizons[I], Iso, Sched);
        EXPECT_EQ(runBytes(Shared[I]), runBytes(Alone))
            << "horizon " << Horizons[I];
        EXPECT_EQ(Shared[I].Horizon, Horizons[I]);
      }
      // The longest horizon really ran further than the shortest.
      EXPECT_GT(Shared[0].InstructionsRetired,
                Shared[5].InstructionsRetired);
    }
}

TEST(RunWorkloadHorizons, OpenAndStopRuleScenariosNeverShareASimulation) {
  // An open stream is drawn over [0, horizon) and its run ends once
  // that stream drains; a stop rule ends the run wherever it fires.
  // Neither is a prefix of a longer replay, so each horizon must be its
  // own simulation.
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  const std::vector<double> Horizons = {20, 6, 20, 11};
  for (const ScenarioSpec &Scenario :
       {ScenarioSpec::poisson(2), ScenarioSpec::poisson(2).withMaxInFlight(3),
        ScenarioSpec().withMaxJobs(12)}) {
    SCOPED_TRACE(Scenario.label());
    EXPECT_FALSE(sharesHorizonPrefix(Scenario));
    std::vector<RunResult> Runs = runWorkloadHorizons(
        Suite, W, MC, SimConfig(), Horizons, {}, SchedulerSpec(), Scenario);
    ASSERT_EQ(Runs.size(), Horizons.size());
    for (size_t I = 0; I < Horizons.size(); ++I)
      EXPECT_EQ(runBytes(Runs[I]),
                runBytes(runWorkload(Suite, W, MC, SimConfig(), Horizons[I],
                                     {}, SchedulerSpec(), Scenario)))
          << "horizon " << Horizons[I];
  }
}

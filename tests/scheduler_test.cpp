//===- tests/scheduler_test.cpp - scheduler-policy API tests --------------===//
//
// The scheduler-policy axis: SchedulerSpec identity/factory, the
// oblivious baseline's affinity edge cases, SimConfig validation, the
// hook/telemetry contract, and the acceptance bit-identity proofs —
// the SchedulerSpec path must replay exactly like the pre-axis code
// (oblivious hard-wired in runWorkload; HASS pinned through spawn
// affinities).
//
//===----------------------------------------------------------------------===//

#include "RunIdentity.h"

#include "ir/IRBuilder.h"
#include "sim/Machine.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

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

Program loopProgram(uint32_t Trips = 1000, bool Memory = false) {
  IRBuilder B(Memory ? "memprog" : "compprog");
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);
  B.appendMix(Main, Entry, InstMix::compute(10));
  InstMix Body = Memory ? InstMix::memory(100, 100000, 0.10)
                        : InstMix::compute(100);
  uint32_t Join = B.addLoopRegion(Main, Entry, Body, Trips);
  B.setRet(Main, Join);
  return B.take();
}

std::shared_ptr<const InstrumentedProgram> plainImage(const Program &Prog) {
  MarkingResult Empty;
  Empty.NumTypes = 1;
  Empty.RegionType.resize(Prog.Procs.size());
  return std::make_shared<const InstrumentedProgram>(Prog, std::move(Empty));
}

/// An asymmetric machine whose SLOW cores come first, so policies that
/// merely pick the first least-loaded core (oblivious) and policies that
/// prefer frequency (fastest-first) make observably different choices.
MachineConfig slowFirstQuad() {
  MachineConfig MC;
  MC.Name = "slow-first-quad";
  MC.CoreTypes = {{"fast", 2.4e6, 4096}, {"slow", 1.6e6, 4096}};
  MC.Cores = {{1, 0}, {1, 0}, {0, 1}, {0, 1}};
  return MC;
}

/// Which core currently queues \p Pid, or UINT32_MAX.
uint32_t queuedOn(const Machine &M, uint32_t Pid) {
  for (uint32_t Core = 0; Core < M.config().numCores(); ++Core)
    for (uint32_t Queued : M.queue(Core))
      if (Queued == Pid)
        return Core;
  return UINT32_MAX;
}

/// Asserts every queued process sits on a core its mask allows.
void expectQueuesHonorAffinity(Machine &M) {
  for (uint32_t Core = 0; Core < M.config().numCores(); ++Core)
    for (uint32_t Pid : M.queue(Core))
      EXPECT_TRUE(M.process(Pid).allowedOn(Core))
          << "pid " << Pid << " queued on disallowed core " << Core;
}

/// A faithful replication of the PRE-scheduler-axis runWorkload: the
/// oblivious policy hard-wired into the Machine and per-benchmark spawn
/// affinities applied through the spawn() parameter (how the HASS
/// comparator used to be smuggled in via PreparedSuite::SpawnAffinity).
/// The new SchedulerSpec path must match this bit for bit.
RunResult preRefactorRun(const PreparedSuite &Suite, const Workload &W,
                         const MachineConfig &MC, const SimConfig &Sim,
                         double Horizon,
                         const std::vector<uint64_t> &SpawnAffinity = {}) {
  RunResult Result;
  Result.Horizon = Horizon;
  Machine M(MC, Sim, std::make_unique<ObliviousScheduler>());

  std::vector<uint32_t> NextJob(W.numSlots(), 0);
  std::vector<uint32_t> BenchOfPid;
  auto SpawnSlot = [&](uint32_t Slot) {
    uint32_t Index = NextJob[Slot];
    if (Index >= W.Slots[Slot].size())
      return;
    ++NextJob[Slot];
    uint32_t Bench = W.Slots[Slot][Index];
    uint64_t Affinity =
        Bench < SpawnAffinity.size() ? SpawnAffinity[Bench] : 0;
    M.spawn(Suite.Images[Bench], Suite.Costs[Bench], Suite.Tuner,
            W.jobSeed(Slot, Index), static_cast<int32_t>(Slot), Affinity,
            Suite.Flats[Bench]);
    BenchOfPid.push_back(Bench);
  };
  M.setExitHandler([&](Machine &, Process &P) {
    CompletedJob Job;
    Job.Bench = BenchOfPid[P.Pid];
    Job.Slot = P.Slot;
    Job.Arrival = P.ArrivalTime;
    Job.Admitted = P.ArrivalTime;
    Job.Completion = P.CompletionTime;
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

} // namespace

//===----------------------------------------------------------------------===//
// SchedulerSpec identity and factory
//===----------------------------------------------------------------------===//

TEST(SchedulerSpecTest, LabelsAreSelfDescribing) {
  EXPECT_EQ(SchedulerSpec::oblivious().label(), "oblivious");
  EXPECT_EQ(SchedulerSpec::fastestFirst().label(), "fastest-first");
  EXPECT_EQ(SchedulerSpec::hassStatic().label(), "hass-static");
  EXPECT_EQ(SchedulerSpec::ipcSampling().label(),
            "ipc-sampling[50000,1.1]");
  EXPECT_EQ(SchedulerSpec::ipcSampling(2000, 1.5).label(),
            "ipc-sampling[2000,1.5]");
}

TEST(SchedulerSpecTest, EqualityAndHashingIgnoreIrrelevantParams) {
  EXPECT_TRUE(SchedulerSpec::oblivious() == SchedulerSpec());
  EXPECT_FALSE(SchedulerSpec::oblivious() == SchedulerSpec::hassStatic());
  // Parameters only matter for ipc-sampling.
  SchedulerSpec A = SchedulerSpec::oblivious();
  SchedulerSpec B = SchedulerSpec::oblivious();
  B.MinSampleInsts = 1;
  EXPECT_TRUE(A == B);
  EXPECT_EQ(hashValue(A), hashValue(B));
  SchedulerSpec C = SchedulerSpec::ipcSampling(1000, 1.2);
  SchedulerSpec D = SchedulerSpec::ipcSampling(1000, 1.3);
  EXPECT_FALSE(C == D);
  EXPECT_NE(hashValue(C), hashValue(D));
  EXPECT_TRUE(C == SchedulerSpec::ipcSampling(1000, 1.2));
  EXPECT_EQ(hashValue(C), hashValue(SchedulerSpec::ipcSampling(1000, 1.2)));
}

TEST(SchedulerSpecTest, FactoryMakesPoliciesAndRejectsUnknownNames) {
  for (const SchedulerSpec &Spec :
       {SchedulerSpec::oblivious(), SchedulerSpec::fastestFirst(),
        SchedulerSpec::hassStatic(), SchedulerSpec::ipcSampling()})
    EXPECT_TRUE(Spec.makeScheduler() != nullptr) << Spec.label();
  SchedulerSpec Bogus;
  Bogus.Name = "cfs";
  EXPECT_THROW(Bogus.makeScheduler(), std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// SimConfig validation (satellite: no silent misbehaviour)
//===----------------------------------------------------------------------===//

TEST(SimConfigValidation, RejectsInconsistentConfigs) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Make = [&](SimConfig SC) {
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
  };
  SimConfig Ok;
  EXPECT_NO_THROW(Make(Ok));

  SimConfig ZeroSlice;
  ZeroSlice.Timeslice = 0;
  EXPECT_THROW(Make(ZeroSlice), std::invalid_argument);
  SimConfig NegSlice;
  NegSlice.Timeslice = -0.004;
  EXPECT_THROW(Make(NegSlice), std::invalid_argument);
  SimConfig ZeroBalance;
  ZeroBalance.BalancePeriod = 0;
  EXPECT_THROW(Make(ZeroBalance), std::invalid_argument);
  SimConfig SliceAboveBalance;
  SliceAboveBalance.Timeslice = 0.2; // > default BalancePeriod 0.1.
  EXPECT_THROW(Make(SliceAboveBalance), std::invalid_argument);
  // Equal is fine: balancing every quantum is legal, just aggressive.
  SimConfig Equal;
  Equal.Timeslice = 0.1;
  Equal.BalancePeriod = 0.1;
  EXPECT_NO_THROW(Make(Equal));
}

//===----------------------------------------------------------------------===//
// Oblivious affinity edge cases (satellite)
//===----------------------------------------------------------------------===//

TEST(ObliviousAffinity, BalanceNeverPullsOutsideAffinityMask) {
  Program Prog = loopProgram(200000);
  auto Image = plainImage(Prog);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  // Six processes pinned to core 0 (a heavy imbalance the balancer must
  // NOT spread) plus two free ones.
  std::vector<uint32_t> Pinned;
  for (int I = 0; I < 6; ++I)
    Pinned.push_back(
        M.spawn(Image, Cost, TunerConfig(), 10 + I, -1, /*Affinity=*/1));
  M.spawn(Image, Cost, TunerConfig(), 20);
  M.spawn(Image, Cost, TunerConfig(), 21);
  // Several balance periods' worth of quanta.
  M.run(0.5);
  expectQueuesHonorAffinity(M);
  for (uint32_t Pid : Pinned)
    EXPECT_EQ(queuedOn(M, Pid), 0u) << "pinned pid " << Pid << " moved";
}

TEST(ObliviousAffinity, BalanceMovesOnlyUnpinnedWork) {
  // Direct balance() invocation: core 0 holds 5 processes of which only
  // one may migrate; the balancer must move exactly that one.
  Program Prog = loopProgram(200000);
  auto Image = plainImage(Prog);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  for (int I = 0; I < 4; ++I)
    M.spawn(Image, Cost, TunerConfig(), 30 + I, -1, /*Affinity=*/1);
  uint32_t Free = M.spawn(Image, Cost, TunerConfig(), 40, -1,
                          /*Affinity=*/0);
  // The free process was placed on an empty core; drag it onto core 0
  // to construct the imbalance.
  ASSERT_TRUE(M.moveQueued(Free, queuedOn(M, Free), 0));
  ASSERT_EQ(M.queueLength(0), 5u);

  ObliviousScheduler Policy;
  Policy.balance(M);
  expectQueuesHonorAffinity(M);
  EXPECT_NE(queuedOn(M, Free), 0u) << "the only migratable process";
  EXPECT_EQ(M.queueLength(0), 4u) << "exactly one process may leave";
}

TEST(ObliviousAffinity, SelectCoreHonorsSingleCoreMaskUnderLoad) {
  Program Prog = loopProgram(200000);
  auto Image = plainImage(Prog);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  // Load core 2 heavily while the others stay empty...
  for (int I = 0; I < 5; ++I)
    M.spawn(Image, Cost, TunerConfig(), 50 + I, -1, /*Affinity=*/1ULL << 2);
  // ...then a single-core mask for core 2 must still land there, even
  // though every other core has a shorter queue.
  uint32_t Pid = M.spawn(Image, Cost, TunerConfig(), 60, -1,
                         /*Affinity=*/1ULL << 2);
  EXPECT_EQ(queuedOn(M, Pid), 2u);
  // And under rotation/balancing it must never leave.
  M.run(0.5);
  EXPECT_EQ(queuedOn(M, Pid), 2u);
  expectQueuesHonorAffinity(M);
}

//===----------------------------------------------------------------------===//
// Acceptance: the SchedulerSpec path is bit-identical to the old code
//===----------------------------------------------------------------------===//

TEST(SchedulerBitIdentity, ObliviousSpecMatchesPreRefactorBaseline) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  Workload W = Workload::random(4, 64, Programs.size(), 5);
  for (const TechniqueSpec &Tech :
       {TechniqueSpec::baseline(), loopTechnique()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
    RunResult Old = preRefactorRun(Suite, W, MC, SimConfig(), 25);
    // Default argument and explicit spec are the same path.
    RunResult New = runWorkload(Suite, W, MC, SimConfig(), 25);
    RunResult Explicit = runWorkload(Suite, W, MC, SimConfig(), 25, {},
                                     SchedulerSpec::oblivious());
    expectRunsIdentical(Old, New);
    expectRunsIdentical(Old, Explicit);
  }
}

TEST(SchedulerBitIdentity, HassPolicyMatchesSpawnAffinityPinning) {
  // The old HASS comparator pinned processes by passing per-benchmark
  // masks to spawn(); HassStaticScheduler computes the identical masks
  // in its onSpawn hook, so the replays must match bit for bit.
  auto Programs = buildSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  std::vector<uint64_t> Masks;
  for (size_t I = 0; I < Programs.size(); ++I)
    Masks.push_back(hassWholeProgramMask(Programs[I], *Suite.Costs[I], MC));
  Workload W = Workload::random(6, 64, Programs.size(), 9);
  RunResult Old = preRefactorRun(Suite, W, MC, SimConfig(), 25, Masks);
  RunResult New = runWorkload(Suite, W, MC, SimConfig(), 25, {},
                              SchedulerSpec::hassStatic());
  expectRunsIdentical(Old, New);
}

//===----------------------------------------------------------------------===//
// Fastest-first
//===----------------------------------------------------------------------===//

TEST(FastestFirst, PrefersFastCoreAtEqualLoad) {
  Program Prog = loopProgram(200000);
  auto Image = plainImage(Prog);
  MachineConfig MC = slowFirstQuad();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  // On the slow-first machine the oblivious policy takes core 0 (slow);
  // fastest-first must take core 2 (the first fast core).
  Machine Obl(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  EXPECT_EQ(queuedOn(Obl, Obl.spawn(Image, Cost, TunerConfig(), 1)), 0u);
  Machine Fast(MC, SimConfig(),
               SchedulerSpec::fastestFirst().makeScheduler());
  EXPECT_EQ(queuedOn(Fast, Fast.spawn(Image, Cost, TunerConfig(), 1)), 2u);
}

TEST(FastestFirst, BalancePullsStrandedWorkOntoIdleFastCores) {
  Program Prog = loopProgram(200000);
  auto Image = plainImage(Prog);
  MachineConfig MC = slowFirstQuad();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  // One job stranded on a slow core (where oblivious placement left it)
  // while both fast cores idle.
  uint32_t Pid = M.spawn(Image, Cost, TunerConfig(), 1);
  ASSERT_EQ(queuedOn(M, Pid), 0u);
  FastestFirstScheduler Policy;
  Policy.balance(M);
  uint32_t Core = queuedOn(M, Pid);
  EXPECT_EQ(MC.Cores[Core].TypeId, 0u) << "should now queue on a fast core";
  // A pinned process, by contrast, must stay put.
  uint32_t Pinned = M.spawn(Image, Cost, TunerConfig(), 2, -1,
                            /*Affinity=*/0b11); // Slow cores only.
  Policy.balance(M);
  uint32_t PinnedCore = queuedOn(M, Pinned);
  EXPECT_EQ(MC.Cores[PinnedCore].TypeId, 1u);
  expectQueuesHonorAffinity(M);
}

//===----------------------------------------------------------------------===//
// IPC sampling
//===----------------------------------------------------------------------===//

TEST(IpcSampling, DeterministicAndAffinityRespecting) {
  auto Programs = smallSuite();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC,
                                     TechniqueSpec::baseline());
  Workload W = Workload::random(6, 64, Programs.size(), 13);
  SchedulerSpec Sched = SchedulerSpec::ipcSampling(/*MinSampleInsts=*/5000);
  RunResult A = runWorkload(Suite, W, MC, SimConfig(), 20, {}, Sched);
  RunResult B = runWorkload(Suite, W, MC, SimConfig(), 20, {}, Sched);
  expectRunsIdentical(A, B);
  EXPECT_GT(A.Completed.size(), 0u);
}

TEST(IpcSampling, ReassignsComputeWorkTowardFastCores) {
  // One compute-bound and one memory-bound long-runner on a machine
  // with one fast and one slow core: after the sampling phase the
  // compute job must spend its later windows on the fast core (its
  // IPC-frequency product is ~1.5x there) and telemetry must show both
  // types were sampled.
  MachineConfig MC;
  MC.CoreTypes = {{"fast", 2.4e6, 4096}, {"slow", 1.6e6, 4096}};
  MC.Cores = {{0, 0}, {1, 1}};
  Program Comp = loopProgram(400000, false);
  Program Mem = loopProgram(400000, true);
  auto CompCost = std::make_shared<const CostModel>(Comp, MC);
  auto MemCost = std::make_shared<const CostModel>(Mem, MC);
  auto CompImage = plainImage(Comp);
  auto MemImage = plainImage(Mem);
  Machine M(MC, SimConfig(),
            SchedulerSpec::ipcSampling(/*MinSampleInsts=*/5000)
                .makeScheduler());
  uint32_t CompPid = M.spawn(CompImage, CompCost, TunerConfig(), 1);
  uint32_t MemPid = M.spawn(MemImage, MemCost, TunerConfig(), 2);
  M.run(2.0); // ~20 balance periods.
  const SchedTelemetry &CompT = M.telemetry(CompPid);
  const SchedTelemetry &MemT = M.telemetry(MemPid);
  EXPECT_TRUE(CompT.sampled(0, 5000) && CompT.sampled(1, 5000));
  EXPECT_TRUE(MemT.sampled(0, 5000) && MemT.sampled(1, 5000));
  // The compute job's cycles should be concentrated on the fast core.
  EXPECT_GT(CompT.CyclesByType[0], CompT.CyclesByType[1]);
  // And the memory job accordingly yielded the fast core.
  EXPECT_GT(MemT.CyclesByType[1], MemT.CyclesByType[0]);
}

//===----------------------------------------------------------------------===//
// Telemetry bookkeeping
//===----------------------------------------------------------------------===//

// Zero-cycle edge cases of the telemetry accessors: a fresh (or never
// run) process must read as unsampled everywhere without dividing by
// zero, and accumulated instructions without cycles (degenerate) must
// not produce an IPC.
TEST(Telemetry, ZeroCycleWindowsReadAsUnsampled) {
  SchedTelemetry T;
  T.InstsByType.resize(2, 0);
  T.CyclesByType.resize(2, 0.0);
  EXPECT_DOUBLE_EQ(T.ipcOn(0), 0.0);
  EXPECT_DOUBLE_EQ(T.ipcOn(1), 0.0);
  EXPECT_TRUE(T.sampled(0, 0)) << "zero-threshold sampling is trivial";
  EXPECT_FALSE(T.sampled(0, 1));
  // Instructions without cycles must not fabricate an IPC.
  T.InstsByType[0] = 100;
  EXPECT_DOUBLE_EQ(T.ipcOn(0), 0.0);

  // And the machine-maintained telemetry of a spawned-but-never-run
  // process is exactly that all-zero state.
  Program Prog = loopProgram(100);
  auto Image = plainImage(Prog);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  uint32_t Pid = M.spawn(Image, Cost, TunerConfig(), 1);
  const SchedTelemetry &Fresh = M.telemetry(Pid);
  ASSERT_EQ(Fresh.InstsByType.size(), MC.numCoreTypes());
  ASSERT_EQ(Fresh.CyclesByType.size(), MC.numCoreTypes());
  EXPECT_DOUBLE_EQ(Fresh.WindowIpc, 0.0);
  for (uint32_t Ct = 0; Ct < MC.numCoreTypes(); ++Ct) {
    EXPECT_EQ(Fresh.InstsByType[Ct], 0u);
    EXPECT_DOUBLE_EQ(Fresh.CyclesByType[Ct], 0.0);
  }
}

// After a cross-type migration the per-type accumulators keep both
// types' history and the window IPC describes the *last* window: its
// core type must be one the process actually accumulated cycles on.
TEST(Telemetry, IpcFollowsLastWindowAfterMigration) {
  MachineConfig MC;
  MC.CoreTypes = {{"fast", 2.4e6, 4096}, {"slow", 1.6e6, 4096}};
  MC.Cores = {{0, 0}, {1, 1}};
  Program Comp = loopProgram(400000, false);
  Program Mem = loopProgram(400000, true);
  auto CompCost = std::make_shared<const CostModel>(Comp, MC);
  auto MemCost = std::make_shared<const CostModel>(Mem, MC);
  Machine M(MC, SimConfig(),
            SchedulerSpec::ipcSampling(/*MinSampleInsts=*/5000)
                .makeScheduler());
  uint32_t CompPid = M.spawn(plainImage(Comp), CompCost, TunerConfig(), 1);
  uint32_t MemPid = M.spawn(plainImage(Mem), MemCost, TunerConfig(), 2);
  M.run(2.0); // Long enough for sampling migrations both ways.
  for (uint32_t Pid : {CompPid, MemPid}) {
    const SchedTelemetry &T = M.telemetry(Pid);
    // The sampler migrated the process across both types.
    EXPECT_GT(T.CyclesByType[0], 0.0);
    EXPECT_GT(T.CyclesByType[1], 0.0);
    // The last window is attributed to a type it really ran on, with a
    // positive IPC consistent with that type's accumulators.
    ASSERT_LT(T.WindowCoreType, MC.numCoreTypes());
    EXPECT_GT(T.WindowIpc, 0.0);
    EXPECT_GT(T.ipcOn(T.WindowCoreType), 0.0);
  }
}

// Telemetry is never reset or recycled on process exit: the policy's
// onExit hook observes the final counters, the same values remain
// readable afterwards, and later spawns (pids are never reused) leave
// the dead process's telemetry untouched.
TEST(Telemetry, ExitPreservesFinalTelemetry) {
  struct ExitSnooper final : ObliviousScheduler {
    uint64_t InstsAtExit = 0;
    double CyclesAtExit = 0;
    void onExit(Machine &M, Process &P) override {
      const SchedTelemetry &T = M.telemetry(P.Pid);
      for (size_t Ct = 0; Ct < T.InstsByType.size(); ++Ct) {
        InstsAtExit += T.InstsByType[Ct];
        CyclesAtExit += T.CyclesByType[Ct];
      }
    }
  };
  Program Prog = loopProgram(2000);
  auto Image = plainImage(Prog);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  auto Policy = std::make_unique<ExitSnooper>();
  ExitSnooper *Snoop = Policy.get();
  Machine M(MC, SimConfig(), std::move(Policy));
  uint32_t Pid = M.spawn(Image, Cost, TunerConfig(), 1);
  M.run(50);
  ASSERT_TRUE(M.process(Pid).Finished);
  EXPECT_EQ(Snoop->InstsAtExit, M.process(Pid).Stats.InstsRetired);

  // Snapshot after exit, then spawn and run more work: the dead pid's
  // telemetry must not move.
  std::vector<uint64_t> InstsSnapshot = M.telemetry(Pid).InstsByType;
  std::vector<double> CyclesSnapshot = M.telemetry(Pid).CyclesByType;
  uint64_t SnapSum = 0;
  for (uint64_t I : InstsSnapshot)
    SnapSum += I;
  EXPECT_EQ(SnapSum, Snoop->InstsAtExit);
  M.spawn(Image, Cost, TunerConfig(), 2);
  M.run(M.now() + 50);
  EXPECT_EQ(M.telemetry(Pid).InstsByType, InstsSnapshot);
  for (size_t Ct = 0; Ct < CyclesSnapshot.size(); ++Ct)
    EXPECT_DOUBLE_EQ(M.telemetry(Pid).CyclesByType[Ct],
                     CyclesSnapshot[Ct]);
}

TEST(Telemetry, CountersMatchProcessStats) {
  Program Prog = loopProgram(2000, true);
  auto Image = plainImage(Prog);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  for (int I = 0; I < 6; ++I)
    M.spawn(Image, Cost, TunerConfig(), 70 + I);
  M.run(100);
  for (const auto &P : M.processes()) {
    ASSERT_TRUE(P->Finished);
    const SchedTelemetry &T = M.telemetry(P->Pid);
    uint64_t Insts = 0;
    double Cycles = 0;
    for (size_t Ct = 0; Ct < T.InstsByType.size(); ++Ct) {
      Insts += T.InstsByType[Ct];
      Cycles += T.CyclesByType[Ct];
    }
    EXPECT_EQ(Insts, P->Stats.InstsRetired);
    // Per-type accumulators sum in a different order than the single
    // CyclesConsumed accumulator; equality is only up to rounding.
    EXPECT_NEAR(Cycles, P->Stats.CyclesConsumed,
                1e-9 * P->Stats.CyclesConsumed);
    EXPECT_GT(T.WindowIpc, 0.0);
  }
}

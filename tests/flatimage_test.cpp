//===- tests/flatimage_test.cpp - flat-engine differential tests ----------===//
//
// The flat execution engine must be a perfect stand-in for the
// block-at-a-time reference interpreter: on randomized programs, across
// machines with two and three core types, instrumented or not, every
// ProcessStats field (including the floating-point ones) and every
// completion time must be bit-identical. The parallel experiment runner
// must likewise reproduce the serial runner bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "core/Transitions.h"
#include "ir/IRBuilder.h"
#include "sim/FlatImage.h"
#include "sim/Machine.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace pbt;

namespace {

/// Generates a random but guaranteed-terminating program: within a
/// procedure control only moves forward, self-loops finitely, or
/// returns; calls target strictly later procedures (acyclic call graph).
/// Jump runs give the chain builder real superblocks to fuse.
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
      // Memory mixes must stream over more lines than the 4 MiB L2
      // (65536 lines) holds, or the oracle types everything compute-
      // bound and no phase transitions (hence no marks) exist at all.
      InstMix Mix =
          Memory
              ? InstMix::memory(
                    Count,
                    1u << (15 + static_cast<unsigned>(Gen.nextBelow(4))),
                    0.1 + 0.4 * Gen.nextDouble())
              // FpShare + the fixed mem/branch fractions must stay
              // below 1; compute() defaults leave 0.12 reserved.
              : InstMix::compute(Count, 0.85 * Gen.nextDouble());
      B.appendMix(P, I, Mix);

      if (I == N - 1) {
        B.setRet(P, I);
        continue;
      }
      double Roll = Gen.nextDouble();
      if (Roll < 0.3) {
        B.setJump(P, I, I + 1); // Chainable straight-line step.
      } else if (Roll < 0.5) {
        uint32_t Other =
            I + 1 + static_cast<uint32_t>(Gen.nextBelow(N - I - 1));
        B.setCond(P, I, I + 1, Other, 0.1 + 0.8 * Gen.nextDouble());
      } else if (Roll < 0.8) {
        // Trip counts large enough that the dynamic analysis can finish
        // sampling a phase and actually migrate the process.
        B.setLoop(P, I, I, I + 1,
                  20 + static_cast<uint32_t>(Gen.nextBelow(700)));
      } else if (Roll < 0.95 && P + 1 < NumProcs) {
        uint32_t Callee =
            P + 1 + static_cast<uint32_t>(Gen.nextBelow(NumProcs - P - 1));
        B.appendCall(P, I, Callee);
        B.setJump(P, I, I + 1);
      } else if (I >= 2) {
        B.setRet(P, I); // Early return; later blocks may be unreachable.
      } else {
        B.setJump(P, I, I + 1);
      }
    }
  }
  return B.take();
}

/// A machine with three distinct core types (beyond the paper's two).
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

TechniqueSpec bbTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::BasicBlock;
  TC.MinSize = 10;
  TC.Lookahead = 1;
  TunerConfig TU;
  TU.IpcDelta = 0.15;
  return TechniqueSpec::tuned(TC, TU);
}

/// Runs one prepared benchmark alone to completion under \p Engine.
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

/// A hand-built program around one single-block self-loop:
///
///   B0 (entry) -> B1 (self-loop, \p Trips trips) -> B2 (outer latch back
///   to B0, \p Outer trips) -> B3 (return)
///
/// B1 is the shape of the suite's phase bodies (buildBenchmark's loop
/// regions) and the shape the engines' self-loop kernel runs.
Program selfLoopProgram(uint32_t Trips, uint32_t Outer, const InstMix &Body,
                        uint64_t Seed = 3) {
  IRBuilder B("self_loop_" + std::to_string(Trips), Seed);
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);
  uint32_t Loop = B.addBlock(Main);
  uint32_t Latch = B.addBlock(Main);
  uint32_t Exit = B.addBlock(Main);
  B.appendMix(Main, Entry, InstMix::compute(/*Count=*/10));
  B.appendMix(Main, Loop, Body);
  B.setJump(Main, Entry, Loop);
  B.setLoop(Main, Loop, Loop, Latch, Trips);
  B.setLoop(Main, Latch, Entry, Exit, Outer);
  B.setRet(Main, Exit);
  return B.take();
}

/// Global id of selfLoopProgram's self-loop block.
constexpr uint32_t SelfLoopBlock = 1;

/// One hand-instrumented program with its cost model and flat image.
struct HandImage {
  std::shared_ptr<const InstrumentedProgram> IP;
  std::shared_ptr<const CostModel> Cost;
  std::shared_ptr<const FlatImage> Flat;
};

HandImage handImage(const Program &Prog, const MachineConfig &MC,
                    std::vector<PhaseMark> Marks = {},
                    uint32_t NumTypes = 1) {
  MarkingResult Marking;
  Marking.NumTypes = NumTypes;
  Marking.RegionType.resize(Prog.Procs.size());
  Marking.Marks = std::move(Marks);
  HandImage H;
  H.IP = std::make_shared<const InstrumentedProgram>(Prog, Marking);
  H.Cost = std::make_shared<const CostModel>(Prog, MC);
  H.Flat = std::make_shared<const FlatImage>(H.IP, H.Cost);
  return H;
}

/// True when \p Global is a record the self-loop kernel runs: a Loop
/// latch whose unmarked back edge targets itself.
bool isKernelLoop(const FlatImage &FI, uint32_t Global) {
  const FlatBlock &B = FI.block(Global);
  return B.Op == FlatOp::Loop && B.Succ[0] == Global && B.EdgeMark[0] < 0;
}

/// What a lockstep replay exercised, and how it ended.
struct Lockstep {
  /// Each process's final stats under the Reference engine (the other
  /// engines matched them quantum by quantum).
  std::vector<ProcessStats> Stats;
  /// Quantum ends at which a process sat inside a kernel self-loop with
  /// back-edge trips still to run, so the next quantum resumed the
  /// activation mid-way.
  uint32_t MidLoopParks = 0;
  /// ... of which the process was being monitored.
  uint32_t MonitoredParks = 0;
  /// ... of which it was not: its next advance call starts from zero
  /// used cycles inside the loop, so the kernel serves the resumed trips
  /// from the process's reach memo.
  uint32_t UnmonitoredParks = 0;
  /// Monitored parks whose MonCycles lies in another binade than at the
  /// process's previous monitored park: a resume added its trips to
  /// MonCycles across a power of two.
  uint32_t MonitoredBinadeCrossings = 0;
  /// Quiet quanta of the Flat and FastReplay machines: every advance a
  /// memo-hit resume (Machine::quietQuanta).
  uint64_t FlatQuiet = 0;
  uint64_t FastQuiet = 0;
  /// Advances the Flat and FastReplay machines served from the reach
  /// memo without an engine call (Machine::memoResumes).
  uint64_t FlatResumes = 0;
  uint64_t FastResumes = 0;
  /// Consecutive mid-loop parks of one process between which the active
  /// core count of its L2 group changed.
  uint32_t SharerChanges = 0;
};

/// Active cores in \p Core's L2 group, as Machine::run counts them at
/// the start of a quantum.
uint32_t groupSharers(const Machine &M, uint32_t Core) {
  const MachineConfig &MC = M.config();
  uint32_t Active = 0;
  for (uint32_t C = 0; C < MC.numCores(); ++C)
    if (MC.Cores[C].L2Group == MC.Cores[Core].L2Group && M.queueLength(C))
      ++Active;
  return std::max(1u, Active);
}

/// Core whose runqueue holds \p Pid, or -1.
int32_t coreOf(const Machine &M, uint32_t Pid) {
  for (uint32_t C = 0; C < M.config().numCores(); ++C)
    for (uint32_t Q : M.queue(C))
      if (Q == Pid)
        return static_cast<int32_t>(C);
  return -1;
}

void expectTunersIdentical(const PhaseTuner &A, const PhaseTuner &B) {
  ASSERT_EQ(A.numPhaseTypes(), B.numPhaseTypes());
  for (uint32_t Ph = 0; Ph < A.numPhaseTypes(); ++Ph) {
    EXPECT_EQ(A.assignment(Ph), B.assignment(Ph));
    for (uint32_t Ct = 0; Ct < A.numCoreTypes(); ++Ct)
      EXPECT_EQ(A.measuredIpc(Ph, Ct), B.measuredIpc(Ph, Ct));
  }
}

/// Spawns one process per image under the Reference, Flat and
/// FastReplay engines and steps the three machines a quantum at a time
/// until every process has finished. After every quantum Flat must
/// match Reference exactly — stats, loop counters, the monitoring
/// window and the tuner's samples — and FastReplay must match it on
/// every integer field and on the tuner (whose samples are integers).
Lockstep runLockstep(const MachineConfig &MC, const SimConfig &Base,
                     const std::vector<HandImage> &Images) {
  Lockstep Cov;
  std::vector<std::unique_ptr<Machine>> Ms;
  for (ExecEngine E :
       {ExecEngine::Reference, ExecEngine::Flat, ExecEngine::FastReplay}) {
    SimConfig SC = Base;
    SC.Engine = E;
    Ms.push_back(std::make_unique<Machine>(
        MC, SC, std::make_unique<ObliviousScheduler>()));
    for (size_t I = 0; I < Images.size(); ++I)
      Ms.back()->spawn(Images[I].IP, Images[I].Cost, TunerConfig(), 5 + I,
                       -1, 0, Images[I].Flat);
  }
  Machine &Ref = *Ms[0];
  Machine &Flat = *Ms[1];
  Machine &Fast = *Ms[2];
  std::vector<int64_t> LastParkSharers(Images.size(), -1);
  std::vector<double> LastMonCycles(Images.size(), -1);
  auto Pending = [&] {
    for (const auto &P : Ref.processes())
      if (P->CompletionTime < 0)
        return true;
    return false;
  };
  for (uint32_t Quantum = 1; Pending(); ++Quantum) {
    for (auto &M : Ms)
      M->run(M->now() + Base.Timeslice);
    for (uint32_t Pid = 0; Pid < Images.size(); ++Pid) {
      SCOPED_TRACE("quantum " + std::to_string(Quantum) + " pid " +
                   std::to_string(Pid));
      const Process &R = Ref.process(Pid);
      const Process &F = Flat.process(Pid);
      const Process &X = Fast.process(Pid);
      expectStatsIdentical(R.Stats, F.Stats);
      EXPECT_EQ(R.LoopRemaining, F.LoopRemaining);
      EXPECT_EQ(R.MonActive, F.MonActive);
      EXPECT_EQ(R.MonInsts, F.MonInsts);
      EXPECT_EQ(R.MonCycles, F.MonCycles);
      EXPECT_EQ(R.AffinityMask, F.AffinityMask);
      EXPECT_EQ(R.CompletionTime, F.CompletionTime);
      expectTunersIdentical(R.Tuner, F.Tuner);

      EXPECT_EQ(R.Stats.InstsRetired, X.Stats.InstsRetired);
      EXPECT_EQ(R.Stats.BlocksExecuted, X.Stats.BlocksExecuted);
      EXPECT_EQ(R.Stats.MarksFired, X.Stats.MarksFired);
      EXPECT_EQ(R.Stats.CoreSwitches, X.Stats.CoreSwitches);
      EXPECT_EQ(R.Stats.MonitorSessions, X.Stats.MonitorSessions);
      EXPECT_EQ(R.Stats.CounterWaits, X.Stats.CounterWaits);
      EXPECT_EQ(R.LoopRemaining, X.LoopRemaining);
      EXPECT_EQ(R.MonActive, X.MonActive);
      EXPECT_EQ(R.MonInsts, X.MonInsts);
      EXPECT_EQ(R.Finished, X.Finished);
      expectTunersIdentical(R.Tuner, X.Tuner);
      if (::testing::Test::HasFailure())
        return Cov;

      uint32_t Cur = F.CurGlobal;
      int32_t Core = coreOf(Flat, Pid);
      if (!F.Finished && Core >= 0 && isKernelLoop(*F.Flat, Cur) &&
          F.LoopRemaining[Cur] > 1) {
        ++Cov.MidLoopParks;
        if (F.MonActive) {
          ++Cov.MonitoredParks;
          if (LastMonCycles[Pid] > 0 && F.MonCycles > LastMonCycles[Pid] &&
              std::ilogb(F.MonCycles) != std::ilogb(LastMonCycles[Pid]))
            ++Cov.MonitoredBinadeCrossings;
          LastMonCycles[Pid] = F.MonCycles;
        } else {
          ++Cov.UnmonitoredParks;
          LastMonCycles[Pid] = -1;
        }
        int64_t Sharers = groupSharers(Flat, static_cast<uint32_t>(Core));
        if (LastParkSharers[Pid] >= 0 && LastParkSharers[Pid] != Sharers)
          ++Cov.SharerChanges;
        LastParkSharers[Pid] = Sharers;
      }
    }
  }
  for (uint32_t Pid = 0; Pid < Images.size(); ++Pid) {
    EXPECT_GE(Flat.process(Pid).CompletionTime, 0);
    EXPECT_GE(Fast.process(Pid).CompletionTime, 0);
    Cov.Stats.push_back(Ref.process(Pid).Stats);
  }
  EXPECT_EQ(Ref.quietQuanta(), 0u) << "Reference never reports quiet";
  EXPECT_EQ(Ref.memoResumes(), 0u) << "Reference never resumes from memo";
  for (const auto &M : Ms)
    EXPECT_LE(M->memoResumes(), M->advances());
  Cov.FlatQuiet = Flat.quietQuanta();
  Cov.FastQuiet = Fast.quietQuanta();
  Cov.FlatResumes = Flat.memoResumes();
  Cov.FastResumes = Fast.memoResumes();
  return Cov;
}

/// Trips of \p Global's body that fit in one quantum on the fastest
/// configuration of \p MC: a loop with more trips than this must span
/// quanta and so must be resumed mid-activation.
double tripsPerQuantum(const HandImage &H, const MachineConfig &MC,
                       const SimConfig &SC, uint32_t Global) {
  const FlatImage &FI = *H.Flat;
  double Most = 0;
  for (uint32_t Ct = 0; Ct < MC.numCoreTypes(); ++Ct)
    for (uint32_t S = 1; S <= FI.maxSharers(); ++S)
      Most = std::max(Most, SC.Timeslice * MC.CoreTypes[Ct].Frequency /
                                FI.cycleTable()[FI.block(Global).CycleRow +
                                                FI.configOffset(Ct, S)]);
  return Most;
}

/// A timeslice whose budget on a \p Freq core — Timeslice * Freq, as
/// Machine::run evaluates it — equals \p Budget bit for bit, when the
/// nearest few doubles to Budget / Freq reach it (callers assert).
double timesliceFor(double Budget, double Freq) {
  double Timeslice = Budget / Freq;
  for (int Step = 0; Step < 16 && Timeslice * Freq != Budget; ++Step)
    Timeslice = std::nextafter(Timeslice,
                               Timeslice * Freq < Budget ? 1.0 : 0.0);
  return Timeslice;
}

/// A machine with one core of one type.
MachineConfig oneCoreMachine() {
  MachineConfig MC;
  MC.CoreTypes = {{"only", 2.0e6, 4096}};
  MC.Cores = {{0, 0}};
  return MC;
}

/// Cycles of \p Global's body on core type \p Ct alone on its L2.
double bodyCycles(const HandImage &H, uint32_t Global, uint32_t Ct = 0) {
  const FlatImage &FI = *H.Flat;
  return FI.cycleTable()[FI.block(Global).CycleRow + FI.configOffset(Ct, 1)];
}

} // namespace

TEST(FlatImage, GlobalIdsFollowProcOffsets) {
  Program Prog = randomProgram(7);
  auto Cost = std::make_shared<const CostModel>(
      Prog, MachineConfig::quadAsymmetric());
  MarkingResult Empty;
  Empty.NumTypes = 1;
  Empty.RegionType.resize(Prog.Procs.size());
  auto IP =
      std::make_shared<const InstrumentedProgram>(Prog, std::move(Empty));
  FlatImage FI(IP, Cost);

  EXPECT_EQ(FI.numBlocks(), Prog.blockCount());
  uint32_t Expected = 0;
  for (const Procedure &P : Prog.Procs) {
    EXPECT_EQ(FI.offsetOf(P.Id), Expected);
    for (const BasicBlock &BB : P.Blocks) {
      uint32_t G = FI.globalId(P.Id, BB.Id);
      EXPECT_EQ(G, Expected + BB.Id);
      EXPECT_EQ(FI.procOf(G), P.Id);
      EXPECT_EQ(FI.block(G).Insts, BB.size());
      // Cycle-table entries are bit-identical to the cost model.
      for (uint32_t Ct = 0; Ct < FI.numCoreTypes(); ++Ct)
        for (uint32_t S = 1; S <= FI.maxSharers(); ++S)
          EXPECT_EQ(FI.cycleTable()[FI.block(G).CycleRow +
                                    FI.configOffset(Ct, S)],
                    Cost->blockCycles(P.Id, BB.Id, Ct, S));
    }
    Expected += static_cast<uint32_t>(P.Blocks.size());
  }
}

TEST(FlatImage, ChainSummariesMatchManualWalk) {
  Program Prog = randomProgram(11);
  auto Cost = std::make_shared<const CostModel>(
      Prog, MachineConfig::quadAsymmetric());
  MarkingResult Empty;
  Empty.NumTypes = 1;
  Empty.RegionType.resize(Prog.Procs.size());
  auto IP =
      std::make_shared<const InstrumentedProgram>(Prog, std::move(Empty));
  FlatImage FI(IP, Cost);

  uint32_t ChainRecords = 0;
  for (uint32_t G = 0; G < FI.numBlocks(); ++G) {
    const FlatBlock &F = FI.block(G);
    if (F.Op != FlatOp::Chain)
      continue;
    ++ChainRecords;
    ASSERT_GT(F.ChainBlocks, 0u) << "terminating program: chains exit";
    // Walk the chain by hand and check the fused summary.
    uint64_t Insts = 0;
    uint32_t Blocks = 0;
    uint32_t Cur = G;
    while (FI.block(Cur).Op == FlatOp::Chain) {
      Insts += FI.block(Cur).Insts;
      ++Blocks;
      Cur = FI.block(Cur).Succ[0];
    }
    EXPECT_EQ(F.ChainBlocks, Blocks);
    EXPECT_EQ(F.ChainInsts, Insts);
    EXPECT_EQ(F.ChainExit, Cur);
    // Summed cycles for every configuration.
    for (uint32_t Cfg = 0; Cfg < FI.configStride(); ++Cfg) {
      double Expect = 0;
      for (uint32_t Walk = G; FI.block(Walk).Op == FlatOp::Chain;
           Walk = FI.block(Walk).Succ[0])
        Expect += FI.cycleTable()[FI.block(Walk).CycleRow + Cfg];
      EXPECT_NEAR(FI.chainCycleTable()[F.ChainRow + Cfg], Expect,
                  1e-9 * (1 + Expect));
    }
  }
  EXPECT_EQ(ChainRecords, FI.chainRecordCount());
  EXPECT_GT(ChainRecords, 0u) << "generator should produce jump runs";
}

TEST(FlatEngine, BitIdenticalToReferenceIsolated) {
  uint64_t TotalMarks = 0;
  uint64_t TotalSwitches = 0;
  uint64_t TotalMonitors = 0;
  for (uint64_t Seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    std::vector<Program> Programs = {randomProgram(Seed)};
    for (const MachineConfig &MC :
         {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
      for (const TechniqueSpec &Tech :
           {TechniqueSpec::baseline(), loopTechnique(), bbTechnique()}) {
        PreparedSuite Suite = prepareSuite(Programs, MC, Tech);
        SimConfig Ref;
        Ref.Engine = ExecEngine::Reference;
        SimConfig Flat;
        Flat.Engine = ExecEngine::Flat;
        Machine MRef(MC, Ref, std::make_unique<ObliviousScheduler>());
        Machine MFlat(MC, Flat, std::make_unique<ObliviousScheduler>());
        const Process &PRef = runAlone(MRef, Suite, 42 + Seed);
        const Process &PFlat = runAlone(MFlat, Suite, 42 + Seed);
        SCOPED_TRACE("seed " + std::to_string(Seed) + " cores " +
                     std::to_string(MC.numCores()) + " tech " +
                     Tech.label());
        expectStatsIdentical(PRef.Stats, PFlat.Stats);
        EXPECT_EQ(PRef.CompletionTime, PFlat.CompletionTime);
        if (Suite.Images[0]->marks().empty())
          EXPECT_EQ(PRef.Stats.MarksFired, 0u);
        TotalMarks += PRef.Stats.MarksFired;
        TotalSwitches += PRef.Stats.CoreSwitches;
        TotalMonitors += PRef.Stats.MonitorSessions;
      }
    }
  }
  // The sweep must exercise the interesting engine paths, or the
  // differential comparison proves nothing about them.
  EXPECT_GT(TotalMarks, 0u);
  EXPECT_GT(TotalSwitches, 0u);
  EXPECT_GT(TotalMonitors, 0u);
}

TEST(FlatEngine, BitIdenticalToReferenceUnderContention) {
  // Multi-process workload: queue rotation, L2-sharing re-evaluation,
  // counter contention, and migrations must all line up exactly.
  std::vector<Program> Programs;
  for (uint64_t Seed : {21ull, 22ull, 23ull})
    Programs.push_back(randomProgram(Seed));
  for (const MachineConfig &MC :
       {MachineConfig::quadAsymmetric(), threeTypeMachine()}) {
    PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
    Workload W = Workload::random(6, 64, Programs.size(), 9);
    SimConfig Ref;
    Ref.Engine = ExecEngine::Reference;
    SimConfig Flat;
    Flat.Engine = ExecEngine::Flat;
    RunResult A = runWorkload(Suite, W, MC, Ref, 25);
    RunResult B = runWorkload(Suite, W, MC, Flat, 25);

    EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired);
    EXPECT_EQ(A.TotalSwitches, B.TotalSwitches);
    EXPECT_EQ(A.TotalMarks, B.TotalMarks);
    EXPECT_EQ(A.CounterWaits, B.CounterWaits);
    EXPECT_EQ(A.TotalOverheadCycles, B.TotalOverheadCycles);
    EXPECT_EQ(A.TotalCycles, B.TotalCycles);
    ASSERT_EQ(A.Completed.size(), B.Completed.size());
    ASSERT_GT(A.Completed.size(), 0u);
    for (size_t I = 0; I < A.Completed.size(); ++I) {
      EXPECT_EQ(A.Completed[I].Bench, B.Completed[I].Bench);
      EXPECT_EQ(A.Completed[I].Slot, B.Completed[I].Slot);
      EXPECT_EQ(A.Completed[I].Arrival, B.Completed[I].Arrival);
      EXPECT_EQ(A.Completed[I].Completion, B.Completed[I].Completion);
      expectStatsIdentical(A.Completed[I].Stats, B.Completed[I].Stats);
    }
  }
}

TEST(FlatEngine, SingleSuccessorCondFoldsIdentically) {
  // verify() admits Cond blocks with one successor; both engines must
  // fold the missing edge onto the only successor — including its mark
  // — and stay bit-identical.
  Program Prog;
  Prog.Name = "cond1";
  Procedure Main;
  Main.Id = 0;
  Main.Name = "main";
  BasicBlock B0;
  B0.Id = 0;
  for (int I = 0; I < 40; ++I)
    B0.Insts.push_back(Instruction::intAlu());
  B0.Term = TermKind::Cond;
  B0.Succs = {1};
  B0.TakenProb = 0.5; // Both RNG outcomes occur; both must fold.
  BasicBlock B1;
  B1.Id = 1;
  B1.Insts.push_back(Instruction::intAlu());
  B1.Term = TermKind::Loop;
  B1.Succs = {0, 2};
  B1.TripCount = 50;
  BasicBlock B2;
  B2.Id = 2;
  B2.Term = TermKind::Ret;
  Main.Blocks = {B0, B1, B2};
  Prog.Procs = {Main};
  std::string Error;
  ASSERT_TRUE(verify(Prog, &Error)) << Error;

  MarkingResult Marking;
  Marking.NumTypes = 2;
  Marking.RegionType.resize(1);
  Marking.Marks.push_back({0, 0, 0, MarkPoint::Edge, 0});
  auto IP = std::make_shared<const InstrumentedProgram>(Prog, Marking);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);

  ProcessStats Stats[2];
  double Completion[2];
  int I = 0;
  for (ExecEngine Engine : {ExecEngine::Reference, ExecEngine::Flat}) {
    SimConfig SC;
    SC.Engine = Engine;
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(IP, Cost, TunerConfig(), 5);
    while (M.process(Pid).CompletionTime < 0)
      M.run(M.now() + 64);
    Stats[I] = M.process(Pid).Stats;
    Completion[I] = M.process(Pid).CompletionTime;
    ++I;
  }
  expectStatsIdentical(Stats[0], Stats[1]);
  EXPECT_EQ(Completion[0], Completion[1]);
  // The folded edge fires its mark on every traversal, either outcome.
  EXPECT_EQ(Stats[0].MarksFired, 50u);
}

// Flat and FastReplay share one block loop, and only FastReplay may
// charge a superblock chain as one precomputed sum; Flat must add it
// block by block. Here a four-block chain with fractional costs runs
// inside an outer loop, so the two orders round differently and a Flat
// that fused would drift from Reference.
TEST(FlatEngine, WalksChainsBlockByBlock) {
  const uint32_t Links = 4;
  IRBuilder B("chain_loop", 5);
  uint32_t Main = B.createProc("main");
  for (uint32_t I = 0; I < Links + 2; ++I)
    B.addBlock(Main);
  for (uint32_t I = 0; I < Links; ++I) {
    B.appendMix(Main, I, InstMix::memory(11 + 7 * I, 1u << 17, 0.3));
    B.setJump(Main, I, I + 1);
  }
  B.appendMix(Main, Links, InstMix::compute(10));
  B.setLoop(Main, Links, 0, Links + 1, 5000);
  B.setRet(Main, Links + 1);
  MachineConfig MC = MachineConfig::quadAsymmetric();
  HandImage H = handImage(B.take(), MC);
  ASSERT_EQ(H.Flat->block(0).Op, FlatOp::Chain);
  ASSERT_EQ(H.Flat->block(0).ChainBlocks, Links);

  std::vector<ProcessStats> Stats;
  for (ExecEngine Engine :
       {ExecEngine::Reference, ExecEngine::Flat, ExecEngine::FastReplay}) {
    SimConfig SC;
    SC.Engine = Engine;
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(H.IP, H.Cost, TunerConfig(), 5, -1, 0, H.Flat);
    while (M.process(Pid).CompletionTime < 0)
      M.run(M.now() + 64);
    Stats.push_back(M.process(Pid).Stats);
  }
  expectStatsIdentical(Stats[0], Stats[1]);
  // The input does tell the orders apart: FastReplay's fused charges
  // keep the integer stats but round the cycle total differently.
  EXPECT_EQ(Stats[0].BlocksExecuted, Stats[2].BlocksExecuted);
  EXPECT_NE(Stats[0].CyclesConsumed, Stats[2].CyclesConsumed);
}

// The self-loop kernel: unmarked single-block loops run their back-edge
// trips in a dedicated loop inside both flat-image engines. These
// hand-built programs pin its edge cases against the Reference
// interpreter, a quantum at a time.

TEST(SelfLoopKernel, ShortAndLongTripCounts) {
  // 1 trip: only the exit trip, which the kernel never takes. 2 trips:
  // one back edge through the kernel, then the exit. 5000 trips: the
  // activation spans many quanta.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  for (uint32_t Trips : {1u, 2u, 3u, 5000u}) {
    SCOPED_TRACE("trips " + std::to_string(Trips));
    HandImage H = handImage(
        selfLoopProgram(Trips, /*Outer=*/4, InstMix::compute(64)), MC);
    ASSERT_TRUE(isKernelLoop(*H.Flat, SelfLoopBlock));
    Lockstep Cov = runLockstep(MC, SC, {H});
    if (Trips == 5000) {
      ASSERT_GT(Trips, tripsPerQuantum(H, MC, SC, SelfLoopBlock));
      EXPECT_GT(Cov.MidLoopParks, 0u);
    }
  }
}

TEST(SelfLoopKernel, QuantumEndingExactlyOnTheBudget) {
  // A one-core machine whose quantum budget equals, bit for bit, the
  // cycles of the entry block plus K trips. Trip K then ends exactly on
  // the budget: K = 3 stops mid-activation, K = Trips - 1 stops on the
  // budget and the last back edge at once, K = Trips is the exit trip.
  MachineConfig MC = oneCoreMachine();
  const uint32_t Trips = 8;
  HandImage H =
      handImage(selfLoopProgram(Trips, /*Outer=*/3, InstMix::compute(40)),
                MC);
  double Entry = bodyCycles(H, 0);
  double Body = bodyCycles(H, SelfLoopBlock);
  double Freq = MC.CoreTypes[0].Frequency;
  for (uint32_t K : {3u, Trips - 1, Trips}) {
    SCOPED_TRACE("K " + std::to_string(K));
    double Budget = Entry;
    for (uint32_t I = 0; I < K; ++I)
      Budget += Body;
    SimConfig SC;
    SC.Timeslice = timesliceFor(Budget, Freq);
    ASSERT_EQ(SC.Timeslice * Freq, Budget);

    // The first quantum must stop exactly on the budget in every engine.
    for (ExecEngine E : {ExecEngine::Reference, ExecEngine::Flat,
                         ExecEngine::FastReplay}) {
      SimConfig One = SC;
      One.Engine = E;
      Machine M(MC, One, std::make_unique<ObliviousScheduler>());
      uint32_t Pid = M.spawn(H.IP, H.Cost, TunerConfig(), 5, -1, 0, H.Flat);
      M.run(M.now() + One.Timeslice);
      EXPECT_EQ(M.process(Pid).Stats.CyclesConsumed, Budget);
      EXPECT_EQ(M.process(Pid).Stats.BlocksExecuted, 1u + K);
      EXPECT_EQ(M.process(Pid).LoopRemaining[SelfLoopBlock],
                K < Trips ? Trips - K : 0u);
    }
    runLockstep(MC, SC, {H});
  }
}

TEST(SelfLoopKernel, MonitoredLoopMatchesSamples) {
  // A mark on the edge into the loop starts a monitoring session that
  // the loop's marked exit edge closes, so the kernel's monitored
  // variant accumulates MonCycles across quanta and the tuner's samples
  // (truncated MonCycles) decide where the phases run.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  Program Prog = selfLoopProgram(4000, /*Outer=*/8, InstMix::compute(48));
  HandImage H = handImage(Prog, MC,
                          {{0, 0, 0, MarkPoint::Edge, 0},
                           {0, SelfLoopBlock, 1, MarkPoint::Edge, 1}},
                          /*NumTypes=*/2);
  ASSERT_TRUE(isKernelLoop(*H.Flat, SelfLoopBlock));
  ASSERT_GE(H.Flat->block(SelfLoopBlock).EdgeMark[1], 0);
  ASSERT_GT(4000, tripsPerQuantum(H, MC, SC, SelfLoopBlock));
  Lockstep Cov = runLockstep(MC, SC, {H});
  EXPECT_GT(Cov.MonitoredParks, 0u);
  // The replay must have monitored, and moved on what it sampled.
  ASSERT_EQ(Cov.Stats.size(), 1u);
  EXPECT_GT(Cov.Stats[0].MonitorSessions, 0u);
  EXPECT_GT(Cov.Stats[0].CoreSwitches, 0u);
  EXPECT_EQ(Cov.Stats[0].MarksFired, 16u);
}

TEST(SelfLoopKernel, SharerChangeBetweenQuanta) {
  // Memory-bound bodies whose cost depends on how many cores share the
  // L2. Processes finish at different times, so the long loops resume
  // mid-activation under a different sharer count.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  // Streams over 48K lines: L2-resident alone, missing when shared.
  InstMix Mem = InstMix::memory(64, /*WorkingSetLines=*/49152, 0.3);
  std::vector<HandImage> Images;
  for (uint32_t Trips : {20000u, 1500u, 9000u, 400u})
    Images.push_back(handImage(
        selfLoopProgram(Trips, /*Outer=*/2, Mem, /*Seed=*/Trips), MC));
  const FlatImage &FI = *Images[0].Flat;
  const double *Cyc = FI.cycleTable() + FI.block(SelfLoopBlock).CycleRow;
  ASSERT_NE(Cyc[FI.configOffset(0, 1)], Cyc[FI.configOffset(0, 2)])
      << "the body's cost must depend on the sharer count";
  Lockstep Cov = runLockstep(MC, SC, Images);
  EXPECT_GT(Cov.SharerChanges, 0u);
}

TEST(SelfLoopKernel, MarkedBackEdgeSteps) {
  // A mark on the back edge makes the loop a phase boundary on every
  // trip: the kernel must leave it to the stepping path, which fires the
  // mark once per back-edge trip.
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  const uint32_t Trips = 700;
  const uint32_t Outer = 3;
  HandImage H =
      handImage(selfLoopProgram(Trips, Outer, InstMix::compute(32)), MC,
                {{0, SelfLoopBlock, 0, MarkPoint::Edge, 0}});
  ASSERT_GE(H.Flat->block(SelfLoopBlock).EdgeMark[0], 0);
  ASSERT_FALSE(isKernelLoop(*H.Flat, SelfLoopBlock));
  Lockstep Cov = runLockstep(MC, SC, {H});
  ASSERT_EQ(Cov.Stats.size(), 1u);
  EXPECT_EQ(Cov.Stats[0].MarksFired, Outer * (Trips - 1));
}

// A kernel call that starts from zero used cycles takes its trips from
// the process's reach memo: the trip count K at which the sum from +0.0
// reaches the budget, and that sum, for the last (row, budget) resumed.
// These cases pin the memo's boundaries against the stepping engines.

TEST(SelfLoopKernel, ResumeBudgetEqualToATableEntry) {
  // A one-core machine whose quantum budget equals, bit for bit, the sum
  // of K bodies from zero. The first quantum runs the entry block and K
  // trips; every later quantum resumes the loop from zero and must stop
  // on exactly that sum: K trips, not K + 1. The second quantum fills
  // the memo, the third is served from it. 63 back edges divide by
  // every K, so one resume also runs out of back edges on the very trip
  // that reaches the budget.
  MachineConfig MC = oneCoreMachine();
  const uint32_t Trips = 64;
  HandImage H =
      handImage(selfLoopProgram(Trips, /*Outer=*/2, InstMix::compute(40)),
                MC);
  ASSERT_LT(bodyCycles(H, 0), bodyCycles(H, SelfLoopBlock));
  double Body = bodyCycles(H, SelfLoopBlock);
  double Freq = MC.CoreTypes[0].Frequency;
  for (uint32_t K : {1u, 3u, 7u}) {
    SCOPED_TRACE("K " + std::to_string(K));
    double Budget = 0;
    for (uint32_t I = 0; I < K; ++I)
      Budget += Body;
    SimConfig SC;
    SC.Timeslice = timesliceFor(Budget, Freq);
    ASSERT_EQ(SC.Timeslice * Freq, Budget);

    for (ExecEngine E : {ExecEngine::Reference, ExecEngine::Flat,
                         ExecEngine::FastReplay}) {
      SimConfig One = SC;
      One.Engine = E;
      Machine M(MC, One, std::make_unique<ObliviousScheduler>());
      uint32_t Pid = M.spawn(H.IP, H.Cost, TunerConfig(), 5, -1, 0, H.Flat);
      M.run(M.now() + One.Timeslice);
      const Process &P = M.process(Pid);
      ASSERT_EQ(P.LoopRemaining[SelfLoopBlock], Trips - K);
      for (uint32_t Resume = 1; Resume <= 2; ++Resume) {
        SCOPED_TRACE("resume " + std::to_string(Resume));
        uint64_t Blocks = P.Stats.BlocksExecuted;
        double Cycles = P.Stats.CyclesConsumed;
        M.run(M.now() + One.Timeslice);
        EXPECT_EQ(P.Stats.BlocksExecuted - Blocks, K);
        EXPECT_EQ(P.Stats.CyclesConsumed, Cycles + Budget);
        EXPECT_EQ(P.LoopRemaining[SelfLoopBlock], Trips - (Resume + 1) * K);
      }
      // Quantum 1 balanced, quantum 2 filled the memo, quantum 3 hit it.
      EXPECT_EQ(M.quanta(), 3u);
      EXPECT_EQ(M.quietQuanta(), E == ExecEngine::Reference ? 0u : 1u);
    }
    Lockstep Cov = runLockstep(MC, SC, {H});
    EXPECT_GT(Cov.UnmonitoredParks, 0u);
    EXPECT_GT(Cov.FlatQuiet, 0u);
    EXPECT_GT(Cov.FastQuiet, 0u);
  }
}

TEST(SelfLoopKernel, SecondProcessResumesOnAReducedBudget) {
  // One core, two processes. A (pid 0) needs about a quantum and a half;
  // B (pid 1) parks mid-loop in quantum 2. In quantum 3, A finishes
  // mid-quantum and B resumes from zero used cycles on what is left of
  // the budget: a memo miss, on a budget B has not seen, between quanta
  // whose whole-budget resumes hit it.
  MachineConfig MC = oneCoreMachine();
  SimConfig SC;
  HandImage Probe = handImage(
      selfLoopProgram(2, /*Outer=*/1, InstMix::compute(40)), MC);
  double PerQuantum = tripsPerQuantum(Probe, MC, SC, SelfLoopBlock);
  auto TripsA = static_cast<uint32_t>(1.5 * PerQuantum);
  std::vector<HandImage> Images = {
      handImage(selfLoopProgram(TripsA, /*Outer=*/1, InstMix::compute(40)),
                MC),
      handImage(selfLoopProgram(5000, /*Outer=*/1, InstMix::compute(56)),
                MC)};

  Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
  for (uint32_t I = 0; I < 2; ++I)
    M.spawn(Images[I].IP, Images[I].Cost, TunerConfig(), 5 + I, -1, 0,
            Images[I].Flat);
  M.run(M.now() + 2 * SC.Timeslice);
  ASSERT_LT(M.process(0).CompletionTime, 0);
  ASSERT_GT(M.process(1).LoopRemaining[SelfLoopBlock], 1u);
  M.run(M.now() + SC.Timeslice);
  ASSERT_GT(M.process(0).CompletionTime, 2 * SC.Timeslice);
  ASSERT_LT(M.process(0).CompletionTime, 3 * SC.Timeslice);

  Lockstep Cov = runLockstep(MC, SC, Images);
  EXPECT_GT(Cov.UnmonitoredParks, 0u);
  EXPECT_GT(Cov.FlatQuiet, 0u);
  EXPECT_GT(Cov.FastQuiet, 0u);
}

TEST(SelfLoopKernel, BackEdgesRunOutInsideATableCall) {
  // A loop of about a quantum and a half: the first quantum parks it
  // with fewer back edges left than the next quantum's budget covers,
  // so the resume runs out of back edges before the memo's trip count
  // (R0 - 1 < K), and the exit trip and the outer loop step in the same
  // call.
  MachineConfig MC = oneCoreMachine();
  SimConfig SC;
  HandImage Probe = handImage(
      selfLoopProgram(2, /*Outer=*/1, InstMix::compute(40)), MC);
  double PerQuantum = tripsPerQuantum(Probe, MC, SC, SelfLoopBlock);
  auto Trips = static_cast<uint32_t>(1.5 * PerQuantum);
  HandImage H =
      handImage(selfLoopProgram(Trips, /*Outer=*/3, InstMix::compute(40)),
                MC);

  Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
  uint32_t Pid = M.spawn(H.IP, H.Cost, TunerConfig(), 5, -1, 0, H.Flat);
  M.run(M.now() + SC.Timeslice);
  uint32_t Left = M.process(Pid).LoopRemaining[SelfLoopBlock];
  ASSERT_GT(Left, 1u);
  ASSERT_LT(Left - 1, PerQuantum);

  Lockstep Cov = runLockstep(MC, SC, {H});
  EXPECT_GT(Cov.UnmonitoredParks, 0u);
  ASSERT_EQ(Cov.Stats.size(), 1u);
  EXPECT_EQ(Cov.Stats[0].BlocksExecuted, 3u * (Trips + 2) + 1);
}

TEST(SelfLoopKernel, ResumeDeclinedWhenTheLoopExitsInsideTheQuantum) {
  // Quantum 1 enters a loop of about a quantum and a half and parks it
  // at its latch with fewer back edges left than a whole budget's trip
  // count K. Quantum 2's resume step fills the memo, finds K > R0 - 1
  // and declines, so the engine runs the rest of the activation, its
  // exit trip and the outer loop in one call, exactly as Reference.
  MachineConfig MC = oneCoreMachine();
  SimConfig SC;
  HandImage Probe = handImage(
      selfLoopProgram(2, /*Outer=*/1, InstMix::compute(40)), MC);
  double PerQuantum = tripsPerQuantum(Probe, MC, SC, SelfLoopBlock);
  auto Trips = static_cast<uint32_t>(1.5 * PerQuantum);
  HandImage H =
      handImage(selfLoopProgram(Trips, /*Outer=*/3, InstMix::compute(40)),
                MC);

  std::vector<ProcessStats> Stats;
  for (ExecEngine E : {ExecEngine::Reference, ExecEngine::Flat,
                       ExecEngine::FastReplay}) {
    SCOPED_TRACE(engineName(E));
    SimConfig One = SC;
    One.Engine = E;
    Machine M(MC, One, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(H.IP, H.Cost, TunerConfig(), 5, -1, 0, H.Flat);
    const Process &P = M.process(Pid);
    M.run(M.now() + One.Timeslice);
    uint32_t Left = P.LoopRemaining[SelfLoopBlock];
    ASSERT_GT(Left, 1u);
    ASSERT_LT(Left - 1, PerQuantum);
    if (E != ExecEngine::Reference) {
      ASSERT_EQ(P.CurGlobal, SelfLoopBlock) << "parked at the latch";
    }
    M.run(M.now() + One.Timeslice);
    EXPECT_EQ(M.advances(), 2u);
    EXPECT_EQ(M.memoResumes(), 0u)
        << "quantum 1 starts at the entry block, quantum 2 declines";
    EXPECT_GT(P.Stats.BlocksExecuted, Trips + 2u) << "ran past the exit";
    Stats.push_back(P.Stats);
  }
  expectStatsIdentical(Stats[0], Stats[1]);
  EXPECT_EQ(Stats[0].BlocksExecuted, Stats[2].BlocksExecuted);
  EXPECT_EQ(Stats[0].InstsRetired, Stats[2].InstsRetired);

  Lockstep Cov = runLockstep(MC, SC, {H});
  EXPECT_GT(Cov.UnmonitoredParks, 0u);
}

TEST(SelfLoopKernel, MonitoredResumesCarriedOverSeveralQuanta) {
  // One core and a monitored activation about ten quanta long: a mark
  // on the loop's entry edge starts the session, one on its exit edge
  // ends it and hands the tuner its sample. Every quantum inside the
  // session is one monitored memo resume in Flat and FastReplay, which
  // add the memo's K trips to MonCycles in closed form, quantum after
  // quantum. MonCycles and the tuner's samples must stay bit-identical
  // to Reference's stepping after every quantum.
  MachineConfig MC = oneCoreMachine();
  SimConfig SC;
  const uint32_t Trips = 4000;
  HandImage H = handImage(
      selfLoopProgram(Trips, /*Outer=*/2, InstMix::compute(48)), MC,
      {{0, 0, 0, MarkPoint::Edge, 0},
       {0, SelfLoopBlock, 1, MarkPoint::Edge, 1}},
      /*NumTypes=*/2);
  ASSERT_TRUE(isKernelLoop(*H.Flat, SelfLoopBlock));
  ASSERT_GT(Trips, 5 * tripsPerQuantum(H, MC, SC, SelfLoopBlock));

  std::vector<std::unique_ptr<Machine>> Ms;
  for (ExecEngine E :
       {ExecEngine::Reference, ExecEngine::Flat, ExecEngine::FastReplay}) {
    SimConfig One = SC;
    One.Engine = E;
    Ms.push_back(std::make_unique<Machine>(
        MC, One, std::make_unique<ObliviousScheduler>()));
    Ms.back()->spawn(H.IP, H.Cost, TunerConfig(), 5, -1, 0, H.Flat);
  }
  const Process &R = Ms[0]->process(0);
  // Consecutive quanta each served by one monitored memo resume, per
  // flat-image engine; and the longest such run.
  uint32_t Run[2] = {0, 0};
  uint32_t Longest[2] = {0, 0};
  bool Sampled = false;
  for (uint32_t Quantum = 1; R.CompletionTime < 0; ++Quantum) {
    SCOPED_TRACE("quantum " + std::to_string(Quantum));
    bool WasMonitored[2];
    uint64_t Resumes[2];
    for (int I = 0; I < 2; ++I) {
      WasMonitored[I] = Ms[I + 1]->process(0).MonActive;
      Resumes[I] = Ms[I + 1]->memoResumes();
    }
    for (auto &M : Ms)
      M->run(M->now() + SC.Timeslice);
    for (int I = 0; I < 2; ++I) {
      const Process &F = Ms[I + 1]->process(0);
      EXPECT_EQ(R.MonActive, F.MonActive);
      EXPECT_EQ(R.MonInsts, F.MonInsts);
      EXPECT_EQ(R.MonCycles, F.MonCycles);
      EXPECT_EQ(R.Stats.InstsRetired, F.Stats.InstsRetired);
      EXPECT_EQ(R.LoopRemaining, F.LoopRemaining);
      expectTunersIdentical(R.Tuner, F.Tuner);
      bool MonitoredResume = WasMonitored[I] && F.MonActive &&
                             Ms[I + 1]->memoResumes() == Resumes[I] + 1;
      Run[I] = MonitoredResume ? Run[I] + 1 : 0;
      Longest[I] = std::max(Longest[I], Run[I]);
    }
    expectStatsIdentical(R.Stats, Ms[1]->process(0).Stats);
    if (::testing::Test::HasFailure())
      return;
    Sampled = Sampled || R.Tuner.measuredIpc(0, 0) > 0;
  }
  EXPECT_GE(Longest[0], 3u);
  EXPECT_GE(Longest[1], 3u);
  EXPECT_TRUE(Sampled) << "the session's sample reached the tuner";
  EXPECT_EQ(Ms[0]->memoResumes(), 0u);
}

TEST(SelfLoopKernel, OnlyTheFlatEnginesResumeFromTheMemo) {
  // Reference is the oracle and always steps; Flat and FastReplay serve
  // whole-quantum resumes of a long phase loop from the memo. The three
  // take the same advances, with the same results.
  MachineConfig MC = oneCoreMachine();
  SimConfig SC;
  HandImage H = handImage(
      selfLoopProgram(5000, /*Outer=*/3, InstMix::compute(64)), MC);
  ASSERT_GT(5000, 3 * tripsPerQuantum(H, MC, SC, SelfLoopBlock));
  uint64_t Advances[3];
  uint64_t Resumes[3];
  std::vector<ProcessStats> Stats;
  int I = 0;
  for (ExecEngine E : {ExecEngine::Reference, ExecEngine::Flat,
                       ExecEngine::FastReplay}) {
    SimConfig One = SC;
    One.Engine = E;
    Machine M(MC, One, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(H.IP, H.Cost, TunerConfig(), 5, -1, 0, H.Flat);
    while (M.process(Pid).CompletionTime < 0)
      M.run(M.now() + One.Timeslice);
    Advances[I] = M.advances();
    Resumes[I] = M.memoResumes();
    Stats.push_back(M.process(Pid).Stats);
    ++I;
  }
  EXPECT_EQ(Resumes[0], 0u);
  EXPECT_GT(Resumes[1], 0u);
  EXPECT_GT(Resumes[2], 0u);
  EXPECT_EQ(Resumes[1], Resumes[2]);
  EXPECT_LT(Resumes[1], Advances[1]);
  EXPECT_EQ(Advances[0], Advances[1]);
  EXPECT_EQ(Advances[0], Advances[2]);
  expectStatsIdentical(Stats[0], Stats[1]);

  Lockstep Cov = runLockstep(MC, SC, {H});
  EXPECT_GT(Cov.FlatResumes, 0u);
  EXPECT_GT(Cov.FastResumes, 0u);
}

TEST(SelfLoopKernel, MonitoredResumeAtQuantumStart) {
  // One core, so every resume starts the quantum from zero used cycles.
  // The first activation is monitored (a mark on the loop's entry edge
  // starts the session, one on its exit edge ends it): those resumes
  // take U from the memo and add the same trips to MonCycles in closed
  // form. MonCycles grows by a quantum's cycles per resume, so some
  // resume carries it across a power of two. Later activations, sampled
  // already, resume unmonitored.
  MachineConfig MC = oneCoreMachine();
  SimConfig SC;
  HandImage H = handImage(
      selfLoopProgram(4000, /*Outer=*/4, InstMix::compute(48)), MC,
      {{0, 0, 0, MarkPoint::Edge, 0},
       {0, SelfLoopBlock, 1, MarkPoint::Edge, 1}},
      /*NumTypes=*/2);
  ASSERT_TRUE(isKernelLoop(*H.Flat, SelfLoopBlock));
  ASSERT_GT(4000, tripsPerQuantum(H, MC, SC, SelfLoopBlock));
  Lockstep Cov = runLockstep(MC, SC, {H});
  EXPECT_GT(Cov.MonitoredParks, 0u);
  EXPECT_GT(Cov.MonitoredBinadeCrossings, 0u);
  EXPECT_GT(Cov.UnmonitoredParks, 0u);
  ASSERT_EQ(Cov.Stats.size(), 1u);
  EXPECT_GT(Cov.Stats[0].MonitorSessions, 0u);
}

TEST(SelfLoopKernel, MonitoredEntryMidQuantum) {
  // A monitored activation entered after other work in the same call
  // (Used != 0): the mark on the loop's entry edge starts the session,
  // and the whole short activation runs in the kernel call that
  // follows, from MonCycles = 0 and a nonzero Used. One core, and
  // activations far shorter than a quantum, so every activation after
  // the first is entered mid-quantum.
  MachineConfig MC = oneCoreMachine();
  SimConfig SC;
  const uint32_t Trips = 37;
  const uint32_t Outer = 400;
  HandImage H = handImage(
      selfLoopProgram(Trips, Outer, InstMix::compute(48)), MC,
      {{0, 0, 0, MarkPoint::Edge, 0},
       {0, SelfLoopBlock, 1, MarkPoint::Edge, 1}},
      /*NumTypes=*/2);
  ASSERT_TRUE(isKernelLoop(*H.Flat, SelfLoopBlock));
  ASSERT_LT(10 * Trips, tripsPerQuantum(H, MC, SC, SelfLoopBlock));
  Lockstep Cov = runLockstep(MC, SC, {H});
  ASSERT_EQ(Cov.Stats.size(), 1u);
  EXPECT_GT(Cov.Stats[0].MonitorSessions, 1u);
  EXPECT_EQ(Cov.Stats[0].BlocksExecuted, Outer * (Trips + 2) + 1);
}

TEST(SelfLoopKernel, CoreTypesAndProcessesShareOneTable) {
  // Two core types of different frequency and so different budgets; two
  // processes with different images but equal body costs. Each process
  // keeps its own memo, refilled whenever its row or budget changes:
  // a memo filled on one core type must never serve the other's budget.
  MachineConfig MC;
  MC.CoreTypes = {{"slow", 1.6e6, 4096}, {"fast", 2.4e6, 4096}};
  MC.Cores = {{0, 0}, {1, 1}};
  // Miss stalls cost Frequency * MemLatency cycles; without them a
  // body's cycles do not depend on the core type.
  MC.MemLatency = 0;
  SimConfig SC;
  std::vector<HandImage> Images;
  for (uint32_t Trips : {6000u, 9000u})
    Images.push_back(handImage(
        selfLoopProgram(Trips, /*Outer=*/2, InstMix::compute(64)), MC));
  double Body = bodyCycles(Images[0], SelfLoopBlock, 0);
  for (const HandImage &H : Images)
    for (uint32_t Ct = 0; Ct < 2; ++Ct)
      ASSERT_EQ(bodyCycles(H, SelfLoopBlock, Ct), Body)
          << "the body must cost the same everywhere";
  Lockstep Cov = runLockstep(MC, SC, Images);
  EXPECT_GT(Cov.UnmonitoredParks, 0u);
  EXPECT_GT(Cov.FlatQuiet, 0u);
  EXPECT_GT(Cov.FastQuiet, 0u);
}

TEST(ParallelRunner, BitIdenticalToSerialRuns) {
  // Replicated workloads through the thread pool must reproduce the
  // serial loop exactly, in input order.
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const std::string &Name : {"164.gzip", "179.art", "473.astar"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Base = prepareSuite(Programs, MC, TechniqueSpec::baseline());
  PreparedSuite Tuned = prepareSuite(Programs, MC, loopTechnique());

  std::vector<Workload> Workloads;
  for (uint64_t Seed : {5ull, 6ull, 7ull, 8ull})
    Workloads.push_back(
        Workload::random(4, 64, static_cast<uint32_t>(Programs.size()),
                         Seed));
  SimConfig SC;
  std::vector<WorkloadJob> Jobs;
  for (size_t I = 0; I < Workloads.size(); ++I) {
    const PreparedSuite &Suite = I % 2 ? Tuned : Base;
    Jobs.push_back({&Suite, &Workloads[I], &MC, SC, 20.0, nullptr});
  }

  std::vector<RunResult> Parallel = runWorkloads(Jobs);
  ASSERT_EQ(Parallel.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    RunResult Serial =
        runWorkload(*Jobs[I].Suite, *Jobs[I].W, MC, SC, Jobs[I].Horizon);
    EXPECT_EQ(Serial.InstructionsRetired, Parallel[I].InstructionsRetired);
    EXPECT_EQ(Serial.TotalMarks, Parallel[I].TotalMarks);
    EXPECT_EQ(Serial.TotalCycles, Parallel[I].TotalCycles);
    ASSERT_EQ(Serial.Completed.size(), Parallel[I].Completed.size());
    for (size_t J = 0; J < Serial.Completed.size(); ++J) {
      EXPECT_EQ(Serial.Completed[J].Completion,
                Parallel[I].Completed[J].Completion);
      expectStatsIdentical(Serial.Completed[J].Stats,
                           Parallel[I].Completed[J].Stats);
    }
  }
}

TEST(ParallelRunner, IsolatedRuntimesMatchManualLoop) {
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const std::string &Name : {"164.gzip", "179.art"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  std::vector<double> Pooled = isolatedRuntimes(Programs, MC, SC);
  PreparedSuite Suite =
      prepareSuite(Programs, MC, TechniqueSpec::baseline());
  ASSERT_EQ(Pooled.size(), Programs.size());
  for (uint32_t I = 0; I < Programs.size(); ++I) {
    CompletedJob Job = runIsolated(Suite, I, MC, SC);
    EXPECT_EQ(Pooled[I], Job.Completion - Job.Arrival);
  }
}

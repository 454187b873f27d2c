//===- tests/costmodel_test.cpp - analytic cost model tests ---------------===//

#include "analysis/ReuseDistance.h"
#include "ir/IRBuilder.h"
#include "sim/CostModel.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace pbt;

namespace {

Program twoBlockProgram() {
  IRBuilder B("cm");
  uint32_t Main = B.createProc("main");
  uint32_t Comp = B.addBlock(Main);
  B.appendMix(Main, Comp, InstMix::compute(200));
  uint32_t Mem = B.addBlock(Main);
  B.appendMix(Main, Mem, InstMix::memory(200, 100000, 0.10));
  B.setJump(Main, Comp, Mem);
  B.setRet(Main, Mem);
  return B.take();
}

} // namespace

TEST(MachineConfig, QuadShape) {
  MachineConfig M = MachineConfig::quadAsymmetric();
  EXPECT_EQ(M.numCores(), 4u);
  EXPECT_EQ(M.numCoreTypes(), 2u);
  EXPECT_GT(M.CoreTypes[0].Frequency, M.CoreTypes[1].Frequency);
  EXPECT_EQ(M.maxGroupSize(), 2u);
  EXPECT_EQ(M.coreMaskOfType(0), 0b0011u);
  EXPECT_EQ(M.coreMaskOfType(1), 0b1100u);
  EXPECT_EQ(M.allCoresMask(), 0b1111u);
}

TEST(MachineConfig, VariantShapes) {
  EXPECT_EQ(MachineConfig::threeCore().numCores(), 3u);
  EXPECT_EQ(MachineConfig::symmetricQuad().numCoreTypes(), 1u);
  EXPECT_EQ(MachineConfig::octoAsymmetric().numCores(), 8u);
}

TEST(MachineConfig, MissPenaltyScalesWithFrequency) {
  MachineConfig M = MachineConfig::quadAsymmetric();
  EXPECT_GT(M.missPenaltyCycles(0), M.missPenaltyCycles(1));
  EXPECT_NEAR(M.missPenaltyCycles(0) / M.missPenaltyCycles(1),
              M.CoreTypes[0].Frequency / M.CoreTypes[1].Frequency, 1e-9);
}

TEST(CostModel, ComputeBlockNearlyTypeInvariantCycles) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  double Fast = Cost.blockCycles(0, 0, 0, 1);
  double Slow = Cost.blockCycles(0, 0, 1, 1);
  // Only the ambient traffic differs: within a couple percent.
  EXPECT_NEAR(Fast / Slow, 1.0, 0.03);
}

TEST(CostModel, MemoryBlockCostlierOnFastType) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  EXPECT_GT(Cost.blockCycles(0, 1, 0, 1), Cost.blockCycles(0, 1, 1, 1));
}

TEST(CostModel, IpcSystematicallyLowerOnFastType) {
  // The ambient-traffic tilt: every block's IPC is (weakly) lower on the
  // fast core type.
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  for (uint32_t Block = 0; Block < 2; ++Block)
    EXPECT_LT(Cost.blockIpc(0, Block, 0), Cost.blockIpc(0, Block, 1));
}

TEST(CostModel, MemoryIpcGapExceedsComputeGap) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  double CompGap = Cost.blockIpc(0, 0, 1) - Cost.blockIpc(0, 0, 0);
  double MemGap = Cost.blockIpc(0, 1, 1) - Cost.blockIpc(0, 1, 0);
  EXPECT_GT(MemGap, CompGap * 3);
  // Calibration: the memory gap clears the paper's delta of 0.2; the
  // compute gap stays well below it.
  EXPECT_GT(MemGap, 0.2);
  EXPECT_LT(CompGap, 0.1);
}

TEST(CostModel, SharingIncreasesCycles) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  // 100000-line stream always misses in a 65536-line L2, so sharing does
  // not change it; use a footprint that fits alone but not shared.
  IRBuilder B("fit");
  uint32_t Main = B.createProc("main");
  uint32_t Mem = B.addBlock(Main);
  B.appendMix(Main, Mem, InstMix::memory(200, 50000, 0.2));
  B.setRet(Main, Mem);
  Program FitProg = B.take();
  CostModel FitCost(FitProg, MachineConfig::quadAsymmetric());
  double Alone = FitCost.blockCycles(0, 0, 0, 1);
  double Shared = FitCost.blockCycles(0, 0, 0, 2);
  EXPECT_GT(Shared, Alone);
}

TEST(CostModel, CyclesMonotonicInSharers) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  for (uint32_t Block = 0; Block < 2; ++Block)
    for (uint32_t Ct = 0; Ct < 2; ++Ct)
      EXPECT_LE(Cost.blockCycles(0, Block, Ct, 1),
                Cost.blockCycles(0, Block, Ct, 2));
}

TEST(CostModel, InstructionCountsMatchBlocks) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  EXPECT_EQ(Cost.blockInsts(0, 0), Prog.Procs[0].Blocks[0].size());
  EXPECT_EQ(Cost.blockInsts(0, 1), Prog.Procs[0].Blocks[1].size());
}

TEST(CostModel, CyclesToSeconds) {
  Program Prog = twoBlockProgram();
  MachineConfig M = MachineConfig::quadAsymmetric();
  CostModel Cost(Prog, M);
  EXPECT_DOUBLE_EQ(Cost.cyclesToSeconds(M.CoreTypes[0].Frequency, 0), 1.0);
}

TEST(OracleTyping, TypesByBehaviouralGap) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  ProgramTyping Typing = computeOracleTyping(Prog, Cost);
  EXPECT_EQ(Typing.NumTypes, 2u);
  EXPECT_EQ(Typing.typeOf(0, 0), 0u); // Compute.
  EXPECT_EQ(Typing.typeOf(0, 1), 1u); // Memory.
}

TEST(OracleTyping, SymmetricMachineAllTypeZero) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::symmetricQuad());
  ProgramTyping Typing = computeOracleTyping(Prog, Cost);
  for (const auto &Proc : Typing.TypeOf)
    for (uint32_t T : Proc)
      EXPECT_EQ(T, 0u);
}

TEST(OracleTyping, ThresholdControlsSensitivity) {
  Program Prog = twoBlockProgram();
  CostModel Cost(Prog, MachineConfig::quadAsymmetric());
  // Absurdly high threshold: nothing is memory-typed.
  ProgramTyping Strict = computeOracleTyping(Prog, Cost, 10.0);
  EXPECT_EQ(Strict.typeOf(0, 1), 0u);
}

TEST(CpiTable, KindMapping) {
  CpiTable Cpi;
  EXPECT_DOUBLE_EQ(Cpi.of(InstKind::Load), Cpi.Mem);
  EXPECT_DOUBLE_EQ(Cpi.of(InstKind::Store), Cpi.Mem);
  EXPECT_DOUBLE_EQ(Cpi.of(InstKind::Call), Cpi.CallRet);
  EXPECT_GT(Cpi.of(InstKind::Syscall), Cpi.of(InstKind::IntAlu));
}

//===----------------------------------------------------------------------===//
// CostModelTables: the one-pass tables equal a stepwise reference
//===----------------------------------------------------------------------===//

namespace {

/// The cost tables built the direct way, in serializeTables() layout:
/// per block, the base CPIs summed through CpiTable::of in instruction
/// order, the miss rate from the full LRU replay of computeBlockReuse(),
/// and the stall formula. Assumes Procs[i].Id == i and Blocks[j].Id == j.
std::string referenceTables(const Program &Prog, const MachineConfig &M,
                            const CpiTable &Cpi = CpiTable()) {
  uint32_t MaxSharers = std::max(1u, M.maxGroupSize());
  BinaryWriter W;
  W.u32(MaxSharers);
  W.u32(static_cast<uint32_t>(Prog.Procs.size()));
  uint32_t Offset = 0;
  for (const Procedure &P : Prog.Procs) {
    W.u32(Offset);
    Offset += static_cast<uint32_t>(P.Blocks.size());
  }
  W.u32(Offset);
  for (const Procedure &P : Prog.Procs)
    for (const BasicBlock &BB : P.Blocks) {
      double Base = 0;
      for (const Instruction &I : BB.Insts)
        Base += Cpi.of(I.Kind);
      auto Insts = static_cast<uint32_t>(BB.size());
      auto MemOps = static_cast<uint32_t>(BB.memOpCount());
      ReuseProfile Reuse = computeBlockReuse(BB);
      W.u32(Insts);
      W.u32(MemOps);
      W.f64(Base);
      W.u32(M.numCoreTypes());
      for (uint32_t Ct = 0; Ct < M.numCoreTypes(); ++Ct) {
        W.u32(MaxSharers);
        for (uint32_t Sharers = 1; Sharers <= MaxSharers; ++Sharers) {
          uint32_t EffLines = std::max(1u, M.cacheLines(Ct) / Sharers);
          W.f64((Reuse.missRate(EffLines) * static_cast<double>(MemOps) +
                 Cpi.AmbientMissPerInst * static_cast<double>(Insts)) *
                M.missPenaltyCycles(Ct));
        }
      }
    }
  return W.buffer();
}

std::string tablesOf(const Program &Prog, const MachineConfig &M,
                     const CpiTable &Cpi = CpiTable()) {
  BinaryWriter W;
  CostModel(Prog, M, Cpi).serializeTables(W);
  return W.buffer();
}

/// quadAsymmetric with every core type's L2 cut to \p KB KiB: shares of
/// 8-32 lines, below many suite blocks' distinct-line counts, so the
/// model's LRU-replay fallback runs.
MachineConfig smallL2(uint32_t KB) {
  MachineConfig M = MachineConfig::quadAsymmetric();
  for (CoreTypeDesc &Ct : M.CoreTypes)
    Ct.L2CacheKB = KB;
  return M;
}

std::vector<MachineConfig> tableMachines() {
  return {MachineConfig::quadAsymmetric(), MachineConfig::threeCore(),
          MachineConfig::symmetricQuad(), MachineConfig::octoAsymmetric(),
          smallL2(1), smallL2(2)};
}

/// A block over exactly \p Distinct lines, \p Singles of them touched
/// once and the rest two to four times, shuffled and interleaved with
/// non-memory instructions of every kind.
BasicBlock randomBlock(Rng &Gen, uint32_t Distinct, uint32_t Singles,
                       uint32_t StreamWorkingSet) {
  std::vector<int32_t> Refs;
  for (uint32_t L = 0; L < Distinct; ++L) {
    uint32_t Times = L < Singles ? 1 : 2 + static_cast<uint32_t>(
                                               Gen.nextBelow(3));
    for (uint32_t T = 0; T < Times; ++T)
      Refs.push_back(static_cast<int32_t>(L));
  }
  for (size_t I = Refs.size(); I > 1; --I)
    std::swap(Refs[I - 1], Refs[Gen.nextBelow(I)]);
  const InstKind Plain[] = {InstKind::IntAlu, InstKind::FpAlu,
                            InstKind::Branch, InstKind::Call,
                            InstKind::Ret,    InstKind::Syscall};
  BasicBlock BB;
  BB.StreamWorkingSet = StreamWorkingSet;
  for (int32_t Ref : Refs) {
    while (Gen.nextBelow(2) == 0)
      BB.Insts.push_back({Plain[Gen.nextBelow(6)], 3, -1, -1});
    BB.Insts.push_back(Gen.nextBelow(2) ? Instruction::load(Ref)
                                        : Instruction::store(Ref));
  }
  return BB;
}

/// One procedure holding \p Blocks (ids renumbered).
Program programOf(std::vector<BasicBlock> Blocks) {
  Program Prog;
  Prog.Name = "tables";
  Prog.Procs.resize(1);
  Prog.Procs[0].Blocks = std::move(Blocks);
  for (uint32_t B = 0; B < Prog.Procs[0].Blocks.size(); ++B)
    Prog.Procs[0].Blocks[B].Id = B;
  return Prog;
}

/// Every effective-line count \p M's stall columns use.
std::vector<uint32_t> effLinesOf(const MachineConfig &M) {
  std::vector<uint32_t> Out;
  for (uint32_t Ct = 0; Ct < M.numCoreTypes(); ++Ct)
    for (uint32_t S = 1; S <= std::max(1u, M.maxGroupSize()); ++S)
      Out.push_back(std::max(1u, M.cacheLines(Ct) / S));
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

} // namespace

TEST(CostModelTables, SuiteMatchesStepwiseReference) {
  std::vector<Program> Suite = buildSuite();
  ASSERT_FALSE(Suite.empty());
  for (const MachineConfig &M : tableMachines())
    for (const Program &Prog : Suite)
      EXPECT_EQ(tablesOf(Prog, M), referenceTables(Prog, M))
          << Prog.Name << " on " << M.numCores() << " cores, "
          << M.CoreTypes[0].L2CacheKB << " KiB L2";
}

TEST(CostModelTables, SmallL2ReachesTheFallback) {
  // The 1 KiB variant must put some suite block past its cache share,
  // or the suite check above never runs the LRU-replay branch.
  MachineConfig M = smallL2(1);
  uint32_t MinEff = effLinesOf(M).front();
  size_t Beyond = 0;
  for (const Program &Prog : buildSuite())
    for (const Procedure &P : Prog.Procs)
      for (const BasicBlock &BB : P.Blocks) {
        std::vector<int32_t> Lines;
        for (const Instruction &I : BB.Insts)
          if (isMemoryKind(I.Kind))
            Lines.push_back(I.MemRef);
        std::sort(Lines.begin(), Lines.end());
        Lines.erase(std::unique(Lines.begin(), Lines.end()), Lines.end());
        Beyond += Lines.size() > MinEff ? 1 : 0;
      }
  EXPECT_GT(Beyond, 0u);
}

TEST(CostModelTables, RandomBlocksAtTheBoundaries) {
  // Distinct-line counts and stream working sets one below, at and one
  // above every effective-line count: the edges of both the closed
  // form's streaming test and its fallback test.
  Rng Gen(0xC057AB1E);
  for (const MachineConfig &M : tableMachines()) {
    std::vector<BasicBlock> Blocks;
    for (uint32_t Eff : effLinesOf(M)) {
      if (Eff > 64)
        continue; // Preset shares: covered by the suite check.
      for (uint32_t Distinct : {Eff - 1, Eff, Eff + 1})
        for (uint32_t Stream : {0u, Eff - 1, Eff, Eff + 1})
          for (int Rep = 0; Rep < 3; ++Rep) {
            uint32_t Singles =
                static_cast<uint32_t>(Gen.nextBelow(Distinct + 1));
            Blocks.push_back(randomBlock(Gen, Distinct, Singles, Stream));
          }
    }
    if (Blocks.empty())
      continue;
    Program Prog = programOf(std::move(Blocks));
    EXPECT_EQ(tablesOf(Prog, M), referenceTables(Prog, M))
        << M.CoreTypes[0].L2CacheKB << " KiB L2";
  }
}

TEST(CostModelTables, CyclicBlockOneLinePastTheShare) {
  // Every line twice, in the same order: each steady-state distance is
  // Distinct - 1, so with Distinct == EffLines + 1 every access misses,
  // which no streaming-only count can produce.
  MachineConfig M = smallL2(1);
  std::vector<BasicBlock> Blocks;
  for (uint32_t Eff : effLinesOf(M)) {
    BasicBlock BB;
    for (int Pass = 0; Pass < 2; ++Pass)
      for (uint32_t L = 0; L <= Eff; ++L)
        BB.Insts.push_back(Instruction::load(static_cast<int32_t>(L)));
    EXPECT_DOUBLE_EQ(computeBlockReuse(BB).missRate(Eff), 1.0);
    Blocks.push_back(std::move(BB));
  }
  Program Prog = programOf(std::move(Blocks));
  EXPECT_EQ(tablesOf(Prog, M), referenceTables(Prog, M));
}

TEST(CostModelTables, CustomCpiTable) {
  CpiTable Cpi;
  Cpi.IntAlu = 0.3;
  Cpi.FpAlu = 0.7;
  Cpi.Mem = 0.1;
  Cpi.Branch = 0.9;
  Cpi.CallRet = 1.3;
  Cpi.Syscall = 17.0;
  Cpi.AmbientMissPerInst = 1e-3;
  for (const Program &Prog : buildSuite())
    EXPECT_EQ(tablesOf(Prog, MachineConfig::quadAsymmetric(), Cpi),
              referenceTables(Prog, MachineConfig::quadAsymmetric(), Cpi))
        << Prog.Name;
}

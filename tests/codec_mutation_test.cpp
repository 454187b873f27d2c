//===- tests/codec_mutation_test.cpp - byte decoder robustness ------------===//
//
// Seeded mutation loops over two byte decoders: the canonical RunResult
// codec (exp/Shard.h, deserializeRunResult) and the cost tables inside
// `pbt-prog-v3` store entries (CostModel::deserializeTables). Inputs are
// valid encodings with bytes flipped, cut at every length, or spliced
// from two encodings. Every input must either
// be rejected or decode to a value whose re-encoding reproduces exactly
// the bytes the decoder consumed; the sanitizer jobs run this suite, so
// neither outcome may touch memory out of bounds or hit undefined
// behaviour.
//
//===----------------------------------------------------------------------===//

#include "exp/Shard.h"
#include "ir/IRBuilder.h"
#include "sim/CostModel.h"
#include "support/Binary.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

using namespace pbt;

namespace {

/// Decodes one value from the reader; on success re-encodes it into the
/// writer and returns true.
using Codec = std::function<bool(BinaryReader &, BinaryWriter &)>;

/// What a mutation loop saw.
struct Outcome {
  uint32_t Accepted = 0;
  uint32_t Rejected = 0;
};

/// Decodes \p Bytes with \p Decode and, when it is accepted, checks that
/// the re-encoding equals the consumed prefix.
void check(const Codec &Decode, const std::string &Bytes, Outcome &Out) {
  BinaryReader R(Bytes);
  BinaryWriter W;
  if (!Decode(R, W)) {
    ++Out.Rejected;
    return;
  }
  ++Out.Accepted;
  size_t Consumed = Bytes.size() - R.remaining();
  EXPECT_EQ(W.buffer(), Bytes.substr(0, Consumed))
      << "accepted input does not round-trip (" << Bytes.size() << " bytes)";
}

/// Flips one to three bytes of a seeded pick of \p Valid, \p Trials
/// times.
Outcome flipLoop(const Codec &Decode, const std::vector<std::string> &Valid,
                 uint64_t Seed, uint32_t Trials) {
  Rng Gen(Seed);
  Outcome Out;
  for (uint32_t T = 0; T < Trials && !::testing::Test::HasFailure(); ++T) {
    std::string Bytes = Valid[Gen.nextBelow(Valid.size())];
    uint64_t Flips = 1 + Gen.nextBelow(3);
    for (uint64_t F = 0; F < Flips; ++F)
      Bytes[Gen.nextBelow(Bytes.size())] ^=
          static_cast<char>(1 + Gen.nextBelow(255));
    check(Decode, Bytes, Out);
  }
  return Out;
}

/// Every strict prefix of every encoding in \p Valid.
Outcome truncationLoop(const Codec &Decode,
                       const std::vector<std::string> &Valid) {
  Outcome Out;
  for (const std::string &Bytes : Valid)
    for (size_t Len = 0; Len < Bytes.size(); ++Len)
      check(Decode, Bytes.substr(0, Len), Out);
  return Out;
}

/// A seeded prefix of one encoding joined to a seeded suffix of another
/// (or the same), \p Trials times.
Outcome spliceLoop(const Codec &Decode, const std::vector<std::string> &Valid,
                   uint64_t Seed, uint32_t Trials) {
  Rng Gen(Seed);
  Outcome Out;
  for (uint32_t T = 0; T < Trials && !::testing::Test::HasFailure(); ++T) {
    const std::string &A = Valid[Gen.nextBelow(Valid.size())];
    const std::string &B = Valid[Gen.nextBelow(Valid.size())];
    size_t Cut = Gen.nextBelow(A.size() + 1);
    size_t From = Gen.nextBelow(B.size() + 1);
    check(Decode, A.substr(0, Cut) + B.substr(From), Out);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// RunResult (the canonical byte form)
//===----------------------------------------------------------------------===//

RunResult randomRun(uint64_t Seed, uint32_t Jobs, uint32_t Cores,
                    uint32_t Types) {
  Rng Gen(Seed);
  RunResult Run;
  Run.Horizon = 100 * Gen.nextDouble();
  Run.InstructionsRetired = Gen.next();
  Run.CompletedCount = Jobs;
  for (uint32_t I = 0; I < Jobs; ++I) {
    CompletedJob Job;
    Job.Bench = static_cast<uint32_t>(Gen.nextBelow(20));
    Job.Slot = I % 3 == 0 ? -1 : static_cast<int32_t>(I);
    Job.Arrival = Gen.nextDouble();
    Job.Admitted = Job.Arrival + Gen.nextDouble();
    Job.Completion = Job.Admitted + 10 * Gen.nextDouble();
    Job.Isolated = Gen.nextDouble();
    Job.Stats.InstsRetired = Gen.next();
    Job.Stats.BlocksExecuted = Gen.nextBelow(1u << 30);
    Job.Stats.CyclesConsumed = 1e9 * Gen.nextDouble();
    Job.Stats.CpuSeconds = Gen.nextDouble();
    Job.Stats.CoreSwitches = Gen.nextBelow(1000);
    Job.Stats.MarksFired = Gen.nextBelow(1000);
    Job.Stats.MonitorSessions = Gen.nextBelow(100);
    Job.Stats.CounterWaits = Gen.nextBelow(10);
    Job.Stats.OverheadCycles = 1e4 * Gen.nextDouble();
    Run.Completed.push_back(Job);
  }
  Run.TotalSwitches = Gen.nextBelow(1u << 20);
  Run.TotalMarks = Gen.nextBelow(1u << 20);
  Run.CounterWaits = Gen.nextBelow(100);
  Run.TotalOverheadCycles = 1e6 * Gen.nextDouble();
  Run.TotalCycles = 1e12 * Gen.nextDouble();
  for (uint32_t C = 0; C < Cores; ++C)
    Run.CoreBusy.push_back(Gen.nextDouble());
  for (uint32_t T = 0; T < Types; ++T) {
    Run.InstsByType.push_back(Gen.next());
    Run.CyclesByType.push_back(1e9 * Gen.nextDouble());
  }
  return Run;
}

/// Values a decimal or lossy codec would break: signed zeros, the
/// smallest denormal, a negative slot, sums with no short decimal form.
RunResult edgeRun() {
  RunResult Run;
  Run.Horizon = 400.125;
  Run.InstructionsRetired = 123456789012345ull;
  Run.CompletedCount = 3;
  for (int I = 0; I < 3; ++I) {
    CompletedJob Job;
    Job.Bench = static_cast<uint32_t>(I);
    Job.Slot = I - 1;
    Job.Arrival = I * 0.1;
    Job.Admitted = I * 0.1 + 1e-9;
    Job.Completion = 1.0 / 3.0 * (I + 1);
    Job.Isolated = I == 0 ? 0.0 : 5e-324;
    Job.Stats.InstsRetired = 7u + static_cast<uint64_t>(I);
    Job.Stats.BlocksExecuted = 11;
    Job.Stats.CyclesConsumed = 1e18;
    Job.Stats.CpuSeconds = -0.0;
    Job.Stats.CoreSwitches = 2;
    Job.Stats.MarksFired = 3;
    Job.Stats.MonitorSessions = 4;
    Job.Stats.CounterWaits = 5;
    Job.Stats.OverheadCycles = 0.1 + 0.2;
    Run.Completed.push_back(Job);
  }
  Run.TotalSwitches = 17;
  Run.TotalMarks = 19;
  Run.CounterWaits = 23;
  Run.TotalOverheadCycles = 1.0 / 7.0;
  Run.TotalCycles = 3.0e9;
  Run.CoreBusy = {0.5, 0.25, 1.0 / 3.0, -0.0};
  return Run;
}

std::vector<std::string> runEncodings() {
  std::vector<std::string> Out;
  for (const RunResult &Run :
       {RunResult(), randomRun(1, 1, 1, 1), randomRun(2, 4, 4, 2),
        randomRun(3, 9, 2, 3), edgeRun()}) {
    BinaryWriter W;
    exp::serializeRunResult(W, Run);
    Out.push_back(W.buffer());
  }
  return Out;
}

bool decodeRun(BinaryReader &R, BinaryWriter &W) {
  RunResult Run;
  if (!exp::deserializeRunResult(R, Run))
    return false;
  exp::serializeRunResult(W, Run);
  return true;
}

//===----------------------------------------------------------------------===//
// CostModel tables (store prog entries)
//===----------------------------------------------------------------------===//

/// Two procedures: compute, memory and syscall blocks, and a call.
Program tableProgram() {
  IRBuilder B("tables");
  uint32_t Main = B.createProc("main");
  uint32_t Leaf = B.createProc("leaf");
  uint32_t Comp = B.addBlock(Main);
  B.appendMix(Main, Comp, InstMix::compute(12));
  B.appendCall(Main, Comp, Leaf);
  uint32_t Mem = B.addBlock(Main);
  B.appendMix(Main, Mem, InstMix::memory(16, 6, 0.25));
  B.appendSyscall(Main, Mem);
  B.setJump(Main, Comp, Mem);
  B.setRet(Main, Mem);
  uint32_t Body = B.addBlock(Leaf);
  B.appendMix(Leaf, Body, InstMix::memory(10, 3));
  B.setRet(Leaf, Body);
  return B.take();
}

/// The cost-table codec for one (program, machine) pair, and valid
/// encodings of it under three CPI tables (splices cross them).
struct TableCodec {
  Program Prog = tableProgram();
  MachineConfig Machine;

  explicit TableCodec(MachineConfig M) : Machine(std::move(M)) {}

  std::vector<std::string> encodings() const {
    std::vector<std::string> Out;
    for (double Scale : {1.0, 1.5, 3.0}) {
      CpiTable Cpi;
      Cpi.IntAlu *= Scale;
      Cpi.Mem *= Scale;
      Cpi.AmbientMissPerInst *= Scale;
      BinaryWriter W;
      CostModel(Prog, Machine, Cpi).serializeTables(W);
      Out.push_back(W.buffer());
    }
    return Out;
  }

  Codec codec() const {
    return [this](BinaryReader &R, BinaryWriter &W) {
      CostModel M = CostModel::deserializeTables(R, Machine, Prog);
      if (R.failed())
        return false;
      M.serializeTables(W);
      // An accepted model must also be safe to query at every shape.
      for (const Procedure &P : Prog.Procs)
        for (const BasicBlock &BB : P.Blocks)
          for (uint32_t Ct = 0; Ct < Machine.numCoreTypes(); ++Ct)
            (void)M.blockCycles(P.Id, BB.Id, Ct, M.maxSharers());
      return true;
    };
  }
};

/// quadAsymmetric with all four cores on one L2: four sharer levels.
MachineConfig oneL2Quad() {
  MachineConfig M = MachineConfig::quadAsymmetric();
  for (CoreDesc &C : M.Cores)
    C.L2Group = 0;
  return M;
}

/// quadAsymmetric with a third core type on its own L2.
MachineConfig threeTypeQuad() {
  MachineConfig M = MachineConfig::quadAsymmetric();
  M.CoreTypes.push_back(M.CoreTypes[1]);
  M.Cores.push_back({2, 2});
  return M;
}

/// Machines whose tables differ in shape: 2 types x 2 sharers, 1 x 2,
/// 2 x 4 and 3 x 2.
std::vector<MachineConfig> tableMachines() {
  return {MachineConfig::quadAsymmetric(), MachineConfig::symmetricQuad(),
          oneL2Quad(), threeTypeQuad()};
}

} // namespace

TEST(RunResultCodecMutation, ValidEncodingsRoundTrip) {
  for (const std::string &Bytes : runEncodings()) {
    BinaryReader R(Bytes);
    BinaryWriter W;
    ASSERT_TRUE(decodeRun(R, W));
    EXPECT_EQ(R.remaining(), 0u);
    EXPECT_EQ(W.buffer(), Bytes);
  }
}

TEST(RunResultCodecMutation, FlippedBytes) {
  Outcome Out = flipLoop(decodeRun, runEncodings(), /*Seed=*/41, 3000);
  // Flips in counts are rejected; flips in values decode to other values.
  EXPECT_GT(Out.Accepted, 0u);
  EXPECT_GT(Out.Rejected, 0u);
}

TEST(RunResultCodecMutation, TruncationsAreRejected) {
  Outcome Out = truncationLoop(decodeRun, runEncodings());
  EXPECT_EQ(Out.Accepted, 0u);
  EXPECT_GT(Out.Rejected, 0u);
}

TEST(RunResultCodecMutation, SplicedEncodings) {
  Outcome Out = spliceLoop(decodeRun, runEncodings(), /*Seed=*/43, 3000);
  EXPECT_GT(Out.Rejected, 0u);
}

TEST(CostTableCodecMutation, ValidEncodingsRoundTrip) {
  for (const MachineConfig &M : tableMachines()) {
    TableCodec T(M);
    for (const std::string &Bytes : T.encodings()) {
      BinaryReader R(Bytes);
      BinaryWriter W;
      ASSERT_TRUE(T.codec()(R, W));
      EXPECT_EQ(R.remaining(), 0u);
      EXPECT_EQ(W.buffer(), Bytes);
    }
  }
}

TEST(CostTableCodecMutation, FlippedBytes) {
  uint64_t Seed = 61;
  for (const MachineConfig &M : tableMachines()) {
    TableCodec T(M);
    Outcome Out = flipLoop(T.codec(), T.encodings(), Seed++, 3000);
    // Flips in shape words and instruction counts are rejected; flips in
    // cycle values and memory-op counts decode to other values.
    EXPECT_GT(Out.Accepted, 0u);
    EXPECT_GT(Out.Rejected, 0u);
  }
}

TEST(CostTableCodecMutation, TruncationsAreRejected) {
  for (const MachineConfig &M : tableMachines()) {
    TableCodec T(M);
    Outcome Out = truncationLoop(T.codec(), T.encodings());
    EXPECT_EQ(Out.Accepted, 0u);
    EXPECT_GT(Out.Rejected, 0u);
  }
}

TEST(CostTableCodecMutation, SplicedEncodings) {
  uint64_t Seed = 71;
  for (const MachineConfig &M : tableMachines()) {
    TableCodec T(M);
    Outcome Out = spliceLoop(T.codec(), T.encodings(), Seed++, 3000);
    EXPECT_GT(Out.Rejected, 0u);
  }
}

TEST(CostTableCodecMutation, ShapeWordsAreChecked) {
  // Tables never decode against a machine of another shape: the sharer
  // depth or a block's core-type or sharer row count disagrees, and the
  // decoder stops before it reads the row. (The machine itself is not
  // serialized; the store keys entries by it.)
  std::vector<MachineConfig> Machines = tableMachines();
  for (size_t A = 0; A < Machines.size(); ++A) {
    TableCodec T(Machines[A]);
    for (size_t B = 0; B < Machines.size(); ++B)
      for (const std::string &Bytes : T.encodings()) {
        BinaryReader R(Bytes);
        (void)CostModel::deserializeTables(R, Machines[B], T.Prog);
        EXPECT_EQ(R.failed(), A != B) << A << " decoded as " << B;
      }
  }
}

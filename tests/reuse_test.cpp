//===- tests/reuse_test.cpp - reuse-distance analysis tests ---------------===//

#include "analysis/ReuseDistance.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pbt;

namespace {

BasicBlock blockWithRefs(const std::vector<int32_t> &Refs,
                         uint32_t Stream = 0) {
  BasicBlock BB;
  for (int32_t Ref : Refs)
    BB.Insts.push_back(Instruction::load(Ref));
  BB.StreamWorkingSet = Stream;
  return BB;
}

} // namespace

TEST(Reuse, NoMemoryOps) {
  BasicBlock BB;
  BB.Insts = {Instruction::intAlu(), Instruction::branch()};
  ReuseProfile Prof = computeBlockReuse(BB);
  EXPECT_EQ(Prof.AccessCount, 0u);
  EXPECT_DOUBLE_EQ(Prof.missRate(1), 0.0);
  EXPECT_DOUBLE_EQ(Prof.meanDistance(), 0.0);
}

TEST(Reuse, RepeatedSingleLine) {
  // Same line over and over: distance 0 everywhere in steady state.
  ReuseProfile Prof = computeBlockReuse(blockWithRefs({0, 0, 0, 0}));
  EXPECT_EQ(Prof.AccessCount, 4u);
  EXPECT_EQ(Prof.ColdCount, 0u);
  EXPECT_DOUBLE_EQ(Prof.meanDistance(), 0.0);
  EXPECT_DOUBLE_EQ(Prof.missRate(1), 0.0);
}

TEST(Reuse, CyclicPatternDistanceEqualsSetSize) {
  // 0,1,2,0,1,2: steady-state distance 2 for each access.
  ReuseProfile Prof = computeBlockReuse(blockWithRefs({0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(Prof.AccessCount, 6u);
  EXPECT_DOUBLE_EQ(Prof.meanDistance(), 2.0);
  EXPECT_DOUBLE_EQ(Prof.missRate(3), 0.0);  // Cache of 3 lines holds it.
  EXPECT_DOUBLE_EQ(Prof.missRate(2), 1.0);  // Cache of 2 lines thrashes.
}

TEST(Reuse, LoopCarriedReuseViaSecondPass) {
  // Each line once per execution, no declared stream: the second pass
  // sees the reuse across "iterations" (distance = set size - 1).
  ReuseProfile Prof = computeBlockReuse(blockWithRefs({0, 1, 2, 3}));
  EXPECT_EQ(Prof.AccessCount, 4u);
  EXPECT_EQ(Prof.ColdCount, 0u);
  EXPECT_DOUBLE_EQ(Prof.meanDistance(), 3.0);
}

TEST(Reuse, StreamOverrideForOncePerExecutionRefs) {
  // Declared stream of 1000 lines: once-per-execution refs take the
  // stream distance, not the small in-block distance.
  ReuseProfile Prof = computeBlockReuse(blockWithRefs({0, 1, 2, 3}, 1000));
  EXPECT_EQ(Prof.AccessCount, 4u);
  EXPECT_DOUBLE_EQ(Prof.meanDistance(), 1000.0);
  EXPECT_DOUBLE_EQ(Prof.missRate(1000), 1.0);
  EXPECT_DOUBLE_EQ(Prof.missRate(1001), 0.0);
}

TEST(Reuse, MixedHotAndStreaming) {
  // Line 0 repeats (hot); lines 1..3 appear once (streaming @ 500).
  ReuseProfile Prof =
      computeBlockReuse(blockWithRefs({0, 1, 0, 2, 0, 3}, 500));
  EXPECT_EQ(Prof.AccessCount, 6u);
  // Cache big enough for the hot line but not the stream: half hot ops
  // hit; 3 of 6 accesses stream and miss.
  double Miss = Prof.missRate(100);
  EXPECT_NEAR(Miss, 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(Prof.missRate(501), 0.0);
}

TEST(Reuse, MissRateMonotonicInCacheSize) {
  ReuseProfile Prof = computeBlockReuse(
      blockWithRefs({0, 1, 2, 0, 3, 4, 1, 5, 6, 7, 2}, 2000));
  double Prev = 1.1;
  for (uint32_t Lines : {1u, 2u, 4u, 16u, 256u, 4096u}) {
    double Rate = Prof.missRate(Lines);
    EXPECT_LE(Rate, Prev);
    Prev = Rate;
  }
}

TEST(Reuse, AccountingInvariant) {
  ReuseProfile Prof =
      computeBlockReuse(blockWithRefs({0, 1, 2, 0, 1, 2, 3}, 100));
  EXPECT_EQ(Prof.AccessCount, Prof.Distances.size() + Prof.ColdCount);
}

namespace {

/// Checks the two facts CostModel's closed-form miss count rests on: no
/// recorded access is cold, and every distance other than the declared
/// stream's is below the block's distinct-line count.
void expectClosedFormInvariants(const BasicBlock &BB) {
  std::vector<int32_t> Refs;
  for (const Instruction &I : BB.Insts)
    if (isMemoryKind(I.Kind))
      Refs.push_back(I.MemRef);
  std::vector<int32_t> Lines = Refs;
  std::sort(Lines.begin(), Lines.end());
  Lines.erase(std::unique(Lines.begin(), Lines.end()), Lines.end());
  size_t Streaming = 0;
  if (BB.StreamWorkingSet > 0)
    for (int32_t L : Lines)
      Streaming += std::count(Refs.begin(), Refs.end(), L) == 1 ? 1 : 0;

  ReuseProfile Prof = computeBlockReuse(BB);
  EXPECT_EQ(Prof.ColdCount, 0u);
  EXPECT_EQ(Prof.AccessCount, Refs.size());
  // Streaming accesses sit at StreamWorkingSet; every other distance is
  // below the distinct-line count. So the distances at or past that count
  // are exactly the streaming ones when the stream reaches it, else none.
  auto AtOrPast = static_cast<size_t>(std::count_if(
      Prof.Distances.begin(), Prof.Distances.end(),
      [&](uint32_t D) { return D >= Lines.size(); }));
  EXPECT_EQ(AtOrPast, BB.StreamWorkingSet >= Lines.size() ? Streaming : 0);
  EXPECT_GE(std::count(Prof.Distances.begin(), Prof.Distances.end(),
                       BB.StreamWorkingSet),
            static_cast<std::ptrdiff_t>(Streaming));
}

} // namespace

TEST(Reuse, SuiteBlocksHaveNoColdAndResidentDistancesBelowLines) {
  for (const Program &Prog : buildSuite())
    for (const Procedure &P : Prog.Procs)
      for (const BasicBlock &BB : P.Blocks)
        expectClosedFormInvariants(BB);
}

TEST(Reuse, RandomBlocksHaveNoColdAndResidentDistancesBelowLines) {
  Rng Gen(0x2E05E);
  for (int Case = 0; Case < 500; ++Case) {
    BasicBlock BB;
    uint32_t Lines = 1 + static_cast<uint32_t>(Gen.nextBelow(40));
    uint32_t Len = static_cast<uint32_t>(Gen.nextBelow(120));
    for (uint32_t I = 0; I < Len; ++I) {
      if (Gen.nextBelow(4) == 0)
        BB.Insts.push_back(Instruction::intAlu());
      auto Ref = static_cast<int32_t>(Gen.nextBelow(Lines));
      BB.Insts.push_back(Gen.nextBelow(2) ? Instruction::load(Ref)
                                          : Instruction::store(Ref));
    }
    const uint32_t Streams[] = {0, 1, Lines - 1, Lines, Lines + 1, 5000};
    BB.StreamWorkingSet = Streams[Gen.nextBelow(6)];
    expectClosedFormInvariants(BB);
  }
}

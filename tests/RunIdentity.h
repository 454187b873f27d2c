//===- tests/RunIdentity.h - shared bit-identity comparator ----*- C++ -*-===//
//
// The one definition of "two workload replays are bit-identical":
// every aggregate stat and every completed job compared exactly,
// doubles by bit pattern (EXPECT_DOUBLE_EQ would accept values up to 4
// ulps apart, so an engine that reordered its adds would slip through).
// Shared by the experiment-layer and scheduler-policy suites so the
// contract can never fork — when RunResult grows a field, add it here
// and every suite enforces it.
//
//===----------------------------------------------------------------------===//

#ifndef PBT_TESTS_RUNIDENTITY_H
#define PBT_TESTS_RUNIDENTITY_H

#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>

namespace pbt {

/// Passes when \p A and \p B are the same double bit for bit.
inline ::testing::AssertionResult sameBits(double A, double B) {
  uint64_t BitsA;
  uint64_t BitsB;
  std::memcpy(&BitsA, &A, sizeof A);
  std::memcpy(&BitsB, &B, sizeof B);
  if (BitsA == BitsB)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::setprecision(17) << A << " vs " << B << " (bits 0x"
         << std::hex << BitsA << " vs 0x" << BitsB << ")";
}

inline void expectRunsIdentical(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired);
  EXPECT_EQ(A.TotalSwitches, B.TotalSwitches);
  EXPECT_EQ(A.TotalMarks, B.TotalMarks);
  EXPECT_EQ(A.CounterWaits, B.CounterWaits);
  EXPECT_TRUE(sameBits(A.TotalOverheadCycles, B.TotalOverheadCycles));
  EXPECT_TRUE(sameBits(A.TotalCycles, B.TotalCycles));
  ASSERT_EQ(A.CoreBusy.size(), B.CoreBusy.size());
  for (size_t I = 0; I < A.CoreBusy.size(); ++I)
    EXPECT_TRUE(sameBits(A.CoreBusy[I], B.CoreBusy[I]));
  ASSERT_EQ(A.Completed.size(), B.Completed.size());
  for (size_t I = 0; I < A.Completed.size(); ++I) {
    EXPECT_EQ(A.Completed[I].Bench, B.Completed[I].Bench);
    EXPECT_EQ(A.Completed[I].Slot, B.Completed[I].Slot);
    EXPECT_TRUE(sameBits(A.Completed[I].Arrival, B.Completed[I].Arrival));
    EXPECT_TRUE(sameBits(A.Completed[I].Admitted, B.Completed[I].Admitted));
    EXPECT_TRUE(
        sameBits(A.Completed[I].Completion, B.Completed[I].Completion));
    EXPECT_TRUE(sameBits(A.Completed[I].Stats.CyclesConsumed,
                         B.Completed[I].Stats.CyclesConsumed));
    EXPECT_EQ(A.Completed[I].Stats.InstsRetired,
              B.Completed[I].Stats.InstsRetired);
    EXPECT_EQ(A.Completed[I].Stats.CoreSwitches,
              B.Completed[I].Stats.CoreSwitches);
    EXPECT_EQ(A.Completed[I].Stats.MarksFired,
              B.Completed[I].Stats.MarksFired);
  }
}

} // namespace pbt

#endif // PBT_TESTS_RUNIDENTITY_H

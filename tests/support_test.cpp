//===- tests/support_test.cpp - support library tests ---------------------===//

#include "support/Binary.h"
#include "support/Env.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

using namespace pbt;

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng Gen(7);
  for (uint64_t Bound : {1ULL, 2ULL, 10ULL, 1000ULL})
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(Gen.nextBelow(Bound), Bound);
}

TEST(Rng, NextBelowCoversValues) {
  Rng Gen(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 400; ++I)
    Seen.insert(Gen.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng Gen(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 500; ++I) {
    int64_t V = Gen.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, NextDoubleUnit) {
  Rng Gen(11);
  double Sum = 0;
  for (int I = 0; I < 2000; ++I) {
    double V = Gen.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 2000, 0.5, 0.05);
}

TEST(Rng, NextBoolProbability) {
  Rng Gen(13);
  int True30 = 0;
  for (int I = 0; I < 5000; ++I)
    True30 += Gen.nextBool(0.3);
  EXPECT_NEAR(True30 / 5000.0, 0.3, 0.03);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng Parent(5);
  Rng A = Parent.split(1);
  Rng B = Parent.split(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(SplitMix, KnownSequenceDeterministic) {
  SplitMix64 A(123), B(123);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), B.next() + 1);
}

TEST(Statistics, SummarizeEmpty) {
  BoxSummary Box = summarize({});
  EXPECT_EQ(Box.Count, 0u);
  EXPECT_EQ(Box.Median, 0.0);
}

TEST(Statistics, SummarizeSingle) {
  BoxSummary Box = summarize({3.5});
  EXPECT_EQ(Box.Count, 1u);
  EXPECT_EQ(Box.Min, 3.5);
  EXPECT_EQ(Box.Max, 3.5);
  EXPECT_EQ(Box.Median, 3.5);
}

TEST(Statistics, SummarizeQuartiles) {
  BoxSummary Box = summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(Box.Min, 1);
  EXPECT_DOUBLE_EQ(Box.Q1, 2);
  EXPECT_DOUBLE_EQ(Box.Median, 3);
  EXPECT_DOUBLE_EQ(Box.Q3, 4);
  EXPECT_DOUBLE_EQ(Box.Max, 5);
  EXPECT_DOUBLE_EQ(Box.Mean, 3);
}

TEST(Statistics, SummarizeUnsortedInput) {
  BoxSummary Box = summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(Box.Median, 3);
}

TEST(Statistics, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4);
  EXPECT_DOUBLE_EQ(mean({}), 0);
  EXPECT_DOUBLE_EQ(stddev({5}), 0);
  EXPECT_NEAR(stddev({2, 4, 6}), 2.0, 1e-12);
}

TEST(Statistics, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.5), 5);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.0), 0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 1.0), 10);
}

TEST(Statistics, PercentileInterpolatesLinearly) {
  // Type-7 linear interpolation between order statistics, like
  // quantile() (the numpy default): pos = (p/100) * (n - 1).
  std::vector<double> V = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(V, 25), 20);
  EXPECT_DOUBLE_EQ(percentile(V, 95), 48); // pos 3.8 -> 40 + 0.8*10.
  EXPECT_DOUBLE_EQ(percentile(V, 99), 49.6);
  // Unsorted input is sorted internally; a single sample is every
  // percentile of itself.
  EXPECT_DOUBLE_EQ(percentile({9, 1, 5}, 50), 5);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
  // Agrees with quantile() exactly (one shared definition).
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 37.5), quantile({0, 10}, 0.375));
}

TEST(Statistics, PercentileDeterministicAcrossCalls) {
  std::vector<double> V;
  for (int I = 99; I >= 0; --I)
    V.push_back(0.25 * I);
  double A = percentile(V, 95);
  double B = percentile(V, 95);
  EXPECT_DOUBLE_EQ(A, B);
  EXPECT_DOUBLE_EQ(A, 0.25 * 94.05);
}

TEST(Statistics, Geomean) {
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-9);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
}

TEST(Table, RendersHeaderRuleRows) {
  Table T({"a", "bb"});
  T.addRow({"1", "2"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("a"), std::string::npos);
  EXPECT_NE(Out.find("---"), std::string::npos);
  EXPECT_NE(Out.find("1"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table T({"a", "b", "c"});
  T.addRow({"only"});
  EXPECT_NE(T.render().find("only"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmtInt(33636), "33,636");
  EXPECT_EQ(Table::fmtInt(-1234567), "-1,234,567");
  EXPECT_EQ(Table::fmtInt(7), "7");
}

TEST(Env, ScaleDefaultsAndClamps) {
  unsetenv("PBT_SCALE");
  unsetenv("PBT_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(envScale(1.0), 1.0);
  setenv("PBT_BENCH_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(envScale(), 0.5);
  setenv("PBT_BENCH_SCALE", "bogus", 1);
  EXPECT_DOUBLE_EQ(envScale(2.0), 2.0);
  setenv("PBT_BENCH_SCALE", "0.0001", 1);
  EXPECT_DOUBLE_EQ(envScale(), 0.01);
  setenv("PBT_BENCH_SCALE", "1000", 1);
  EXPECT_DOUBLE_EQ(envScale(), 100);
  // Non-finite values fall back to the default instead of slipping
  // through the clamp (every comparison with NaN is false).
  setenv("PBT_BENCH_SCALE", "nan", 1);
  EXPECT_DOUBLE_EQ(envScale(2.0), 2.0);
  setenv("PBT_BENCH_SCALE", "inf", 1);
  EXPECT_DOUBLE_EQ(envScale(2.0), 2.0);
  setenv("PBT_BENCH_SCALE", "2", 1);
  EXPECT_DOUBLE_EQ(envScale(), 2.0);
  unsetenv("PBT_BENCH_SCALE");
  // The old PBT_SCALE alias is gone: alone, it changes nothing.
  setenv("PBT_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(envScale(1.0), 1.0);
  unsetenv("PBT_SCALE");
}

TEST(Env, IntParsing) {
  setenv("PBT_TEST_INT", "42", 1);
  EXPECT_EQ(envInt("PBT_TEST_INT", 0), 42);
  EXPECT_EQ(envInt("PBT_TEST_MISSING", 9), 9);
  unsetenv("PBT_TEST_INT");
}

namespace {

/// 80 bytes of a fixed, non-repeating pattern.
std::string hashPattern() {
  std::string P;
  for (int I = 0; I < 80; ++I)
    P.push_back(static_cast<char>(I * 37 + 11));
  return P;
}

} // namespace

// Store addresses and persisted checksums depend on these values: a
// change to hashBytes must fail here before it orphans every store.
TEST(HashBytes, GoldenValues) {
  EXPECT_EQ(hashString(""), 0xD8A310150DF90781ULL);
  EXPECT_EQ(hashString("a"), 0x01B634C56326A5B8ULL);
  EXPECT_EQ(hashString("abc"), 0x338E7553D44E90B1ULL);
  EXPECT_EQ(hashString("12345678"), 0x8BAD1567BEBF87DEULL); // One lane.
  EXPECT_EQ(hashString("123456789"), 0xDF50C5B94BAD6EEBULL); // Lane + tail.
  EXPECT_EQ(hashString("phase-based tuning"), 0xE5C1A5D820533C0DULL);
  std::string P = hashPattern();
  EXPECT_EQ(hashBytes(P.data(), P.size()), 0x96A9F3388F6A6E60ULL);
  EXPECT_EQ(hashBytes(P.data(), P.size(), 7), 0x0CF38E73C765AA78ULL);
  EXPECT_EQ(hashBytes(P.data(), 0, 7), 0x6FD2EDA0F07FA010ULL);
  EXPECT_EQ(hashBytes(P.data(), P.size()),
            hashString(std::string(P.data(), P.size())));
}

TEST(HashBytes, EverySingleBitFlipChangesTheHash) {
  std::string P = hashPattern();
  for (size_t Len = 0; Len <= P.size(); ++Len) {
    std::string Buf = P.substr(0, Len);
    uint64_t Clean = hashBytes(Buf.data(), Len);
    for (size_t At = 0; At < Len; ++At)
      for (int Bit = 0; Bit < 8; ++Bit) {
        Buf[At] = static_cast<char>(Buf[At] ^ (1 << Bit));
        EXPECT_NE(hashBytes(Buf.data(), Len), Clean)
            << "len " << Len << " byte " << At << " bit " << Bit;
        Buf[At] = static_cast<char>(Buf[At] ^ (1 << Bit));
      }
  }
}

TEST(HashBytes, ValueDoesNotDependOnAlignment) {
  std::string P = hashPattern();
  alignas(16) char Backing[16 + 80];
  for (size_t Len = 0; Len <= P.size(); ++Len) {
    uint64_t Expected = hashBytes(P.data(), Len);
    for (size_t Offset = 0; Offset < 16; ++Offset) {
      std::memcpy(Backing + Offset, P.data(), Len);
      EXPECT_EQ(hashBytes(Backing + Offset, Len), Expected)
          << "len " << Len << " offset " << Offset;
    }
  }
}

TEST(BinaryWriter, GoldenLittleEndianBytes) {
  BinaryWriter W;
  W.u8(0xAB);
  W.u32(0x01020304u);
  W.u64(0x0102030405060708ULL);
  W.i32(-2);
  W.f64(1.0);
  W.str("hi");
  const unsigned char Expected[] = {
      0xAB,                                           // u8
      0x04, 0x03, 0x02, 0x01,                         // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // u64
      0xFE, 0xFF, 0xFF, 0xFF,                         // i32 -2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F, // f64 1.0
      0x02, 0x00, 0x00, 0x00, 'h',  'i'};             // str
  ASSERT_EQ(W.buffer().size(), sizeof(Expected));
  EXPECT_EQ(std::memcmp(W.buffer().data(), Expected, sizeof(Expected)), 0);
}

TEST(BinaryReader, RoundTripAndTruncationLatch) {
  const double NegZero = -0.0;
  const double Nan = std::numeric_limits<double>::quiet_NaN();
  BinaryWriter W;
  W.u8(7);
  W.u32(0xDEADBEEFu);
  W.u64(0xFEEDFACECAFEBEEFULL);
  W.i32(-123456);
  W.f64(NegZero);
  W.f64(Nan);
  W.str("phase");
  W.u32(3); // A count within the remaining bytes.
  W.u64(1);
  W.u64(2);
  W.u64(3);

  BinaryReader R(W.buffer());
  EXPECT_EQ(R.u8(), 7u);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0xFEEDFACECAFEBEEFULL);
  EXPECT_EQ(R.i32(), -123456);
  double Z = R.f64();
  EXPECT_EQ(std::memcmp(&Z, &NegZero, sizeof(Z)), 0);
  double N = R.f64();
  EXPECT_EQ(std::memcmp(&N, &Nan, sizeof(N)), 0);
  EXPECT_EQ(R.str(), "phase");
  EXPECT_EQ(R.count(3, 8), 3u);
  EXPECT_EQ(R.u64(), 1u);
  EXPECT_EQ(R.u64(), 2u);
  EXPECT_EQ(R.u64(), 3u);
  EXPECT_EQ(R.remaining(), 0u);
  EXPECT_FALSE(R.failed());

  // Every truncation latches at the first short read; every later read
  // returns zero values.
  for (size_t Len = 0; Len < W.buffer().size(); ++Len) {
    BinaryReader T(W.buffer().data(), Len);
    T.u8();
    T.u32();
    T.u64();
    T.i32();
    T.f64();
    T.f64();
    T.str();
    uint32_t Count = T.count(3, 8);
    for (uint32_t I = 0; I < Count; ++I)
      T.u64();
    if (Count == 0)
      T.u64();
    EXPECT_TRUE(T.failed()) << "len " << Len;
    EXPECT_EQ(T.remaining(), 0u);
    EXPECT_EQ(T.u32(), 0u);
    EXPECT_EQ(T.u64(), 0u);
    EXPECT_EQ(T.str(), "");
  }

  // A u32 that straddles the end reads nothing, then latches.
  BinaryReader Short(W.buffer().data(), 3);
  EXPECT_EQ(Short.u32(), 0u);
  EXPECT_TRUE(Short.failed());
  EXPECT_EQ(Short.u8(), 0u);
}

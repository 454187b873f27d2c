//===- tests/repeatedadd_test.cpp - closed-form repeated add --------------===//
//
// repadd::run must end `do { X += C; ++N; } while (N < Max && X < Bound);`
// with the same N and the same X, bit for bit, as running the loop. Each
// case here runs both on seeded inputs aimed at the closed form's edges:
// X = 0, subnormal X and C, C far below ulp(X), exact half-ulp ties from
// odd and even mantissas, sums that land on 2^k and on the bound, an
// infinite bound, Max of 0 and 1, overflow to +inf, and the negative
// operands that step.
//
//===----------------------------------------------------------------------===//

#include "sim/RepeatedAdd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

using namespace pbt;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

repadd::Result stepped(double X, double C, uint64_t Max, double Bound) {
  uint64_t N = 0;
  do {
    X += C;
    ++N;
  } while (N < Max && X < Bound);
  return {N, X};
}

uint64_t bitsOf(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof Bits);
  return Bits;
}

/// Checks one case; returns false on a mismatch so a seeded loop stops
/// at its first failure.
bool check(double X, double C, uint64_t Max, double Bound) {
  repadd::Result Want = stepped(X, C, Max, Bound);
  repadd::Result Got = repadd::run(X, C, Max, Bound);
  if (Want.N == Got.N && bitsOf(Want.X) == bitsOf(Got.X))
    return true;
  ADD_FAILURE() << std::hexfloat << "X=" << X << " C=" << C
                << " Max=" << Max << " Bound=" << Bound
                << ": stepped N=" << Want.N << " X=" << Want.X
                << ", closed form N=" << Got.N << " X=" << Got.X;
  return false;
}

/// The sum after \p K adds of \p C from \p X, by stepping.
double sumOf(double X, double C, uint64_t K) {
  for (uint64_t I = 0; I < K; ++I)
    X += C;
  return X;
}

struct Gen {
  std::mt19937_64 Eng;
  explicit Gen(uint64_t Seed) : Eng(Seed) {}
  uint64_t below(uint64_t N) { return Eng() % N; }
  double unit() { return std::uniform_real_distribution<double>(1, 2)(Eng); }
  /// A double with a random mantissa in [2^E, 2^(E+1)).
  double binade(int E) { return std::ldexp(unit(), E); }
  /// Positive subnormal with a random mantissa.
  double subnormal() {
    uint64_t Bits = 1 + below((uint64_t(1) << 52) - 1);
    double V;
    std::memcpy(&V, &Bits, sizeof V);
    return V;
  }
  /// Max: usually generous, sometimes tight, sometimes 0 or 1.
  uint64_t max(uint64_t Cap) {
    switch (below(6)) {
    case 0:
      return below(2);
    case 1:
      return 1 + below(8);
    default:
      return 1 + below(Cap);
    }
  }
};

TEST(RepeatedAdd, FromZero) {
  // The kernel's resume case: U from +0.0 against a quantum budget.
  Gen G(11);
  for (int I = 0; I < 20000; ++I) {
    double C = G.binade(static_cast<int>(G.below(40)) - 10);
    uint64_t Trips = 1 + G.below(3000);
    double Bound;
    switch (G.below(3)) {
    case 0: // A budget that is exactly one of the sums.
      Bound = sumOf(0.0, C, Trips);
      break;
    case 1: // One ulp either side of a sum.
      Bound = std::nextafter(sumOf(0.0, C, Trips), G.below(2) ? Inf : 0.0);
      break;
    default:
      Bound = C * (Trips + G.unit() - 1);
    }
    ASSERT_TRUE(check(0.0, C, G.max(4000), Bound));
    ASSERT_TRUE(check(-0.0, C, G.max(4000), Bound));
  }
}

TEST(RepeatedAdd, FromAnyStart) {
  // Mid-quantum entries and MonCycles: X already far from zero.
  Gen G(12);
  for (int I = 0; I < 20000; ++I) {
    int E = static_cast<int>(G.below(60)) - 20;
    double C = G.binade(E);
    double X = G.binade(E + static_cast<int>(G.below(16)) - 4);
    double Bound = G.below(4) == 0 ? Inf : X + C * G.below(4000) * G.unit();
    ASSERT_TRUE(check(X, C, G.max(4000), Bound));
  }
}

TEST(RepeatedAdd, SubnormalOperands) {
  Gen G(13);
  const double MinNormal = std::numeric_limits<double>::min();
  for (int I = 0; I < 20000; ++I) {
    double C = G.subnormal();
    // Keep the trips stepping needs small: C no finer than 2^-40 of X.
    if (C < MinNormal * 0x1p-40)
      C = G.below(2) ? MinNormal * 0x1p-30 * G.unit() : std::ldexp(1, -1074);
    double X = G.below(3) == 0 ? 0.0 : G.subnormal();
    double Bound;
    switch (G.below(4)) {
    case 0:
      Bound = Inf;
      break;
    case 1: // Across the subnormal / normal boundary.
      Bound = MinNormal * G.unit() * 2;
      break;
    case 2:
      Bound = sumOf(X, C, 1 + G.below(500));
      break;
    default:
      Bound = X + C * G.below(3000);
    }
    ASSERT_TRUE(check(X, C, G.max(3000), Bound));
  }
  // C = the smallest subnormal from the largest subnormal: the sum walks
  // into the first normal binade on the same grid.
  double Largest = std::nextafter(MinNormal, 0.0);
  ASSERT_TRUE(check(Largest, std::ldexp(1, -1074), 5000, Inf));
  ASSERT_TRUE(check(Largest, std::ldexp(1, -1074), 5000, MinNormal));
}

TEST(RepeatedAdd, AddendFarBelowTheGridStep) {
  // C below half an ulp of X: the sum stalls and the loop runs out Max.
  Gen G(14);
  for (int I = 0; I < 20000; ++I) {
    double X = G.binade(static_cast<int>(G.below(80)) - 40);
    int Shift = 54 + static_cast<int>(G.below(1100));
    double C = std::ldexp(G.unit(), std::ilogb(X) - Shift);
    double Bound = G.below(2) ? Inf : X * 2;
    ASSERT_TRUE(check(X, C, G.max(5000), Bound));
  }
  // Just below, at and just above half an ulp.
  double Ulp = std::ldexp(1, -52);
  for (double X : {1.0, 1.0 + Ulp, 1.5, 1.5 + Ulp})
    for (double C : {std::nextafter(Ulp / 2, 0.0), Ulp / 2,
                     std::nextafter(Ulp / 2, 1.0)})
      for (double Bound : {Inf, 2.0, 1.75})
        ASSERT_TRUE(check(X, C, 3000, Bound));
}

TEST(RepeatedAdd, HalfUlpTies) {
  // C = (2k + 1) / 2 ulps: every add is a tie, rounded to even, from
  // odd and even starting mantissas.
  Gen G(15);
  for (int I = 0; I < 20000; ++I) {
    int E = static_cast<int>(G.below(40)) - 20;
    double Ulp = std::ldexp(1, E - 52);
    double X = G.binade(E);
    if (G.below(2))
      X = std::nextafter(X, Inf); // Flip the mantissa's parity.
    uint64_t K = G.below(4) == 0 ? 0 : G.below(uint64_t(1) << 20);
    double C = (2 * K + 1) * (Ulp / 2);
    double Bound = G.below(3) == 0 ? Inf : X + C * G.below(3000);
    ASSERT_TRUE(check(X, C, G.max(3000), Bound));
  }
}

TEST(RepeatedAdd, LandingOnPowersOfTwoAndTheBound) {
  Gen G(16);
  for (int I = 0; I < 20000; ++I) {
    // C a power of two, or a multiple of a power of two, and X a whole
    // number of steps below 2^k: some step lands exactly on 2^k.
    int K = static_cast<int>(G.below(60)) - 30;
    double C = std::ldexp(static_cast<double>(1 + G.below(64)),
                          K - 12 - static_cast<int>(G.below(8)));
    auto Fit = static_cast<uint64_t>(std::ldexp(1, K) / C);
    double X =
        std::ldexp(1, K) - C * (1 + G.below(std::min<uint64_t>(Fit, 2000)));
    double Bound;
    switch (G.below(3)) {
    case 0:
      Bound = std::ldexp(1, K);
      break;
    case 1:
      Bound = std::ldexp(1, K + static_cast<int>(G.below(3)));
      break;
    default:
      Bound = Inf;
    }
    ASSERT_TRUE(check(X, C, G.max(6000), Bound));
  }
}

TEST(RepeatedAdd, EdgeValues) {
  const double Max = std::numeric_limits<double>::max();
  const uint64_t Many = std::numeric_limits<uint64_t>::max();
  // Max of 0 and 1: exactly one trip.
  for (uint64_t M : {0u, 1u}) {
    EXPECT_TRUE(check(0.0, 3.5, M, 100.0));
    EXPECT_TRUE(check(7.0, 3.5, M, 1.0));
    EXPECT_TRUE(check(7.0, 3.5, M, Inf));
  }
  // A bound at or below the start: one trip.
  EXPECT_TRUE(check(10.0, 1.0, 100, 10.0));
  EXPECT_TRUE(check(10.0, 1.0, 100, -Inf));
  EXPECT_TRUE(check(10.0, 1.0, 100, std::nan("")));
  // Zero addends of both signs, from both zeros: the loop runs out Max.
  for (double X : {0.0, -0.0, 5.0})
    for (double C : {0.0, -0.0}) {
      EXPECT_TRUE(check(X, C, 1000, Inf));
      EXPECT_TRUE(check(X, C, 1000, 6.0));
    }
  // Overflow to +inf ends an unbounded run.
  EXPECT_TRUE(check(Max * 0.5, Max * 0.125, 100, Inf));
  EXPECT_TRUE(check(Max * 0.5, Max * 0.125, 3, Inf));
  // Negative operands step. From a negative X the sum can come out
  // below C, on a finer grid than C's.
  EXPECT_TRUE(check(-100.0, 3.7, 1000, 50.0));
  EXPECT_TRUE(check(-2.5, 3.0, 1000, Inf));
  EXPECT_TRUE(check(-2.5, 3.0, 1000, 100.0));
  EXPECT_TRUE(check(100.0, -3.7, 1000, Inf));
  EXPECT_TRUE(check(-1e-300, 1e-310, 1000, Inf));
  // A stalled sum with no Max to speak of finishes at once.
  repadd::Result Stall = repadd::run(1.0, 0x1p-60, Many, 2.0);
  EXPECT_EQ(Stall.N, Many);
  EXPECT_EQ(Stall.X, 1.0);
  // The kernel's trip counts reach past 2^32 with no overflow.
  repadd::Result Long = repadd::run(0.0, 1.0, Many, 0x1p40);
  EXPECT_EQ(Long.N, uint64_t(1) << 40);
  EXPECT_EQ(Long.X, 0x1p40);
}

TEST(RepeatedAdd, AddNMatchesStepping) {
  Gen G(17);
  for (int I = 0; I < 20000; ++I) {
    int E = static_cast<int>(G.below(50)) - 25;
    double C = G.binade(E);
    double X =
        G.below(3) == 0 ? 0.0 : G.binade(E + static_cast<int>(G.below(20)));
    uint64_t N = 1 + G.below(3000);
    ASSERT_EQ(bitsOf(repadd::addN(X, C, N)), bitsOf(sumOf(X, C, N)))
        << std::hexfloat << X << " + " << N << " x " << C;
  }
}

} // namespace

//===- sim/RepeatedAdd.h - Closed form of a repeated FP add -----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exact closed form of the loop every self-loop trip runs:
///
///   uint64_t N = 0;
///   do { X += C; ++N; } while (N < Max && X < Bound);
///
/// repadd::run returns the N and X that loop ends with, bit for bit,
/// in time logarithmic in the final X / C instead of linear in N.
///
/// It works on one binade of X at a time. The doubles in [2^e, 2^(e+1))
/// sit on one evenly spaced grid of step q = ulp(X) (the subnormals and
/// the first normal binade share the finest grid, 2^-1074), so
/// X = M * q for an integer mantissa M < 2^53. While X + C stays below
/// the binade's top, round-to-nearest gives X + C = (M + D) * q with
/// D = C / q rounded to the nearest integer, the same D on every trip:
/// a run of J trips is the integer multiply-add M += J * D, and the
/// bound test becomes an integer compare against Bound's mantissa on
/// the same grid. The trips that do not fit that pattern take a real
/// floating-point add:
///
///  - the first trip of each run() call, and the trip that lands on or
///    crosses the top of a binade;
///  - a tie (C / q exactly halfway between two integers) from an odd
///    M. Round-half-to-even then makes M even, after which every tie
///    rounds the same way: D is whichever of floor(C / q) and
///    floor(C / q) + 1 is even;
///  - an X or C below zero, which no caller passes; those step.
///
/// C below half a grid step gives D = 0: X has stalled, and the loop
/// runs out its Max trips without moving.
///
/// Everything here relies on IEEE-754 binary64 doubles evaluated at
/// their own precision under the default round-to-nearest-even mode
/// (static asserts below). Nothing in the program changes the rounding
/// mode: tools/lint_determinism.sh fails on any fesetround call.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_REPEATEDADD_H
#define PBT_SIM_REPEATEDADD_H

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>

namespace pbt {
namespace repadd {

static_assert(std::numeric_limits<double>::is_iec559,
              "the closed form needs IEEE-754 binary64 doubles");
static_assert(FLT_EVAL_METHOD == 0,
              "the closed form needs doubles evaluated at double precision");

/// How a repeated add ended: \c N trips, leaving the value \c X.
struct Result {
  uint64_t N = 0;
  double X = 0;
};

namespace detail {

inline uint64_t bitsOf(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof Bits);
  return Bits;
}

inline double fromBits(uint64_t Bits) {
  double V;
  std::memcpy(&V, &Bits, sizeof V);
  return V;
}

/// Largest mantissa on one grid: the value just below the binade's top.
constexpr uint64_t TopMantissa = (uint64_t(1) << 53) - 1;

/// The grid of a non-negative finite double with bit pattern \p Bits:
/// its biased exponent, floored at 1 so the subnormals share the first
/// normal binade's grid. Then Bits == ((Grid - 1) << 52) + mantissa for
/// every value of that grid, the subnormals included.
inline uint64_t gridOf(uint64_t Bits) {
  return std::max<uint64_t>(Bits >> 52, 1);
}

/// C / q rounded to nearest, for C (bit pattern \p CBits, non-negative)
/// on grid \p Grid of an X whose mantissa is \p M. Returns false when
/// the next trip must be a real add: C reaches the binade's top, or C
/// is a tie and M is odd.
inline bool gridStep(uint64_t CBits, uint64_t Grid, uint64_t M,
                     uint64_t &D) {
  uint64_t CGrid = gridOf(CBits);
  // C on a coarser grid is at least the binade's top: the trip leaves
  // it. (X >= C after any add from X >= 0; only a negative start gets
  // here.)
  if (CGrid > Grid)
    return false;
  uint64_t MC = CBits - ((CGrid - 1) << 52);
  // C / q = MC / 2^R.
  uint64_t R = Grid - CGrid;
  if (R == 0) {
    D = MC;
    return true;
  }
  if (R >= 54) {
    // MC < 2^53, so C / q < 1/2: the add rounds back to X.
    D = 0;
    return true;
  }
  uint64_t K = MC >> R;
  uint64_t Rest = MC & ((uint64_t(1) << R) - 1);
  uint64_t Half = uint64_t(1) << (R - 1);
  if (Rest != Half) {
    D = K + (Rest > Half);
    return true;
  }
  if (M & 1)
    return false;
  D = K + (K & 1);
  return true;
}

} // namespace detail

/// Exactly `N = 0; do { X += C; ++N; } while (N < Max && X < Bound);`,
/// returning {N, X}. Like the loop, it runs at least one trip even for
/// \p Max == 0. X and C may be anything the loop accepts; the closed
/// form applies while both are non-negative, and anything else steps.
inline Result run(double X, double C, uint64_t Max, double Bound) {
  using namespace detail;
  uint64_t N = 0;
  const uint64_t CBits = bitsOf(C) & ~(uint64_t(1) << 63); // -0.0 -> +0.0
  for (;;) {
    // A real trip: the first, a binade crossing, a tie from odd M, or a
    // negative operand.
    X += C;
    ++N;
    if (N >= Max || !(X < Bound))
      return {N, X};
    // X < Bound rules out NaN and +inf; the grid needs X >= +0.0 and
    // C >= 0 (then C is finite too, or X would not be).
    const uint64_t XBits = bitsOf(X);
    if ((XBits >> 63) != 0 || !(C >= 0))
      continue;
    const uint64_t Grid = gridOf(XBits);
    const uint64_t Base = (Grid - 1) << 52;
    uint64_t M = XBits - Base;
    uint64_t D = 0;
    if (!gridStep(CBits, Grid, M, D))
      continue;
    uint64_t J = Max - N;
    if (D != 0) {
      // The next trip leaves the binade (an early out: J would be 0).
      if (M + D > TopMantissa)
        continue;
      // (Grid + 1) << 52 is the binade's top. A Bound below it lies on
      // this grid, since Bound > X >= the binade's bottom.
      const uint64_t BoundBits = bitsOf(Bound);
      if (BoundBits < ((Grid + 1) << 52)) {
        uint64_t Reach = (BoundBits - Base - M + D - 1) / D;
        // The trip that reaches Bound may cross the top; then stop one
        // short and let the real add take it.
        if (M + Reach * D > TopMantissa)
          Reach -= 1;
        J = std::min(J, Reach);
      } else {
        J = std::min(J, (TopMantissa - M) / D);
      }
    }
    M += J * D;
    N += J;
    X = fromBits(Base + M);
    if (N >= Max || !(X < Bound))
      return {N, X};
  }
}

/// \p X after exactly \p N >= 1 adds of \p C: run() with no bound.
/// Once X reaches +inf or NaN every further add leaves it there, so the
/// early stop changes nothing.
inline double addN(double X, double C, uint64_t N) {
  return run(X, C, N, std::numeric_limits<double>::infinity()).X;
}

} // namespace repadd
} // namespace pbt

#endif // PBT_SIM_REPEATEDADD_H

//===- analysis/ReuseDistance.h - Stack-distance cache estimate -*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reuse-distance (LRU stack distance) analysis of a block's memory
/// reference stream. The paper's static block typing uses "a rough
/// estimate of cache behavior (computation based on reuse distances)"
/// citing Beyls & D'Hollander 2001; the same profile also drives the
/// simulator's analytic miss-rate model, so the static estimate and the
/// simulated truth share a principled foundation while remaining distinct
/// (the simulator additionally models shared-cache contention).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ANALYSIS_REUSEDISTANCE_H
#define PBT_ANALYSIS_REUSEDISTANCE_H

#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace pbt {

/// Steady-state reuse profile of one basic block.
///
/// The profile is measured over the block's reference stream replayed
/// twice and recorded on the second pass, which captures loop-carried
/// reuse (blocks execute repeatedly inside loops) and discards one-time
/// cold misses.
struct ReuseProfile {
  /// Sorted stack distances (in distinct 64-byte lines) of the recorded
  /// accesses that have a finite reuse distance.
  std::vector<uint32_t> Distances;
  /// Recorded accesses with no prior access to the same line (infinite
  /// distance; missRate() counts them as misses). The recorded second
  /// pass follows a full first pass over the same stream, so it never
  /// sees one: computeBlockReuse() always leaves this 0, and every
  /// finite distance of a non-streaming access is below the block's
  /// distinct-line count. CostModel's closed-form miss count rests on
  /// both facts.
  uint32_t ColdCount = 0;
  /// Total recorded accesses (|Distances| + ColdCount).
  uint32_t AccessCount = 0;

  /// Fraction of accesses that miss in a fully-associative LRU cache of
  /// \p CacheLines lines: those with distance >= CacheLines, plus cold
  /// accesses. Returns 0 when the block performs no memory accesses.
  double missRate(uint32_t CacheLines) const;

  /// Mean finite stack distance (0 when there is no reuse).
  double meanDistance() const;
};

/// Computes the steady-state reuse profile of \p BB.
ReuseProfile computeBlockReuse(const BasicBlock &BB);

} // namespace pbt

#endif // PBT_ANALYSIS_REUSEDISTANCE_H

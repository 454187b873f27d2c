//===- support/Statistics.h - Summary statistics helpers -------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptive statistics used by the benchmark harnesses: five-number
/// box-plot summaries (paper Fig. 3), means, and geometric means.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_STATISTICS_H
#define PBT_SUPPORT_STATISTICS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbt {

/// Five-number summary of a sample, as drawn in a box plot: the box spans
/// [Q1, Q3] with a line at the median; whiskers extend to min and max.
struct BoxSummary {
  double Min = 0;
  double Q1 = 0;
  double Median = 0;
  double Q3 = 0;
  double Max = 0;
  double Mean = 0;
  size_t Count = 0;
};

/// Computes the five-number summary of \p Values. Quartiles use linear
/// interpolation between order statistics (type-7, the numpy default).
/// An empty input yields an all-zero summary with Count == 0.
BoxSummary summarize(std::vector<double> Values);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double> &Values);

/// Sample standard deviation; 0 for samples of size < 2.
double stddev(const std::vector<double> &Values);

/// Quantile \p Q in [0,1] of \p Values with linear interpolation.
/// Asserts on empty input.
double quantile(std::vector<double> Values, double Q);

/// Percentile \p Pct in [0,100] of \p Values: quantile(Pct / 100),
/// linear interpolation between order statistics (type-7), fully
/// deterministic. Asserts on empty input and out-of-range Pct. The one
/// definition shared by the latency and fairness metrics.
double percentile(std::vector<double> Values, double Pct);

/// percentile() over an ALREADY SORTED sample, without copying or
/// re-sorting — for callers reading several percentiles off one sort.
/// Asserts the same preconditions (plus sortedness, in debug builds).
double percentileSorted(const std::vector<double> &Sorted, double Pct);

/// Geometric mean; asserts all values are positive. 0 for empty input.
double geomean(const std::vector<double> &Values);

/// Deterministic streaming quantile sketch: the buffered merging
/// t-digest (Dunning's MergingDigest, simplified to weight-1 inputs).
/// Observations buffer until the buffer fills, then buffer and
/// centroids are sorted together by (mean, weight) and compacted in one
/// left-to-right greedy pass under the k-size bound
///
///   merged weight <= 4 * N * q * (1 - q) / Compression
///
/// where q is the merged centroid's center-rank fraction. The bound
/// pinches to < 1 at the tails, so extreme observations survive as
/// singleton centroids and tail percentiles stay near-exact; at the
/// median it allows ~N/Compression-weight centroids, capping memory at
/// O(Compression) however long the stream runs.
///
/// Properties the streaming metric accumulators (metrics/Latency.h,
/// metrics/Fairness.h) depend on, asserted in tests/fastreplay_test.cpp:
///
///  - Deterministic: the digest is a pure function of the observation
///    sequence (sort + greedy pass; no randomization, no clocks).
///  - EXACT below 2 x Compression observations: the bound stays < 2
///    everywhere, no pair ever merges, every observation is its own
///    centroid, and quantile() reduces exactly to the type-7
///    interpolation of percentile().
class TDigest {
public:
  /// \p Compression bounds the compacted centroid count (~2x this) and
  /// sets the exactness threshold (exact below 2 x Compression
  /// observations). 256 keeps a sketch a few KiB.
  explicit TDigest(double Compression = 256);

  /// Feeds one weight-1 observation.
  void add(double X);

  /// Observations fed so far (total weight).
  size_t count() const { return static_cast<size_t>(Total); }

  /// Quantile \p Q in [0,1] by center-rank interpolation between
  /// centroid means; 0 before any observation. For an all-singleton
  /// digest this is exactly the type-7 percentile of the sample.
  double quantile(double Q) const;

  /// quantile(Pct / 100).
  double percentile(double Pct) const { return quantile(Pct / 100.0); }

private:
  struct Centroid {
    double Mean = 0;
    double Weight = 0;
  };

  /// Folds Buffer into Centroids (sort by (mean, weight), one greedy
  /// compaction pass). Const because readers must see buffered
  /// observations; only Centroids/Buffer mutate, never Total.
  void flush() const;
  static std::vector<Centroid> compact(std::vector<Centroid> All,
                                       double Total, double Compression);

  double Compression;
  double Total = 0;
  mutable std::vector<Centroid> Centroids; ///< Sorted by (mean, weight).
  mutable std::vector<double> Buffer;      ///< Pending raw observations.
};

} // namespace pbt

#endif // PBT_SUPPORT_STATISTICS_H

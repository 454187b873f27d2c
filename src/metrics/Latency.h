//===- metrics/Latency.h - Turnaround/slowdown/throughput ------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Latency and throughput metrics for traffic scenarios — the standard
/// open-system methodology for evaluating OS schedulers on job streams,
/// complementing the paper's closed-system fairness metrics
/// (metrics/Fairness.h):
///
///   turnaround  T_j = C_j - a_j        (completion minus arrival)
///   slowdown    S_j = T_j / t_j        (vs the oblivious isolated
///                                       baseline t_j; jobs without an
///                                       oracle are skipped)
///   percentiles p50/p95/p99 of T_j     (tail latency)
///   throughput  jobs per megacycle of aggregate machine capacity
///               (completed jobs / (horizon x sum of core frequencies
///               / 1e6))
///
/// All percentiles use support/Statistics percentile() (linear
/// interpolation, deterministic), so identical replays produce
/// bit-identical metric blocks.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_METRICS_LATENCY_H
#define PBT_METRICS_LATENCY_H

#include "sim/MachineConfig.h"
#include "support/Statistics.h"
#include "workload/Runner.h"

#include <cstddef>

namespace pbt {

/// Latency/throughput summary of one run's completed jobs.
struct LatencyMetrics {
  size_t Jobs = 0;
  double MeanTurnaround = 0;
  double P50Turnaround = 0;
  double P95Turnaround = 0;
  double P99Turnaround = 0;
  /// Slowdown statistics cover only jobs with an isolated-time oracle
  /// (CompletedJob::Isolated > 0); 0 when no job has one.
  double MeanSlowdown = 0;
  double P95Slowdown = 0;
  double MaxSlowdown = 0;
  /// Completed jobs per million cycles of aggregate machine capacity
  /// over the run's horizon (0 for an empty or zero-length run).
  double JobsPerMegacycle = 0;
};

/// Computes the metrics over \p Run's completions on \p Machine (whose
/// core frequencies define the capacity normalization). Buffers and
/// sorts: bit-reproducible, O(n) memory; LatencyAccumulator is the
/// streaming counterpart.
LatencyMetrics computeLatency(const RunResult &Run,
                              const MachineConfig &Machine);

/// Streaming latency accumulator: feed every completed job as it
/// finishes (e.g. through runWorkload's OnCompleted sink) and read the
/// metrics at the end. O(1) memory in job count — the turnaround and
/// slowdown distributions are never materialized; percentiles come
/// from deterministic t-digest sketches (support/Statistics
/// TDigest — exact below 2 x 256 observations, near-exact tails
/// beyond), means and maxima from running sums, so a long-horizon
/// scenario run's metrics memory no longer grows with its completion
/// count.
class LatencyAccumulator {
public:
  /// Feeds one completed job (same conventions as computeLatency:
  /// turnaround is Completion - Arrival; slowdown only for jobs with
  /// an isolated-time oracle).
  void add(const CompletedJob &Job);

  /// Jobs fed so far.
  size_t jobs() const { return Jobs; }

  /// Metrics over everything fed, normalized to \p Horizon seconds of
  /// \p Machine capacity (the same JobsPerMegacycle definition as
  /// computeLatency).
  LatencyMetrics finish(double Horizon, const MachineConfig &Machine) const;

private:
  size_t Jobs = 0;
  double TurnSum = 0;
  TDigest Turn;
  size_t SlowJobs = 0;
  double SlowSum = 0;
  TDigest Slow;
  double MaxSlow = 0;
};

} // namespace pbt

#endif // PBT_METRICS_LATENCY_H

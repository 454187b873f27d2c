//===- metrics/Latency.cpp - Turnaround/slowdown/throughput ---------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "metrics/Latency.h"

#include "support/Statistics.h"

#include <algorithm>

using namespace pbt;

namespace {

/// Completed jobs per megacycle of machine capacity over the horizon —
/// the one definition shared by both percentile modes.
double jobsPerMegacycle(size_t Jobs, double Horizon,
                        const MachineConfig &Machine) {
  double CapacityCycles = 0;
  for (const CoreDesc &Core : Machine.Cores)
    CapacityCycles += Machine.CoreTypes[Core.TypeId].Frequency * Horizon;
  if (CapacityCycles <= 0)
    return 0;
  return static_cast<double>(Jobs) / (CapacityCycles / 1e6);
}

} // namespace

void LatencyAccumulator::add(const CompletedJob &Job) {
  ++Jobs;
  double T = Job.Completion - Job.Arrival;
  TurnSum += T;
  Turn.add(T);
  if (Job.Isolated > 0) {
    double S = T / Job.Isolated;
    ++SlowJobs;
    SlowSum += S;
    Slow.add(S);
    if (S > MaxSlow)
      MaxSlow = S;
  }
}

LatencyMetrics LatencyAccumulator::finish(double Horizon,
                                          const MachineConfig &Machine) const {
  LatencyMetrics M;
  M.Jobs = Jobs;
  M.JobsPerMegacycle = jobsPerMegacycle(Jobs, Horizon, Machine);
  if (Jobs == 0)
    return M;
  M.MeanTurnaround = TurnSum / static_cast<double>(Jobs);
  M.P50Turnaround = Turn.percentile(50);
  M.P95Turnaround = Turn.percentile(95);
  M.P99Turnaround = Turn.percentile(99);
  if (SlowJobs > 0) {
    M.MeanSlowdown = SlowSum / static_cast<double>(SlowJobs);
    M.P95Slowdown = Slow.percentile(95);
    M.MaxSlowdown = MaxSlow;
  }
  return M;
}

LatencyMetrics pbt::computeLatency(const RunResult &Run,
                                   const MachineConfig &Machine) {
  LatencyMetrics M;
  M.Jobs = Run.Completed.size();
  M.JobsPerMegacycle = jobsPerMegacycle(M.Jobs, Run.Horizon, Machine);

  if (Run.Completed.empty())
    return M;

  std::vector<double> Turnarounds;
  std::vector<double> Slowdowns;
  Turnarounds.reserve(Run.Completed.size());
  for (const CompletedJob &Job : Run.Completed) {
    double T = Job.Completion - Job.Arrival;
    Turnarounds.push_back(T);
    if (Job.Isolated > 0)
      Slowdowns.push_back(T / Job.Isolated);
  }

  // One sort per sample, several percentiles read off it.
  M.MeanTurnaround = mean(Turnarounds);
  std::sort(Turnarounds.begin(), Turnarounds.end());
  M.P50Turnaround = percentileSorted(Turnarounds, 50);
  M.P95Turnaround = percentileSorted(Turnarounds, 95);
  M.P99Turnaround = percentileSorted(Turnarounds, 99);
  if (!Slowdowns.empty()) {
    M.MeanSlowdown = mean(Slowdowns);
    std::sort(Slowdowns.begin(), Slowdowns.end());
    M.P95Slowdown = percentileSorted(Slowdowns, 95);
    M.MaxSlowdown = Slowdowns.back();
  }
  return M;
}

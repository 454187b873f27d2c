//===- metrics/Fairness.cpp - Flow/stretch fairness metrics ---------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "metrics/Fairness.h"

#include "support/Statistics.h"

#include <algorithm>
#include <vector>

using namespace pbt;

void FairnessAccumulator::add(const CompletedJob &Job) {
  ++Jobs;
  double FlowTime = Job.Completion - Job.Arrival;
  FlowSum += FlowTime;
  if (FlowTime > MaxFlow)
    MaxFlow = FlowTime;
  if (Job.Isolated > 0 && FlowTime / Job.Isolated > MaxStretch)
    MaxStretch = FlowTime / Job.Isolated;
  Flow.add(FlowTime);
}

FairnessMetrics FairnessAccumulator::finish() const {
  FairnessMetrics Metrics;
  if (Jobs == 0)
    return Metrics;
  Metrics.Jobs = Jobs;
  Metrics.MaxFlow = MaxFlow;
  Metrics.MaxStretch = MaxStretch;
  Metrics.AvgProcessTime = FlowSum / static_cast<double>(Jobs);
  Metrics.P95Flow = Flow.percentile(95);
  return Metrics;
}

FairnessMetrics pbt::computeFairness(const std::vector<CompletedJob> &Jobs) {
  FairnessMetrics Metrics;
  if (Jobs.empty())
    return Metrics;
  std::vector<double> Flows;
  Flows.reserve(Jobs.size());
  double FlowSum = 0;
  for (const CompletedJob &Job : Jobs) {
    double Flow = Job.Completion - Job.Arrival;
    FlowSum += Flow;
    Flows.push_back(Flow);
    Metrics.MaxFlow = std::max(Metrics.MaxFlow, Flow);
    if (Job.Isolated > 0)
      Metrics.MaxStretch = std::max(Metrics.MaxStretch, Flow / Job.Isolated);
  }
  Metrics.Jobs = Jobs.size();
  Metrics.AvgProcessTime = FlowSum / static_cast<double>(Jobs.size());
  Metrics.P95Flow = percentile(std::move(Flows), 95);
  return Metrics;
}

double pbt::percentDecrease(double Baseline, double Value) {
  if (Baseline == 0)
    return 0;
  return 100.0 * (Baseline - Value) / Baseline;
}

double pbt::percentIncrease(double Baseline, double Value) {
  if (Baseline == 0)
    return 0;
  return 100.0 * (Value - Baseline) / Baseline;
}

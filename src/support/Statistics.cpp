//===- support/Statistics.cpp - Summary statistics helpers ---------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;

static double interpolatedQuantile(const std::vector<double> &Sorted,
                                   double Q) {
  assert(!Sorted.empty() && "quantile of empty sample");
  if (Sorted.size() == 1)
    return Sorted.front();
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + Frac * (Sorted[Hi] - Sorted[Lo]);
}

BoxSummary pbt::summarize(std::vector<double> Values) {
  BoxSummary Box;
  if (Values.empty())
    return Box;
  std::sort(Values.begin(), Values.end());
  Box.Count = Values.size();
  Box.Min = Values.front();
  Box.Max = Values.back();
  Box.Q1 = interpolatedQuantile(Values, 0.25);
  Box.Median = interpolatedQuantile(Values, 0.50);
  Box.Q3 = interpolatedQuantile(Values, 0.75);
  Box.Mean = mean(Values);
  return Box;
}

double pbt::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double pbt::stddev(const std::vector<double> &Values) {
  if (Values.size() < 2)
    return 0;
  double M = mean(Values);
  double Acc = 0;
  for (double V : Values)
    Acc += (V - M) * (V - M);
  return std::sqrt(Acc / static_cast<double>(Values.size() - 1));
}

double pbt::quantile(std::vector<double> Values, double Q) {
  assert(Q >= 0.0 && Q <= 1.0 && "quantile fraction out of range");
  std::sort(Values.begin(), Values.end());
  return interpolatedQuantile(Values, Q);
}

double pbt::percentile(std::vector<double> Values, double Pct) {
  assert(Pct >= 0.0 && Pct <= 100.0 && "percentile out of range");
  return quantile(std::move(Values), Pct / 100.0);
}

double pbt::percentileSorted(const std::vector<double> &Sorted,
                             double Pct) {
  assert(Pct >= 0.0 && Pct <= 100.0 && "percentile out of range");
  assert(std::is_sorted(Sorted.begin(), Sorted.end()) &&
         "percentileSorted needs a sorted sample");
  return interpolatedQuantile(Sorted, Pct / 100.0);
}

TDigest::TDigest(double Compression) : Compression(Compression) {
  assert(Compression >= 8 && "t-digest compression too small");
  // Buffering 2x the compression amortizes compaction to O(log) sorts
  // per observation while keeping peak memory O(Compression).
  Buffer.reserve(static_cast<size_t>(2 * Compression));
}

void TDigest::add(double X) {
  Buffer.push_back(X);
  Total += 1;
  if (Buffer.size() >= static_cast<size_t>(2 * Compression))
    flush();
}

std::vector<TDigest::Centroid>
TDigest::compact(std::vector<Centroid> All, double Total,
                 double Compression) {
  // The one ordering the compaction runs under: mean, then weight.
  // Ties in both fields merge to an identical centroid whichever comes
  // first, so the compacted digest is a pure function of the multiset
  // of input centroids.
  std::sort(All.begin(), All.end(),
            [](const Centroid &A, const Centroid &B) {
              return A.Mean != B.Mean ? A.Mean < B.Mean
                                      : A.Weight < B.Weight;
            });
  std::vector<Centroid> Out;
  Out.reserve(All.size());
  double SoFar = 0; // Weight fully to the left of Out.back().
  for (const Centroid &C : All) {
    if (!Out.empty()) {
      double W = Out.back().Weight + C.Weight;
      double Q = (SoFar + W / 2) / Total;
      double Limit = 4 * Total * Q * (1 - Q) / Compression;
      if (W <= Limit) {
        Out.back().Mean =
            (Out.back().Mean * Out.back().Weight + C.Mean * C.Weight) / W;
        Out.back().Weight = W;
        continue;
      }
      SoFar += Out.back().Weight;
    }
    Out.push_back(C);
  }
  return Out;
}

void TDigest::flush() const {
  if (Buffer.empty())
    return;
  std::vector<Centroid> All = Centroids;
  All.reserve(All.size() + Buffer.size());
  for (double X : Buffer)
    All.push_back({X, 1});
  Buffer.clear();
  Centroids = compact(std::move(All), Total, Compression);
}

double TDigest::quantile(double Q) const {
  assert(Q >= 0.0 && Q <= 1.0 && "quantile fraction out of range");
  flush();
  if (Centroids.empty())
    return 0;
  if (Centroids.size() == 1)
    return Centroids.front().Mean;
  // Type-7 target rank, interpolated between centroid center ranks
  // cum + (w - 1) / 2 — for singleton centroids the center rank of the
  // i-th centroid is exactly i, so this reduces to percentile().
  double R = Q * (Total - 1);
  double Cum = 0;
  double PrevCenter = (Centroids.front().Weight - 1) / 2;
  if (R <= PrevCenter)
    return Centroids.front().Mean;
  for (size_t I = 1; I < Centroids.size(); ++I) {
    Cum += Centroids[I - 1].Weight;
    double Center = Cum + (Centroids[I].Weight - 1) / 2;
    if (R <= Center) {
      double Frac = (R - PrevCenter) / (Center - PrevCenter);
      return Centroids[I - 1].Mean +
             Frac * (Centroids[I].Mean - Centroids[I - 1].Mean);
    }
    PrevCenter = Center;
  }
  return Centroids.back().Mean;
}

double pbt::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values) {
    assert(V > 0 && "geomean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

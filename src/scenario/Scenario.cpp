//===- scenario/Scenario.cpp - Traffic-scenario specifications ------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "scenario/Scenario.h"

#include "support/Hashing.h"
#include "support/Rng.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

using namespace pbt;

std::string ScenarioSpec::label() const {
  char Buf[64];
  std::string Out;
  switch (Arrival) {
  case ArrivalProcess::Batch:
    Out = "batch";
    break;
  case ArrivalProcess::Poisson:
    std::snprintf(Buf, sizeof(Buf), "poisson[%g", Rate);
    Out = Buf;
    break;
  }
  if (!isBatch()) {
    if (ArrivalSeed != DefaultArrivalSeed) {
      std::snprintf(Buf, sizeof(Buf), ",s%llu",
                    static_cast<unsigned long long>(ArrivalSeed));
      Out += Buf;
    }
    Out += "]";
  }
  if (!isBatch() && MaxInFlight > 0) {
    std::snprintf(Buf, sizeof(Buf), "+mpl%u", MaxInFlight);
    Out += Buf;
  }
  return Out;
}

bool ScenarioSpec::operator==(const ScenarioSpec &Other) const {
  if (Arrival != Other.Arrival)
    return false;
  if (isBatch())
    return true; // Open-system knobs don't affect a batch replay.
  return ArrivalSeed == Other.ArrivalSeed &&
         MaxInFlight == Other.MaxInFlight && Rate == Other.Rate;
}

uint64_t pbt::hashValue(const ScenarioSpec &Spec) {
  uint64_t H = hashCombine(0x5CE7A210, static_cast<uint64_t>(Spec.Arrival));
  if (Spec.isBatch())
    return H;
  H = hashCombine(H, Spec.ArrivalSeed);
  H = hashCombine(H, Spec.MaxInFlight);
  return hashCombine(H, hashDouble(Spec.Rate));
}

namespace {

/// Deterministic per-arrival branch seed, decorrelated from the mix and
/// interarrival streams (the Workload::jobSeed pattern).
uint64_t arrivalJobSeed(uint64_t ArrivalSeed, uint64_t Index) {
  SplitMix64 SM(ArrivalSeed ^ (Index * 0xD1B54A32D192ED03ULL));
  return SM.next() ^ 0x7AFF1C;
}

} // namespace

std::vector<ScenarioArrival>
pbt::scenarioArrivals(const ScenarioSpec &Spec, uint32_t NumBenchmarks,
                      double Horizon) {
  if (Spec.isBatch())
    return {};
  if (NumBenchmarks == 0)
    throw std::invalid_argument(
        "scenarioArrivals needs at least one benchmark in the mix");
  if (!(Spec.Rate > 0))
    throw std::invalid_argument(
        "ScenarioSpec::Rate must be positive (arrivals per second)");

  // Independent streams for gaps and mix, so Poisson scenarios with
  // equal seeds draw the identical benchmark sequence at any rate.
  Rng Root(Spec.ArrivalSeed);
  Rng Gaps = Root.split(0x6A95);
  Rng Mix = Root.split(0xB13D);

  std::vector<ScenarioArrival> Out;
  double Time = 0;
  for (uint64_t Index = 0;; ++Index) {
    // Exponential gap with mean 1/Rate; nextDouble() is in [0, 1) so
    // 1-u is in (0, 1] and the log is finite.
    Time += -std::log(1.0 - Gaps.nextDouble()) / Spec.Rate;
    // Half-open window [0, Horizon): an arrival at the horizon itself
    // could never spawn (the run ends once the clock reaches it), so
    // counting it would leave a phantom job the run never completes.
    if (Time >= Horizon)
      break;
    ScenarioArrival A;
    A.Time = Time;
    A.Bench = static_cast<uint32_t>(Mix.nextBelow(NumBenchmarks));
    A.Seed = arrivalJobSeed(Spec.ArrivalSeed, Index);
    Out.push_back(A);
  }
  return Out;
}

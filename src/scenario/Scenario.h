//===- scenario/Scenario.h - Traffic-scenario specifications ---*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traffic-scenario layer: declarative descriptions of *how jobs
/// arrive* at the simulated machine. The paper evaluates fixed
/// multiprogrammed mixes — every job present at cycle zero, a constant
/// number running until the horizon (a closed system). A ScenarioSpec
/// generalizes that into an open-system server model: jobs arrive over
/// simulated time according to a named arrival process, drawn from a
/// seeded job mix over the suite's benchmarks, until the horizon or
/// until the whole stream has completed. The batch-at-zero scenario is
/// the exact classic behaviour (proven bit-identical in
/// tests/scenario_test.cpp), so the scenario is a pure replay-time axis
/// like SchedulerSpec: it never affects suite preparation and is
/// excluded from every cache key.
///
/// **Determinism rules.** All randomness (interarrival gaps, benchmark
/// mix, per-job branch seeds) flows through seeded support/Rng streams
/// derived from ScenarioSpec::ArrivalSeed; arrival schedules are
/// materialized up front, sorted by time, and injected into the
/// Machine at quantum granularity. Replays of the same spec are
/// bit-identical across reruns and thread counts — no clocks, no
/// pointer order.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SCENARIO_SCENARIO_H
#define PBT_SCENARIO_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

namespace pbt {

/// How jobs arrive at the machine.
enum class ArrivalProcess : uint8_t {
  /// The paper's closed slot/queue system: every slot starts one job at
  /// time zero and refills on completion (constant multiprogramming).
  Batch,
  /// Open system, seeded pseudo-Poisson stream: exponential
  /// interarrival gaps with mean 1/Rate, drawn from support/Rng.
  Poisson,
};

/// One materialized arrival of an open-system schedule.
struct ScenarioArrival {
  /// Arrival time in simulated seconds (non-decreasing within a
  /// schedule; spawns fire at the first quantum boundary >= Time).
  double Time = 0;
  /// Benchmark index into the prepared suite.
  uint32_t Bench = 0;
  /// Branch seed of the spawned process (deterministic per arrival
  /// index, like Workload::jobSeed).
  uint64_t Seed = 0;
};

/// A named, declarative traffic scenario: the arrival-process analog of
/// SchedulerSpec, and a sweep axis of SweepGrid. Deliberately
/// orthogonal to suite preparation — scenarios only steer *when* the
/// dynamic replay spawns jobs, so TechniqueSpec::samePreparation and
/// every cache key exclude it and a scenario-only sweep replays cached
/// images without re-running the static pipeline.
struct ScenarioSpec {
  /// The canonical arrival seed used when an experiment does not vary
  /// the traffic randomness.
  static constexpr uint64_t DefaultArrivalSeed = 4242;

  ArrivalProcess Arrival = ArrivalProcess::Batch;
  /// Poisson: mean arrivals per simulated second (must be positive).
  double Rate = 0;
  /// Seeds the interarrival and job-mix streams of open scenarios
  /// (ignored by batch — the Workload's own queues and seeds apply).
  uint64_t ArrivalSeed = DefaultArrivalSeed;
  /// Closed-loop multiprogramming cap for open scenarios: arrivals
  /// beyond this many in-flight jobs queue at the door and are
  /// admitted as completions free capacity (0 = admit immediately).
  /// Ignored by batch, whose slot count fixes the multiprogramming.
  uint32_t MaxInFlight = 0;

  bool isBatch() const { return Arrival == ArrivalProcess::Batch; }

  /// The classic closed system (the default spec): bit-identical to
  /// the pre-scenario runWorkload path.
  static ScenarioSpec batch() { return ScenarioSpec(); }

  static ScenarioSpec poisson(double Rate,
                              uint64_t Seed = DefaultArrivalSeed) {
    ScenarioSpec S;
    S.Arrival = ArrivalProcess::Poisson;
    S.Rate = Rate;
    S.ArrivalSeed = Seed;
    return S;
  }

  /// Fluent admission-cap setter, so grids read
  /// `ScenarioSpec::poisson(4).withMaxInFlight(8)`.
  ScenarioSpec withMaxInFlight(uint32_t N) const {
    ScenarioSpec S = *this;
    S.MaxInFlight = N;
    return S;
  }

  /// Display label: "batch" or "poisson[4]", with a non-default seed
  /// marked ",s<seed>" inside the brackets and the optional "+mpl<cap>"
  /// suffix — so sweep cells labeled by scenario are self-describing.
  std::string label() const;

  /// Equality over the fields that affect a replay: batch ignores every
  /// open-system knob; poisson compares rate, seed and admission cap.
  bool operator==(const ScenarioSpec &Other) const;
  bool operator!=(const ScenarioSpec &Other) const {
    return !(*this == Other);
  }
};

/// Stable content hash mirroring ScenarioSpec::operator==.
uint64_t hashValue(const ScenarioSpec &Spec);

/// Materializes the arrival schedule of an open scenario: every arrival
/// with Time < \p Horizon (a half-open window), times non-decreasing,
/// benchmarks drawn uniformly from [0, \p NumBenchmarks), seeds per
/// arrival index. Returns an empty schedule for batch (the Workload's
/// slot queues arrive instead). Throws std::invalid_argument on a
/// non-positive Rate or a zero NumBenchmarks.
std::vector<ScenarioArrival> scenarioArrivals(const ScenarioSpec &Spec,
                                              uint32_t NumBenchmarks,
                                              double Horizon);

} // namespace pbt

#endif // PBT_SCENARIO_SCENARIO_H

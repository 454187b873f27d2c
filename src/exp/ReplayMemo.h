//===- exp/ReplayMemo.h - Driver-wide replay plan and memo -----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-process driver replays the same workloads over and over:
/// Table 2 and Fig. 8 replay the same queues under the same techniques
/// at two horizons, and the paper's quad baseline is replayed by five
/// experiments. The ReplayMemo lets the driver plan the whole run, then
/// replay it as one batch:
///
///  1. plan — every selected body runs once with the memo in planning
///     mode: ExperimentHarness::sweep() records its (Lab, SweepGrid)
///     and returns a placeholder result, tables/notes/artifacts are
///     suppressed, and any Lab request for real work (suite
///     preparation, isolated jobs) stops the body with ReplayPlanStop;
///  2. prefetch — prefetchSweeps (exp/Sweep.h) keys every recorded job
///     by content, merges jobs that differ only in a shareable horizon
///     into one simulation at the longest horizon, and runs all of them
///     as one longest-first ThreadPool batch into the memo;
///  3. serve — the bodies run normally; runSweep takes each job's
///     result from the memo and simulates only the misses.
///
/// The plan is only a prefetch hint: a memo entry is bit-identical to
/// the replay it stands for, so a wrong or incomplete plan costs time,
/// never correctness.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_REPLAYMEMO_H
#define PBT_EXP_REPLAYMEMO_H

#include "exp/Sweep.h"

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace pbt {
namespace exp {

/// Content key of one replay job: everything its RunResult depends on.
/// The horizon is part of the key only for open-stream jobs, whose
/// arrival schedule depends on it; for classic batch jobs, which share
/// horizon prefixes (see runWorkloadHorizons), it is 0, so replays of
/// one workload at different horizons share a key — and a simulation.
struct ReplayKey {
  uint64_t Lab = 0;        ///< Program set, machine shape, SimConfig.
  uint64_t Technique = 0;  ///< hashValue(TechniqueSpec), tuner included.
  uint64_t TypingSeed = 0;
  uint32_t Slots = 0;
  uint32_t JobsPerSlot = 0;
  uint64_t WorkloadSeed = 0;
  uint64_t Scheduler = 0;  ///< hashValue(SchedulerSpec).
  uint64_t Scenario = 0;   ///< hashValue(ScenarioSpec).
  uint32_t Engine = 0;
  double Horizon = 0;      ///< 0 for horizon-prefix (classic batch) jobs.

  auto tie() const {
    return std::tie(Lab, Technique, TypingSeed, Slots, JobsPerSlot,
                    WorkloadSeed, Scheduler, Scenario, Engine, Horizon);
  }
  bool operator<(const ReplayKey &O) const { return tie() < O.tie(); }
};

/// Thrown by Lab work requested while a plan is being recorded: planning
/// bodies never prepare or simulate, so a body stops at its first real
/// work and keeps whatever sweeps it recorded before.
class ReplayPlanStop : public std::runtime_error {
public:
  ReplayPlanStop()
      : std::runtime_error("replay planning stops at real lab work") {}
};

/// The process-wide replay plan and in-memory result memo.
class ReplayMemo {
public:
  /// The installed memo; null when the process runs without one (the
  /// standalone binaries, and traced driver runs: a memo-served job
  /// never reaches the per-unit trace sink inside runSweep).
  static ReplayMemo *current();

  /// Installs \p Memo process-globally (null uninstalls). Not
  /// thread-safe: install before launching bodies.
  static void install(ReplayMemo *Memo);

  // --- Plan pass ---

  void setPlanning(bool On) { Planning = On; }
  bool planning() const { return Planning; }

  /// One recorded sweep; the Lab is held alive until the prefetch.
  struct PlannedSweep {
    std::shared_ptr<Lab> L;
    SweepGrid Grid;
  };

  /// Records \p Grid on \p L for the prefetch.
  void record(std::shared_ptr<Lab> L, const SweepGrid &Grid);

  /// Hands the recorded sweeps to the prefetch, leaving none behind.
  std::vector<PlannedSweep> takePlan();

  // --- Prefetch ---

  /// Registers one planned consumer of the result (\p Key, \p Horizon).
  void expect(const ReplayKey &Key, double Horizon);

  /// Stores a prefetched result; it stays until its planned consumers
  /// have taken it. A result nobody expects is dropped.
  void put(const ReplayKey &Key, double Horizon, RunResult Run);

  // --- Serve pass ---

  /// Moves (for the last planned consumer) or copies the memoized
  /// result of (\p Key, \p Horizon) into \p Out; false on a miss.
  /// Counts replay_memo.hits / replay_memo.misses.
  bool take(const ReplayKey &Key, double Horizon, RunResult &Out);

  /// Results currently held (freed as their last consumer takes them).
  size_t size() const { return Results.size(); }

private:
  using EntryKey = std::pair<ReplayKey, double>;
  struct Entry {
    RunResult Run;
    uint32_t Remaining = 0; ///< Planned consumers yet to take it.
  };

  bool Planning = false;
  std::vector<PlannedSweep> Plan;
  std::map<EntryKey, uint32_t> Expected;
  std::map<EntryKey, Entry> Results;
};

/// True while the installed memo records a plan.
bool replayPlanning();

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_REPLAYMEMO_H

//===- exp/Guard.h - One timed, isolated experiment run ---------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault boundary between bench/driver and individual experiments:
/// `runGuarded` runs one experiment body once, inline on the calling
/// thread, times it, and reports what happened instead of letting a
/// single failing or throwing experiment take down the whole batch.
/// The driver wraps every registered experiment in it, so one failure
/// degrades to a line in `BENCH_driver.json`'s failure summary (and a
/// nonzero driver exit) while every other experiment still runs and
/// still emits its byte-identical `BENCH_*.json`.
///
/// Every body is a deterministic function of its inputs, so a second
/// attempt would replay the same failure: there is exactly one attempt
/// and no in-process timeout. Bound a run's wall clock from outside,
/// e.g. `timeout 600 driver --only=...`.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_GUARD_H
#define PBT_EXP_GUARD_H

#include <functional>
#include <string>

namespace pbt {
namespace exp {

/// What one guarded execution did.
struct GuardedResult {
  enum class Status {
    Ok,       ///< Returned 0.
    Failed,   ///< Returned nonzero.
    Exception ///< Threw (Error holds the what()).
  };

  Status St = Status::Ok;
  int ExitCode = 0;           ///< The body's return value; -1 if it threw.
  double DurationSeconds = 0; ///< Wall clock of the run.
  std::string Error;          ///< Exception text; empty otherwise.

  bool ok() const { return St == Status::Ok; }
  /// Stable lowercase name ("ok", "failed", "exception") for the
  /// driver's JSON report.
  const char *statusName() const;
};

/// Runs \p Fn once and times it. Never throws; every outcome is a
/// result.
GuardedResult runGuarded(const std::function<int()> &Fn);

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_GUARD_H

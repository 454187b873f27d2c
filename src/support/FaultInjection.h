//===- support/FaultInjection.h - Seeded filesystem fault seam -*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, seeded fault-injection seam for the persistent
/// store's filesystem operations. The crash-safety contract of
/// `exp/CacheStore` — torn writes quarantined, stale temp files swept,
/// kill -9 mid-store survivable — is only worth anything if it is
/// exercised, so every store-side filesystem primitive consults this
/// seam at its decision points:
///
///  - **EIO** (`failOp`): opening the temp file fails outright; the
///    caller must degrade (a failed save is a skipped write-back, never
///    an aborted run).
///  - **Short write** (`truncateWrite`): only a prefix of the payload
///    reaches the temp file and the writer "crashes" before noticing —
///    modeled as a failed write that leaves the truncated `.tmp` file
///    behind for the startup sweep to collect.
///  - **Torn rename** (`tornRename`): the destination ends up with a
///    prefix of the data while the writer believes the rename
///    succeeded — modeling a non-atomic filesystem or a crash inside
///    the rename; the next reader must quarantine the torn entry.
///  - **Crash points** (`crashPoint`): `_exit(137)` (the kill -9 exit
///    status) on the N-th hit of a named point, e.g. mid-payload,
///    after the temp write, or just before an entry write — used by
///    the fork-based crash tests in `tests/cache_stress_test.cpp`.
///  - **Vanish** (`maybeVanish`): deletes a file out from under the
///    caller just before it acts on it, simulating a concurrent
///    process evicting the same entry (the gc ENOENT race).
///
/// All randomness flows through one seeded `Rng`, so a fault schedule
/// is reproducible for a given seed and query sequence. Faults are off
/// by default and cost one relaxed atomic load per decision point when
/// disarmed. Configuration is programmatic (`configure`) or via the
/// `PBT_FAULTS` environment variable, parsed on first use (a malformed
/// spec prints the parse error and exits 2 — never std::terminate):
///
///   PBT_FAULTS="seed=7,eio=0.05,short_write=0.1,torn_rename=0.1,
///               vanish=0.5,crash_at=store.before_write:2"
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_FAULTINJECTION_H
#define PBT_SUPPORT_FAULTINJECTION_H

#include "support/Rng.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace pbt {

/// One fault-injection configuration; all-zero means disarmed.
struct FaultConfig {
  uint64_t Seed = 0;      ///< Seeds the decision stream.
  double EioP = 0;        ///< P(filesystem op fails with an I/O error).
  double ShortWriteP = 0; ///< P(temp write truncated + left behind).
  double TornRenameP = 0; ///< P(rename lands a prefix of the data).
  double VanishP = 0;     ///< P(file deleted under the caller).
  std::string CrashPoint; ///< Named crash point; empty = never crash.
  uint32_t CrashAtHit = 1; ///< _exit(137) on this hit of CrashPoint.

  /// True when any fault can fire.
  bool enabled() const {
    return EioP > 0 || ShortWriteP > 0 || TornRenameP > 0 || VanishP > 0 ||
           !CrashPoint.empty();
  }
};

/// The process-wide fault-injection seam (see file comment).
class FaultInjection {
public:
  /// The singleton. First use installs `PBT_FAULTS` when set.
  static FaultInjection &instance();

  /// Parses a `key=value,...` spec (keys: seed, eio, short_write,
  /// torn_rename, vanish, crash_at=<point>[:<hit>]). Throws
  /// std::invalid_argument on unknown keys or malformed values: integers
  /// are decimal digits only, range-checked (seed < 2^64, hit in
  /// [1, 2^32)); probabilities are numbers in [0,1], never NaN, with no
  /// leading whitespace.
  static FaultConfig parse(const std::string &Spec);

  /// Installs \p C, resetting the decision stream and crash counters.
  void configure(const FaultConfig &C);

  /// Disarms all faults.
  void reset() { configure(FaultConfig()); }

  /// True when any fault can fire (one relaxed load).
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// The active configuration.
  FaultConfig config() const;

  /// Decision points — all no-ops returning false when disarmed.
  bool failOp(const char *Op);        ///< EIO-style failure?
  bool truncateWrite(const char *Op); ///< Leave a short temp write?
  bool tornRename(const char *Op);    ///< Tear the rename?

  /// Deletes \p Path (simulating a concurrent evictor) with
  /// probability VanishP; returns true when it did.
  bool maybeVanish(const char *Op, const std::string &Path);

  /// `_exit(137)` when \p Point matches the configured crash point and
  /// this is its CrashAtHit-th hit.
  void crashPoint(const char *Point);

  /// Total decision points consulted since the last configure()
  /// (testing aid: proves the seam is actually on the path).
  uint64_t decisions() const;

private:
  FaultInjection() = default;

  bool roll(double P); ///< One seeded Bernoulli draw under Mutex.

  mutable std::mutex Mutex;
  FaultConfig Cfg;
  Rng Stream{0};
  uint64_t Decisions = 0;
  uint32_t CrashHits = 0;
  std::atomic<bool> Armed{false};
};

} // namespace pbt

#endif // PBT_SUPPORT_FAULTINJECTION_H

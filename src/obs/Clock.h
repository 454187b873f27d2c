//===- obs/Clock.h - The single vetted wall-clock seam ----------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place in src/ where wall-clock time may be read. Every other
/// file is covered by tools/lint_determinism.sh, which bans clock reads
/// outright: simulated results must be bit-reproducible, and the easiest
/// way to guarantee that is to make nondeterministic time impossible to
/// reach from simulation code.
///
/// Plane-2 observability (obs/Counters.h spans, guarded experiment
/// durations, per-pass Seconds) calls monotonicSeconds() instead of
/// std::chrono directly, so the allowlist vouches for exactly one
/// implementation file. Values derived from this clock may only feed
/// artifacts that every byte-identity check excludes (PROFILE_driver
/// .json, the driver's duration fields) — never TRACE_*.json or
/// BENCH_*.json payloads.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_OBS_CLOCK_H
#define PBT_OBS_CLOCK_H

namespace pbt {
namespace obs {

/// Monotonic wall-clock seconds since an arbitrary epoch. Differences
/// are meaningful; absolute values are not.
double monotonicSeconds();

} // namespace obs
} // namespace pbt

#endif // PBT_OBS_CLOCK_H

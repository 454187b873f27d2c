//===- bench/Registry.h - Experiment registry ------------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of experiment declarations. Each fig/table/sweep/ablation
/// source defines its body with PBT_EXPERIMENT(name) instead of main();
/// the body self-registers at static-initialization time. The same
/// object file then serves two link targets:
///
///  - the standalone binary (the .cpp linked with StandaloneMain.cpp),
///    which runs the single registered experiment, exactly as before;
///  - bench/driver, which links every experiment object and runs the
///    whole registry in one process over shared per-machine Labs, so
///    suite preparation is deduplicated across experiments.
///
/// Experiment bodies return the process exit code (0 on success) and
/// must not depend on process-global warm state: the harness guarantees
/// their BENCH_*.json artifacts are byte-identical either way.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_BENCH_REGISTRY_H
#define PBT_BENCH_REGISTRY_H

#include <vector>

namespace pbt {
namespace bench {

/// An experiment body: prints its tables and writes BENCH_<name>.json,
/// returning the exit code.
using ExperimentFn = int (*)();

/// One registered experiment declaration.
struct Experiment {
  const char *Name;
  ExperimentFn Fn;
};

/// All experiments linked into this binary, in registration order
/// (link-dependent; callers wanting a stable order sort by name).
const std::vector<Experiment> &experiments();

/// Registers \p Fn under \p Name; invoked by PBT_EXPERIMENT at static
/// initialization. Always returns true (the result anchors a static).
bool registerExperiment(const char *Name, ExperimentFn Fn);

} // namespace bench
} // namespace pbt

/// Defines and registers an experiment body:
///
///   PBT_EXPERIMENT(fig3_space_overhead) {
///     ExperimentHarness H("fig3_space_overhead", ...);
///     ...
///     return H.finish();
///   }
#define PBT_EXPERIMENT(NAME)                                                   \
  static int pbtExperimentBody_##NAME();                                       \
  [[maybe_unused]] static const bool PbtExperimentRegistered_##NAME =          \
      ::pbt::bench::registerExperiment(#NAME, &pbtExperimentBody_##NAME);      \
  static int pbtExperimentBody_##NAME()

#endif // PBT_BENCH_REGISTRY_H

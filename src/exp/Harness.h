//===- exp/Harness.h - Unified experiment harness --------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ExperimentHarness ties the experiment layer together for the
/// bench binaries: it owns one Lab per machine (each with its own suite
/// cache), executes declarative SweepGrids, and accumulates everything an
/// experiment produces — rendered tables, notes, and self-describing
/// sweep cells — into a canonical `BENCH_<name>.json` artifact written by
/// finish(). A binary becomes a thin declaration:
///
///   ExperimentHarness H("table2_fairness", "Table 2: ...", "CGO'11 ...");
///   SweepGrid G;
///   G.Techniques = ...;
///   G.Workloads = {{18, 800 * H.scale(), 21}};
///   SweepResult R = H.sweep(H.lab(), G);
///   ... build a Table from R ...
///   H.table(T);
///   H.note("paper reference points ...");
///   return H.finish();
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_HARNESS_H
#define PBT_EXP_HARNESS_H

#include "exp/Lab.h"
#include "exp/Sweep.h"
#include "support/Json.h"
#include "support/Table.h"

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pbt {
namespace exp {

/// A pool of per-machine Labs. Each ExperimentHarness owns one, but a
/// pool can also be shared across many harnesses (see
/// ExperimentHarness::setSharedLabPool): the one-process bench/driver
/// installs a single pool so all registered experiments reuse the same
/// labs — one isolated-runtime measurement and one suite cache per
/// machine for the whole run.
class LabPool {
public:
  /// The lab for \p MachineCfg, created on first use. Labs are matched
  /// by structural equality AND Name (two structurally equal machines
  /// with different display names get their own labs so artifacts label
  /// them correctly). Linear scan: a process touches a handful of
  /// machines at most.
  ///
  /// Resolution is thread-safe (the pool's map is mutex-guarded, and
  /// heap-allocated Labs keep their addresses across growth). The
  /// returned Lab is NOT thread-safe; bench/driver runs one experiment
  /// body at a time, so two bodies never share one Lab concurrently.
  Lab &lab(const MachineConfig &MachineCfg);

  /// Every lab created so far (driver diagnostics).
  std::vector<Lab *> labs();

  /// The owning handle of \p L when this pool created it, else null
  /// (the replay plan holds recorded labs alive through it).
  std::shared_ptr<Lab> share(const Lab &L);

private:
  std::mutex Mutex;
  std::vector<std::pair<MachineConfig, std::shared_ptr<Lab>>> Labs;
};

/// Shared driver for all experiment binaries: labs, sweeps, artifact.
class ExperimentHarness {
public:
  /// Prints the standard experiment banner and starts the artifact.
  /// \p Name keys the artifact file (`BENCH_<Name>.json`), \p Title is
  /// the human headline, \p PaperRef names the reproduced figure/table.
  ExperimentHarness(std::string Name, std::string Title,
                    std::string PaperRef);

  /// Horizon scale from PBT_BENCH_SCALE.
  double scale() const { return Scale; }

  /// The lab for \p MachineCfg, created on first use and shared (with
  /// its suite cache) by every sweep on that machine. Served from the
  /// process-wide shared pool when one is installed, the harness's own
  /// pool otherwise.
  Lab &lab(const MachineConfig &MachineCfg = MachineConfig::quadAsymmetric());

  /// Installs \p Pool as the process-wide lab pool every subsequently
  /// constructed (and existing) harness resolves lab() through; pass
  /// nullptr to restore per-harness pools. The caller keeps ownership
  /// and must keep \p Pool alive while installed. Experiment artifacts
  /// are byte-identical with and without a shared pool (prepared suites
  /// and isolated runtimes are deterministic, and artifacts carry no
  /// warm-state-dependent fields), which is what lets bench/driver share
  /// labs across all experiments; tests/exp_test.cpp locks this in.
  static void setSharedLabPool(LabPool *Pool);

  /// Registers a custom lab (subsetted programs, ablation SimConfigs)
  /// under the harness's lifetime and returns it.
  Lab &customLab(std::vector<Program> Programs, MachineConfig MachineCfg,
                 SimConfig Sim = SimConfig());

  /// Registers a custom lab over the paper suite that differs from the
  /// default lab only in \p Sim: it shares the process's one paper
  /// ProgramSet (see Lab), so nothing is rebuilt or rehashed.
  Lab &customLab(MachineConfig MachineCfg, SimConfig Sim);

  /// Runs \p Grid on \p L and records every cell (with technique /
  /// machine / workload / seed labels and canonical metrics) into the
  /// artifact's "sweeps" array. While the driver plans its replays
  /// (exp/ReplayMemo.h) it records the grid instead and returns a
  /// placeholder result.
  SweepResult sweep(Lab &L, const SweepGrid &Grid);

  /// Runs \p Grid once per machine of its machine axis (default:
  /// quadAsymmetric) on the corresponding lab; results are per machine,
  /// in axis order.
  std::vector<SweepResult> sweep(const SweepGrid &Grid);

  /// Prints \p T to stdout and records it in the artifact.
  void table(const Table &T);

  /// Prints \p Text (blank-line separated) and records it.
  void note(const std::string &Text);

  /// Free-form artifact section for experiment-specific extras.
  Json &json() { return Root; }

  /// Writes `BENCH_<name>.json`; returns the binary's exit code (0 on
  /// success, 1 when the artifact could not be written).
  int finish();

private:
  /// The owning handle of \p L (custom or pool lab), else null.
  std::shared_ptr<Lab> owner(const Lab &L);

  std::string Name;
  double Scale;
  Json Root;
  /// The harness's own labs, used when no shared pool is installed.
  LabPool OwnLabs;
  std::vector<std::shared_ptr<Lab>> CustomLabs;
};

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_HARNESS_H

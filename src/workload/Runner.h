//===- workload/Runner.h - Experiment preparation & execution --*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between the static pipeline and the simulator: prepares
/// instrumented benchmark images for a *technique* (baseline or a
/// phase-tuning variant), measures isolated runtimes (the t_i of the
/// paper's fairness metrics), and replays slot/queue workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_WORKLOAD_RUNNER_H
#define PBT_WORKLOAD_RUNNER_H

#include "core/ErrorInjection.h"
#include "core/Instrument.h"
#include "core/Transitions.h"
#include "core/Tuner.h"
#include "ir/ProgramSet.h"
#include "scenario/Scenario.h"
#include "sim/Machine.h"
#include "support/ThreadPool.h"
#include "workload/Workload.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pbt {

/// A named configuration under test.
struct TechniqueSpec {
  /// Baseline = uninstrumented programs under the oblivious scheduler
  /// (the paper's "standard Linux assignment").
  bool Baseline = false;
  /// Phase-marking configuration (ignored for the baseline).
  TransitionConfig Transition;
  /// Dynamic-analysis configuration (ignored for the baseline).
  TunerConfig Tuner;
  /// Use the proof-of-concept static k-means typing instead of the
  /// behavioural oracle (Sec. II-A3 ablation).
  bool UseStaticTyping = false;
  /// Clustering-error fraction injected after typing (Fig. 7).
  double TypingError = 0;
  /// Instrumentation cost profile.
  MarkCostModel Cost = MarkCostModel::tuned();

  /// Unambiguous display label: "Linux" (baseline) or the transition
  /// label with static-typing / typing-error markers appended
  /// ("Loop[45]", "Loop[45]+static", "BB[15,0]+err10%"), so sweep cells
  /// labeled by technique are self-describing. OS-level strategies are
  /// not techniques: the HASS-style comparator lives on the scheduler
  /// axis (SchedulerSpec::hassStatic()).
  std::string label() const;

  static TechniqueSpec baseline() {
    TechniqueSpec T;
    T.Baseline = true;
    return T;
  }

  static TechniqueSpec tuned(TransitionConfig Transition, TunerConfig Tuner) {
    TechniqueSpec T;
    T.Transition = Transition;
    T.Tuner = Tuner;
    return T;
  }

  bool operator==(const TechniqueSpec &Other) const {
    return samePreparation(Other) && Tuner == Other.Tuner;
  }
  bool operator!=(const TechniqueSpec &Other) const {
    return !(*this == Other);
  }

  /// True when \p Other prepares bit-identical suites: every field except
  /// Tuner, which only parameterizes the dynamic analysis at spawn time
  /// and never affects typing/marking/instrumentation/flat images. The
  /// suite cache keys on this relation, so sweeps that vary only the
  /// tuner reuse prepared images.
  bool samePreparation(const TechniqueSpec &Other) const {
    return Baseline == Other.Baseline && Transition == Other.Transition &&
           UseStaticTyping == Other.UseStaticTyping &&
           TypingError == Other.TypingError && Cost == Other.Cost;
  }

  /// Stable content hash mirroring samePreparation (Tuner excluded).
  uint64_t preparationHash() const;
};

/// Stable content hash over every TechniqueSpec field.
uint64_t hashValue(const TechniqueSpec &Tech);

/// Ready-to-run benchmark images for one technique on one machine.
/// Deliberately scheduler-free: the same prepared suite replays under
/// any SchedulerSpec (OS-level assignment, including the HASS-static
/// comparator's spawn pinning, lives entirely in the scheduler policy).
struct PreparedSuite {
  std::vector<std::shared_ptr<const InstrumentedProgram>> Images;
  std::vector<std::shared_ptr<const CostModel>> Costs;
  /// Fused flat execution images, one per benchmark, shared by every
  /// process spawned from this suite (built once at preparation time).
  std::vector<std::shared_ptr<const FlatImage>> Flats;
  std::vector<std::string> Names;
  TunerConfig Tuner;
};

/// Prepared artifacts of one program: the per-program slice of a
/// PreparedSuite. The unit of incremental preparation — exp/SuiteCache
/// stores and reloads these individually (`pbt-prog-v3` entries) and
/// assembles suites from them.
struct PreparedProgram {
  std::shared_ptr<const InstrumentedProgram> Image;
  std::shared_ptr<const CostModel> Cost;
  std::shared_ptr<const FlatImage> Flat;
};

/// Runs the static preparation pipeline (analysis/PassManager.h) over
/// \p Programs for \p Tech on \p Machine and returns one
/// PreparedProgram per input, in input order. \p TypingSeed drives
/// k-means and error injection. The per-program steps are independent,
/// so they fan out over \p Pool (the global thread pool when null) with
/// by-index writes: output is bit-identical to the serial loop
/// regardless of pool size. Every image carries its own copy of its
/// program, made on the pool.
std::vector<PreparedProgram>
preparePrograms(const std::vector<Program> &Programs,
                const MachineConfig &Machine, const TechniqueSpec &Tech,
                uint64_t TypingSeed = 42, ThreadPool *Pool = nullptr);

/// preparePrograms over the programs of \p Set listed in \p Indices
/// (result I is Set[Indices[I]]'s). The images alias their programs in
/// the set instead of copying them; the set lives as long as any image.
/// Output is otherwise bit-identical to the by-reference overload.
std::vector<PreparedProgram>
preparePrograms(const std::shared_ptr<const ProgramSet> &Set,
                const std::vector<size_t> &Indices,
                const MachineConfig &Machine, const TechniqueSpec &Tech,
                uint64_t TypingSeed = 42, ThreadPool *Pool = nullptr);

/// The suite of \p Programs from their prepared artifacts \p Prepared
/// (one per program, in order), tuned by \p Tech's tuner.
PreparedSuite assembleSuite(const std::vector<Program> &Programs,
                            std::vector<PreparedProgram> Prepared,
                            const TechniqueSpec &Tech);

/// Types + marks + instruments every program for \p Tech on \p Machine
/// by running the pass-manager pipeline (see preparePrograms) and
/// assembling the results into a suite.
PreparedSuite prepareSuite(const std::vector<Program> &Programs,
                           const MachineConfig &Machine,
                           const TechniqueSpec &Tech,
                           uint64_t TypingSeed = 42,
                           ThreadPool *Pool = nullptr);

/// The pre-pass-manager monolithic pipeline, kept verbatim as the
/// reference implementation for the promotion contract: tests assert
/// prepareSuite output is bit-identical to this path. Not used by
/// production code.
PreparedSuite prepareSuiteMonolithic(const std::vector<Program> &Programs,
                                     const MachineConfig &Machine,
                                     const TechniqueSpec &Tech,
                                     uint64_t TypingSeed = 42,
                                     ThreadPool *Pool = nullptr);

/// Isolated runtime t_i of each program: uninstrumented, alone on the
/// machine, canonical branch seed. The per-program simulations are
/// independent, so they run concurrently on the global thread pool;
/// results are ordered (and bit-identical to) the serial loop.
std::vector<double> isolatedRuntimes(const std::vector<Program> &Programs,
                                     const MachineConfig &Machine,
                                     const SimConfig &Sim = SimConfig());

/// isolatedRuntimes over an already prepared baseline suite (callers
/// with a suite cache avoid re-running the static pipeline; exp::Lab
/// uses this so isolated-runtime measurement shares cached images).
std::vector<double> isolatedRuntimes(const PreparedSuite &BaselineSuite,
                                     const MachineConfig &Machine,
                                     const SimConfig &Sim = SimConfig());

/// One finished job of a workload run.
struct CompletedJob {
  uint32_t Bench = 0;
  int32_t Slot = -1;
  /// When the job arrived: for open scenarios the *scheduled* arrival
  /// instant of the stream — turnaround and slowdown include any
  /// door-queue (MaxInFlight) and quantum-alignment wait — and for
  /// batch runs the spawn time, as always.
  double Arrival = 0;
  /// When the job entered the machine (spawn). Equals Arrival for
  /// batch runs; >= Arrival for open scenarios (Admitted - Arrival is
  /// the admission delay).
  double Admitted = 0;
  double Completion = 0;
  /// Isolated runtime t_i of the benchmark (0 when not supplied).
  double Isolated = 0;
  ProcessStats Stats;
};

/// Outcome of a workload run.
struct RunResult {
  /// Simulated end of the run: the requested horizon for classic batch
  /// runs without a stop rule; the actual clock (quantized to whole
  /// timeslices) for open-scenario runs and for any run with a
  /// job-count stop rule, which may end early.
  double Horizon = 0;
  /// Instructions retired machine-wide within the horizon (throughput).
  uint64_t InstructionsRetired = 0;
  /// Completed jobs in canonical order. Stays EMPTY when the run was
  /// given a completion sink (see runWorkload's OnCompleted): jobs are
  /// delivered to the sink instead of buffered, which is what keeps a
  /// long-horizon run's memory O(1) in job count.
  std::vector<CompletedJob> Completed;
  /// Jobs completed within the horizon — Completed.size() for buffered
  /// runs, and still meaningful for sink-fed runs.
  size_t CompletedCount = 0;
  /// Aggregates over all processes (finished or not).
  uint64_t TotalSwitches = 0;
  uint64_t TotalMarks = 0;
  uint64_t CounterWaits = 0;
  double TotalOverheadCycles = 0;
  double TotalCycles = 0;
  /// Per-core busy fraction over the horizon (utilization diagnostic).
  std::vector<double> CoreBusy;
  /// Machine-wide scheduler telemetry summed over all processes,
  /// indexed by core type: what ran where (see SchedTelemetry).
  /// CyclesByType is a float accumulation, so it carries FastReplay's
  /// ulp-level drift — sweeps export it into artifacts only on request
  /// (SweepGrid::ExportTelemetry) and exact-engine grids.
  std::vector<uint64_t> InstsByType;
  std::vector<double> CyclesByType;
};

/// Replays \p W on \p MachineCfg for \p Horizon simulated seconds under
/// the OS policy named by \p Sched (the oblivious Linux-like baseline by
/// default — the exact policy every pre-scheduler-axis experiment ran)
/// and the traffic scenario \p Scenario (batch-at-zero by default — the
/// classic closed system, bit-identical to the pre-scenario path; open
/// scenarios ignore \p W's queues entirely and draw their own seeded
/// job stream over the suite). \p Isolated, when non-empty,
/// supplies per-benchmark t_i values copied into CompletedJob::Isolated
/// (the slowdown oracle of metrics/Latency). RunResult::Completed is
/// canonically ordered (completion time, then slot/arrival/bench as
/// tie-breaks) so downstream tables are stable however the run was
/// scheduled.
///
/// \p OnCompleted, when set, receives each completed job the moment it
/// finishes (deterministic machine exit order — NOT the canonical
/// sorted order) and RunResult::Completed stays empty: run memory is
/// O(1) in job count. Feed the jobs into streaming metric accumulators
/// (LatencyAccumulator / FairnessAccumulator, declared in metrics/ —
/// the sink is a plain callback precisely so this layer never depends
/// on the metrics layer above it). Buffered and sink-fed replays of
/// the same job are bit-identical simulations; only where the
/// CompletedJob goes differs.
/// \p Trace, when non-null, attaches a Plane-1 trace sink for the
/// replay (obs/Trace.h): the simulation is bit-identical with or
/// without it — tracing only observes.
using CompletionSink = std::function<void(const CompletedJob &)>;
RunResult runWorkload(const PreparedSuite &Suite, const Workload &W,
                      const MachineConfig &MachineCfg, const SimConfig &Sim,
                      double Horizon,
                      const std::vector<double> &Isolated = {},
                      const SchedulerSpec &Sched = SchedulerSpec(),
                      const ScenarioSpec &Scenario = ScenarioSpec(),
                      const CompletionSink &OnCompleted = nullptr,
                      obs::TraceSink *Trace = nullptr);

/// True when replays under \p Scenario share horizon prefixes: the
/// classic batch run (batch arrivals, no job-count stop rule) walks the
/// same simulation whatever its horizon, so a replay to H1 is a prefix
/// of the same replay to H2 > H1. Open streams and stop rules are not:
/// their arrival schedule or stopping point depends on the horizon.
bool sharesHorizonPrefix(const ScenarioSpec &Scenario);

/// runWorkload at several horizons from as few simulations as possible:
/// result I is bit-identical to runWorkload at \p Horizons[I]. Under a
/// horizon-prefix scenario (sharesHorizonPrefix) one simulation runs to
/// the longest horizon and a RunResult is snapshotted as it passes each
/// shorter one; any other scenario simulates each horizon separately.
/// Horizons may repeat and come in any order.
std::vector<RunResult> runWorkloadHorizons(
    const PreparedSuite &Suite, const Workload &W,
    const MachineConfig &MachineCfg, const SimConfig &Sim,
    const std::vector<double> &Horizons,
    const std::vector<double> &Isolated = {},
    const SchedulerSpec &Sched = SchedulerSpec(),
    const ScenarioSpec &Scenario = ScenarioSpec());

/// One workload replay request for the parallel runner. Pointees must
/// outlive the runWorkloads call.
struct WorkloadJob {
  const PreparedSuite *Suite = nullptr;
  const Workload *W = nullptr;
  const MachineConfig *Machine = nullptr;
  SimConfig Sim;
  double Horizon = 0;
  /// Optional per-benchmark t_i values (see runWorkload).
  const std::vector<double> *Isolated = nullptr;
  /// OS scheduling policy of this replay (oblivious by default).
  SchedulerSpec Sched;
  /// Traffic scenario of this replay (classic batch-at-zero by default).
  ScenarioSpec Scenario;
  /// Plane-1 trace identity of this replay: when non-empty AND tracing
  /// is enabled process-wide, the runner opens a per-unit sink named
  /// TRACE_<experiment>.g<TraceGroup>.<TraceUnit>.json. Unit ids come
  /// from the sweep plan, so file names — and contents — are
  /// independent of thread scheduling. An empty TraceUnit is "off".
  std::string TraceUnit;
  uint64_t TraceGroup = 0;
};

/// Replays all jobs concurrently on the global thread pool. Each job is
/// a fully independent simulation (own machine, own process RNG streams
/// derived from the workload's deterministic seeds), so every result is
/// bit-identical to a serial runWorkload call, and results are returned
/// in input order regardless of completion order.
std::vector<RunResult> runWorkloads(const std::vector<WorkloadJob> &Jobs);

/// Runs benchmark \p Bench of \p Suite alone to completion; returns the
/// finished process's record (Table 1 / Fig. 5 per-benchmark data).
/// Always runs under the oblivious scheduler: the isolated runtime t_i
/// is *defined* against the paper's Linux baseline, so the fairness
/// metrics stay comparable across scheduler-axis sweeps.
CompletedJob runIsolated(const PreparedSuite &Suite, uint32_t Bench,
                         const MachineConfig &MachineCfg,
                         const SimConfig &Sim, uint64_t Seed = 1);

} // namespace pbt

#endif // PBT_WORKLOAD_RUNNER_H

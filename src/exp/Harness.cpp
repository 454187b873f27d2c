//===- exp/Harness.cpp - Unified experiment harness -----------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Harness.h"

#include "exp/ReplayMemo.h"

#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Env.h"
#include "support/Hashing.h"

#include <cstdio>
#include <set>

using namespace pbt;
using namespace pbt::exp;

Lab &LabPool::lab(const MachineConfig &MachineCfg) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Entry : Labs)
    if (Entry.first == MachineCfg && Entry.first.Name == MachineCfg.Name)
      return *Entry.second;
  Labs.emplace_back(MachineCfg, std::make_shared<Lab>(MachineCfg));
  return *Labs.back().second;
}

std::shared_ptr<Lab> LabPool::share(const Lab &L) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Entry : Labs)
    if (Entry.second.get() == &L)
      return Entry.second;
  return nullptr;
}

std::vector<Lab *> LabPool::labs() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Lab *> Out;
  Out.reserve(Labs.size());
  for (auto &Entry : Labs)
    Out.push_back(Entry.second.get());
  return Out;
}

namespace {
/// Installed by bench/driver (see setSharedLabPool); null means every
/// harness uses its own pool.
LabPool *SharedLabs = nullptr;
} // namespace

void ExperimentHarness::setSharedLabPool(LabPool *Pool) { SharedLabs = Pool; }

ExperimentHarness::ExperimentHarness(std::string NameIn, std::string Title,
                                     std::string PaperRef)
    : Name(std::move(NameIn)), Scale(envScale()) {
  if (!replayPlanning())
    std::printf("== %s ==\n(reproduces %s; PBT_BENCH_SCALE=%.2f scales "
                "the simulated horizon)\n\n",
                Title.c_str(), PaperRef.c_str(), Scale);
  // Plane-1 tracing names files after the experiment; constructing the
  // harness scopes subsequent sweeps (and resets the per-experiment
  // trace-group counter).
  obs::setTraceExperiment(Name);
  // v7: cells may carry an opt-in "telemetry" block (per-core-type
  // instructions/cycles and IPC, SweepGrid::ExportTelemetry); grids
  // that do not opt in emit cells unchanged from v6. v6: the sharded
  // experiment fabric — shard-mode partial artifacts
  // carry a "shard" block and per-sweep unit counts in place of cells
  // (full single-process and merged artifacts are unchanged in content
  // beyond the version tag). v5 gave sweeps[] the "engine" label
  // (which execution engine replayed the grid's cells — exact engines
  // vs validated fast-replay) and metrics "percentile_mode" (exact
  // sorted percentiles vs the streaming sketch); v4 added the per-cell
  // "scenario" label, the "latency" block, and "p95_flow"; v3 the
  // per-cell "scheduler" label; v2 replaced live suite_cache counters
  // with the grid-pure distinct_preparations — see
  // docs/BENCH_SCHEMA.md.
  Root["schema"] = "pbt-bench-v7";
  Root["bench"] = Name;
  Root["title"] = std::move(Title);
  Root["paper_ref"] = std::move(PaperRef);
  Root["scale"] = Scale;
}

Lab &ExperimentHarness::lab(const MachineConfig &MachineCfg) {
  return (SharedLabs ? *SharedLabs : OwnLabs).lab(MachineCfg);
}

Lab &ExperimentHarness::customLab(std::vector<Program> Programs,
                                  MachineConfig MachineCfg, SimConfig Sim) {
  CustomLabs.push_back(std::make_shared<Lab>(std::move(Programs),
                                             std::move(MachineCfg), Sim));
  return *CustomLabs.back();
}

Lab &ExperimentHarness::customLab(MachineConfig MachineCfg, SimConfig Sim) {
  CustomLabs.push_back(std::make_shared<Lab>(std::move(MachineCfg), Sim));
  return *CustomLabs.back();
}

std::shared_ptr<Lab> ExperimentHarness::owner(const Lab &L) {
  for (const std::shared_ptr<Lab> &Custom : CustomLabs)
    if (Custom.get() == &L)
      return Custom;
  return (SharedLabs ? *SharedLabs : OwnLabs).share(L);
}

bool ExperimentHarness::placeholderOutput() const {
  ShardRuntime *RT = ShardRuntime::current();
  return replayPlanning() || (RT && RT->shardingCells());
}

namespace {

Json runMetrics(const RunResult &Run, const FairnessMetrics &Fair,
                const LatencyMetrics &Latency) {
  Json M = Json::object();
  M["instructions"] = Run.InstructionsRetired;
  M["switches"] = Run.TotalSwitches;
  M["marks_fired"] = Run.TotalMarks;
  M["counter_waits"] = Run.CounterWaits;
  M["overhead_cycles"] = Run.TotalOverheadCycles;
  M["total_cycles"] = Run.TotalCycles;
  M["completed_jobs"] = Run.Completed.size();
  M["max_flow"] = Fair.MaxFlow;
  M["max_stretch"] = Fair.MaxStretch;
  M["avg_process_time"] = Fair.AvgProcessTime;
  M["p95_flow"] = Fair.P95Flow;
  // Sweep-cell metrics are always exact-percentile (artifacts are
  // compared byte for byte); the tag makes the mode explicit so
  // streamed-metrics artifacts can never be mistaken for exact ones.
  M["percentile_mode"] = percentileModeName(PercentileMode::Exact);
  Json L = Json::object();
  L["jobs"] = Latency.Jobs;
  L["mean_turnaround"] = Latency.MeanTurnaround;
  L["p50_turnaround"] = Latency.P50Turnaround;
  L["p95_turnaround"] = Latency.P95Turnaround;
  L["p99_turnaround"] = Latency.P99Turnaround;
  L["mean_slowdown"] = Latency.MeanSlowdown;
  L["p95_slowdown"] = Latency.P95Slowdown;
  L["max_slowdown"] = Latency.MaxSlowdown;
  L["jobs_per_megacycle"] = Latency.JobsPerMegacycle;
  M["latency"] = std::move(L);
  return M;
}

Json techniqueJson(const TechniqueSpec &Tech) {
  Json T = Json::object();
  T["label"] = Tech.label();
  T["baseline"] = Tech.Baseline;
  if (!Tech.Baseline) {
    T["strategy"] = strategyName(Tech.Transition.Strat);
    T["min_size"] = Tech.Transition.MinSize;
    T["lookahead"] = Tech.Transition.Lookahead;
    if (Tech.Transition.Naive)
      T["naive"] = true;
    T["ipc_delta"] = Tech.Tuner.IpcDelta;
    if (Tech.Tuner.SwitchToAllCores)
      T["switch_to_all_cores"] = true;
    if (Tech.UseStaticTyping)
      T["static_typing"] = true;
    if (Tech.TypingError > 0)
      T["typing_error"] = Tech.TypingError;
  }
  return T;
}

Json workloadJson(const WorkloadSpec &Spec) {
  Json W = Json::object();
  W["slots"] = Spec.Slots;
  W["jobs_per_slot"] = Spec.JobsPerSlot;
  W["horizon"] = Spec.Horizon;
  W["seed"] = Spec.Seed;
  return W;
}

} // namespace

SweepResult ExperimentHarness::sweep(Lab &L, const SweepGrid &Grid) {
  if (replayPlanning()) {
    // Plan pass: record the grid for the driver's prefetch (a lab the
    // harness cannot keep alive is left out — its jobs simply miss).
    if (std::shared_ptr<Lab> Owner = owner(L))
      ReplayMemo::current()->record(std::move(Owner), Grid);
    return placeholderSweep(Grid, L.machine());
  }

  ShardRuntime *RT = ShardRuntime::current();

  if (RT && RT->shardingCells()) {
    // Shard mode: replay only the units this shard owns and stream
    // them into the runtime's partial payload. The artifact records
    // unit counts instead of cells; the body gets a placeholder result
    // so its post-processing runs without real data (its tables and
    // notes are suppressed — see table()/note()).
    uint32_t Seq = RT->nextSweepSeq();
    SweepShardStats Stats = runSweepSharded(
        L, Grid, RT->spec(),
        [&](const std::string &Id, const RunResult &Run) {
          RT->recordUnit(Seq, Id, Run);
        });
    Json Record = Json::object();
    Record["machine"] = L.machine().Name;
    Record["engine"] = engineName(Grid.Engine);
    Record["units_total"] = Stats.UnitsTotal;
    Record["units_owned"] = Stats.UnitsOwned;
    Root["sweeps"].push(std::move(Record));
    return placeholderSweep(Grid, L.machine());
  }

  SweepResult Result;
  if (RT && RT->mergingCells()) {
    // Merge mode: identical assembly and metrics math, fed from the
    // recombined bit-exact units instead of fresh simulations.
    uint32_t Seq = RT->nextSweepSeq();
    Result = runSweepFromUnits(Grid, L.machine(),
                               [&](const std::string &Id) {
                                 return RT->findUnit(Seq, Id);
                               });
  } else {
    Result = runSweep(L, Grid);
  }

  // The same normalized axes runSweep executed over, so Cell.Scheduler
  // and Cell.Scenario always label what actually ran.
  const std::vector<SchedulerSpec> &Schedulers = Grid.effectiveSchedulers();
  const std::vector<ScenarioSpec> &Scenarios = Grid.effectiveScenarios();

  Json Cells = Json::array();
  for (const SweepCell &Cell : Result.Cells) {
    Json C = Json::object();
    C["technique"] = techniqueJson(Grid.Techniques[Cell.Technique]);
    C["scheduler"] = Schedulers[Cell.Scheduler].label();
    C["scenario"] = Scenarios[Cell.Scenario].label();
    C["workload"] = workloadJson(Grid.Workloads[Cell.Workload]);
    C["typing_seed"] = Grid.TypingSeeds[Cell.TypingSeed];
    C["metrics"] = runMetrics(Cell.Run, Cell.Fair, Cell.Latency);
    if (Grid.ExportTelemetry) {
      // Opt-in per-cell scheduler telemetry (pbt-bench-v7): what ran
      // on which core type. CyclesByType is a float accumulation, so
      // exporting grids should stay on the exact engines to keep the
      // artifact byte-identical across engine choices.
      Json Tel = Json::object();
      Json Insts = Json::array();
      Json Cycles = Json::array();
      Json Ipc = Json::array();
      for (size_t Ct = 0; Ct < Cell.Run.InstsByType.size(); ++Ct) {
        Insts.push(Cell.Run.InstsByType[Ct]);
        Cycles.push(Cell.Run.CyclesByType[Ct]);
        Ipc.push(Cell.Run.CyclesByType[Ct] > 0
                     ? static_cast<double>(Cell.Run.InstsByType[Ct]) /
                           Cell.Run.CyclesByType[Ct]
                     : 0.0);
      }
      Tel["insts_by_type"] = std::move(Insts);
      Tel["cycles_by_type"] = std::move(Cycles);
      Tel["ipc_by_type"] = std::move(Ipc);
      C["telemetry"] = std::move(Tel);
    }
    if (Grid.WithBaseline) {
      C["baseline"] = runMetrics(Result.base(Cell),
                                 Result.BaselineFair[Cell.Workload],
                                 Result.BaselineLatency[Cell.Workload]);
      Comparison Cmp = Result.comparison(Cell);
      Json Vs = Json::object();
      Vs["throughput_pct"] = Cmp.throughputImprovement();
      Vs["avg_time_pct"] = Cmp.avgTimeDecrease();
      Vs["max_flow_pct"] = Cmp.maxFlowDecrease();
      Vs["max_stretch_pct"] = Cmp.maxStretchDecrease();
      C["vs_baseline"] = std::move(Vs);
    }
    Cells.push(std::move(C));
  }

  // How many static-pipeline runs this grid needs on a cold cache: the
  // distinct (preparation, typing seed) pairs it references, plus the
  // baseline — always prepared, since runSweep measures isolated
  // runtimes through the cache even for WithBaseline = false grids. The
  // scheduler and scenario axes are deliberately absent: policies and
  // traffic scenarios only steer replays, so sweeps over those axes
  // alone need one preparation. A pure function of
  // the grid — unlike raw cache counters it does not depend on what ran
  // earlier in the process, so artifacts stay byte-identical between
  // standalone binaries and the one-process driver (whose warm labs may
  // satisfy the whole grid from cache).
  std::set<uint64_t> Preparations;
  for (const TechniqueSpec &Tech : Grid.Techniques)
    for (uint64_t TypingSeed : Grid.TypingSeeds)
      Preparations.insert(
          hashCombine(Tech.preparationHash(), TypingSeed));
  Preparations.insert(hashCombine(TechniqueSpec::baseline().preparationHash(),
                                  DefaultTypingSeed));

  Json Record = Json::object();
  Record["machine"] = L.machine().Name;
  Record["engine"] = engineName(Grid.Engine);
  Record["cells"] = std::move(Cells);
  Record["distinct_preparations"] = Preparations.size();
  Root["sweeps"].push(std::move(Record));
  return Result;
}

std::vector<SweepResult> ExperimentHarness::sweep(const SweepGrid &Grid) {
  std::vector<MachineConfig> Machines = Grid.Machines;
  if (Machines.empty())
    Machines.push_back(MachineConfig::quadAsymmetric());
  std::vector<SweepResult> Results;
  Results.reserve(Machines.size());
  for (const MachineConfig &MachineCfg : Machines)
    Results.push_back(sweep(lab(MachineCfg), Grid));
  return Results;
}

void ExperimentHarness::table(const Table &T) {
  // A sharding body's tables are computed from placeholder sweep data
  // (the real cells live in other shards' payloads); the merge replay
  // rebuilds them from the recombined units. A planning body's tables
  // are placeholders too; the serve pass renders the real ones.
  if (placeholderOutput())
    return;
  std::fputs(T.render().c_str(), stdout);
  Json Columns = Json::array();
  for (const std::string &Column : T.columns())
    Columns.push(Column);
  Json Rows = Json::array();
  for (const std::vector<std::string> &Row : T.rows()) {
    Json Cells = Json::array();
    for (const std::string &Cell : Row)
      Cells.push(Cell);
    Rows.push(std::move(Cells));
  }
  Json Record = Json::object();
  Record["columns"] = std::move(Columns);
  Record["rows"] = std::move(Rows);
  Root["tables"].push(std::move(Record));
}

void ExperimentHarness::note(const std::string &Text) {
  // Suppressed while sharding or planning, like table(): notes often
  // interpolate computed numbers, which are placeholders there.
  if (placeholderOutput())
    return;
  std::printf("\n%s\n", Text.c_str());
  Root["notes"].push(Text);
}

int ExperimentHarness::finish() {
  // A planning body's artifact would hold placeholders; the serve pass
  // writes the real one.
  if (replayPlanning())
    return 0;
  std::string Path = "BENCH_" + Name + ".json";
  if (ShardRuntime *RT = ShardRuntime::current()) {
    if (RT->mode() == ShardRuntime::Mode::Shard) {
      // Shard mode: the runtime writes the shard-suffixed artifact
      // (byte-identical content for whole experiments, a partial with
      // a shard block for sweep-cell ones) plus the cells payload, and
      // records both in the shard manifest.
      int Code = RT->finishArtifact(Name, Root);
      if (Code == 0)
        std::printf("wrote shard %s partial for %s\n",
                    RT->spec().label().c_str(), Name.c_str());
      return Code;
    }
    // Merge mode: same bytes as a single-process run, written where
    // the merge directs.
    Path = RT->mergedArtifactPath(Name);
  }
  obs::Span Write("harness.write_artifact");
  if (!writeJsonFile(Path, Root)) {
    std::perror(Path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", Path.c_str());
  return 0;
}

//===- exp/Sweep.cpp - Declarative technique/workload sweeps --------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Sweep.h"

#include "exp/ReplayMemo.h"

#include "obs/Counters.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <map>
#include <memory>

using namespace pbt;
using namespace pbt::exp;

Comparison SweepResult::comparison(const SweepCell &Cell) const {
  Comparison C;
  C.Base = base(Cell);
  C.Tuned = Cell.Run;
  C.BaseFair = BaselineFair[Cell.Workload];
  C.TunedFair = Cell.Fair;
  return C;
}

double SweepResult::throughputImprovement(const SweepCell &Cell) const {
  return percentIncrease(
      static_cast<double>(base(Cell).InstructionsRetired),
      static_cast<double>(Cell.Run.InstructionsRetired));
}

const std::vector<SchedulerSpec> &SweepGrid::effectiveSchedulers() const {
  // An empty scheduler axis means the classic single-policy grid.
  static const std::vector<SchedulerSpec> DefaultSchedulers = {
      SchedulerSpec()};
  return Schedulers.empty() ? DefaultSchedulers : Schedulers;
}

const std::vector<ScenarioSpec> &SweepGrid::effectiveScenarios() const {
  // An empty scenario axis means the classic batch-at-zero grid.
  static const std::vector<ScenarioSpec> DefaultScenarios = {ScenarioSpec()};
  return Scenarios.empty() ? DefaultScenarios : Scenarios;
}

namespace {

/// The one walker behind runSweep, prefetchSweeps and placeholderSweep:
/// the batch layout (baseline replays first, then all cells in
/// technique-major nest order, with baseline-coincident cells reusing
/// the baseline job) and the per-job ids come from here and nowhere
/// else. The ids name each job's TRACE_*.json file, so they are a pure
/// function of the grid.
struct SweepJobPlan {
  struct Coord {
    bool IsBaseline = false;
    size_t T = 0, W = 0, S = 0, C = 0, N = 0;
  };
  std::vector<Coord> Jobs;      ///< Per job, in batch order.
  std::vector<std::string> Ids; ///< Per job, its trace unit id.
  std::vector<size_t> CellJob;  ///< Per cell (nest order): job index.
  size_t BaselineJobs = 0;
};

SweepJobPlan planSweepJobs(const SweepGrid &Grid) {
  const std::vector<SchedulerSpec> &Schedulers = Grid.effectiveSchedulers();
  const std::vector<ScenarioSpec> &Scenarios = Grid.effectiveScenarios();
  SweepJobPlan Plan;
  Plan.BaselineJobs = Grid.WithBaseline ? Grid.Workloads.size() : 0;
  for (size_t W = 0; W < Plan.BaselineJobs; ++W) {
    SweepJobPlan::Coord Co;
    Co.IsBaseline = true;
    Co.W = W;
    Plan.Jobs.push_back(Co);
    Plan.Ids.push_back("base/w" + std::to_string(W));
  }
  for (size_t T = 0; T < Grid.Techniques.size(); ++T)
    for (size_t W = 0; W < Grid.Workloads.size(); ++W)
      for (size_t S = 0; S < Grid.TypingSeeds.size(); ++S)
        for (size_t C = 0; C < Schedulers.size(); ++C)
          for (size_t N = 0; N < Scenarios.size(); ++N) {
            // A cell that IS the paper's reference point (baseline
            // technique, oblivious scheduler, batch scenario) would
            // simulate the identical replay twice; it reuses the
            // baseline's job instead (bit-identical by construction:
            // same images, same tuner, same queues, same policy).
            if (Grid.WithBaseline &&
                Grid.Techniques[T] == TechniqueSpec::baseline() &&
                Schedulers[C] == SchedulerSpec() &&
                Scenarios[N] == ScenarioSpec()) {
              Plan.CellJob.push_back(W);
              continue;
            }
            Plan.CellJob.push_back(Plan.Jobs.size());
            SweepJobPlan::Coord Co;
            Co.T = T;
            Co.W = W;
            Co.S = S;
            Co.C = C;
            Co.N = N;
            Plan.Jobs.push_back(Co);
            Plan.Ids.push_back("cell/t" + std::to_string(T) + "/w" +
                               std::to_string(W) + "/s" + std::to_string(S) +
                               "/c" + std::to_string(C) + "/n" +
                               std::to_string(N));
          }
  return Plan;
}

/// Assembles a SweepResult from per-job results in batch order:
/// identical for simulated, memo-served and placeholder runs.
SweepResult assembleSweep(const SweepGrid &Grid, const SweepJobPlan &Plan,
                          const MachineConfig &Machine,
                          std::vector<RunResult> Runs) {
  const std::vector<SchedulerSpec> &Schedulers = Grid.effectiveSchedulers();
  const std::vector<ScenarioSpec> &Scenarios = Grid.effectiveScenarios();
  SweepResult Result;
  for (size_t W = 0; W < Plan.BaselineJobs; ++W) {
    Result.Baselines.push_back(std::move(Runs[W]));
    Result.BaselineFair.push_back(
        computeFairness(Result.Baselines.back().Completed));
    Result.BaselineLatency.push_back(
        computeLatency(Result.Baselines.back(), Machine));
  }

  size_t Next = 0;
  for (size_t T = 0; T < Grid.Techniques.size(); ++T)
    for (size_t W = 0; W < Grid.Workloads.size(); ++W)
      for (size_t S = 0; S < Grid.TypingSeeds.size(); ++S)
        for (size_t C = 0; C < Schedulers.size(); ++C)
          for (size_t N = 0; N < Scenarios.size(); ++N) {
            SweepCell Cell;
            Cell.Technique = static_cast<uint32_t>(T);
            Cell.Workload = static_cast<uint32_t>(W);
            Cell.TypingSeed = static_cast<uint32_t>(S);
            Cell.Scheduler = static_cast<uint32_t>(C);
            Cell.Scenario = static_cast<uint32_t>(N);
            size_t Job = Plan.CellJob[Next++];
            // Baseline jobs were moved into Result.Baselines above;
            // cells reusing one copy it, cells with their own job take
            // it.
            Cell.Run = Job < Plan.BaselineJobs ? Result.Baselines[Job]
                                               : std::move(Runs[Job]);
            Cell.Fair = computeFairness(Cell.Run.Completed);
            Cell.Latency = computeLatency(Cell.Run, Machine);
            Result.Cells.push_back(std::move(Cell));
          }
  return Result;
}

/// Materializes each workload shape once; baselines replay it once and
/// every cell of every technique reuses the identical queues/seeds (the
/// paper's same-queues methodology).
Workload materializeWorkload(const WorkloadSpec &Spec, size_t ProgramCount) {
  return Workload::random(Spec.Slots, Spec.JobsPerSlot,
                          static_cast<uint32_t>(ProgramCount), Spec.Seed);
}

/// Runnable replay jobs for a subset of one grid's plan, plus the suites
/// and workloads they point into. Suites are prepared (and isolated
/// runtimes measured) only for what the subset touches, so a subset
/// the replay memo serves entirely does no preparation at all. Jobs
/// point into the maps, so the set never moves once built.
struct SweepJobSet {
  std::map<size_t, PreparedSuite> Suites; ///< Keyed T * seeds + S.
  std::map<size_t, Workload> Workloads;   ///< Keyed by workload index.
  PreparedSuite BaselineSuite;
  std::vector<WorkloadJob> Jobs; ///< One per subset entry, in order.

  SweepJobSet() = default;
  SweepJobSet(const SweepJobSet &) = delete;
  SweepJobSet &operator=(const SweepJobSet &) = delete;
};

void buildSweepJobs(Lab &L, const SweepGrid &Grid, const SweepJobPlan &Plan,
                    const std::vector<size_t> &Subset, SweepJobSet &Out) {
  if (Subset.empty())
    return;
  const std::vector<SchedulerSpec> &Schedulers = Grid.effectiveSchedulers();
  const std::vector<ScenarioSpec> &Scenarios = Grid.effectiveScenarios();
  const std::vector<double> &Iso = L.isolated();
  bool NeedBaseline = false;
  for (size_t Job : Subset) {
    const SweepJobPlan::Coord &Co = Plan.Jobs[Job];
    if (!Out.Workloads.count(Co.W))
      Out.Workloads.emplace(
          Co.W, materializeWorkload(Grid.Workloads[Co.W],
                                    L.programs().size()));
    if (Co.IsBaseline) {
      NeedBaseline = true;
      continue;
    }
    size_t Key = Co.T * Grid.TypingSeeds.size() + Co.S;
    if (!Out.Suites.count(Key))
      Out.Suites.emplace(
          Key, L.suite(Grid.Techniques[Co.T], Grid.TypingSeeds[Co.S]));
  }
  if (NeedBaseline)
    Out.BaselineSuite = L.suite(TechniqueSpec::baseline());

  // Baselines always replay under the oblivious scheduler and the batch
  // scenario — the paper's fixed reference point. The grid's engine
  // applies to baselines and cells alike, so vs-baseline deltas always
  // compare like with like.
  SimConfig CellSim = L.sim();
  CellSim.Engine = Grid.Engine;
  Out.Jobs.reserve(Subset.size());
  for (size_t Job : Subset) {
    const SweepJobPlan::Coord &Co = Plan.Jobs[Job];
    WorkloadJob J;
    J.W = &Out.Workloads.at(Co.W);
    J.Machine = &L.machine();
    J.Sim = CellSim;
    J.Horizon = Grid.Workloads[Co.W].Horizon;
    J.Isolated = &Iso;
    if (Co.IsBaseline) {
      J.Suite = &Out.BaselineSuite;
    } else {
      J.Suite = &Out.Suites.at(Co.T * Grid.TypingSeeds.size() + Co.S);
      J.Sched = Schedulers[Co.C];
      J.Scenario = Scenarios[Co.N];
    }
    Out.Jobs.push_back(std::move(J));
  }
}

/// Replays the plan jobs listed in \p Subset as one parallel batch and
/// returns their results in subset order. Every job is an independent
/// simulation, so each result is bit-identical to the same job inside
/// any other batch. Trace identity comes from the whole-grid plan: job
/// ids are a pure function of the grid, so trace files come out
/// identical whatever thread runs which job.
std::vector<RunResult> replaySubset(Lab &L, const SweepGrid &Grid,
                                    const SweepJobPlan &Plan,
                                    const std::vector<size_t> &Subset,
                                    uint64_t TraceGroup) {
  SweepJobSet Set;
  buildSweepJobs(L, Grid, Plan, Subset, Set);
  for (size_t I = 0; I < Set.Jobs.size(); ++I) {
    Set.Jobs[I].TraceUnit = Plan.Ids[Subset[I]];
    Set.Jobs[I].TraceGroup = TraceGroup;
  }
  obs::Span Replay("sweep.replay");
  return runWorkloads(Set.Jobs);
}

/// The replay-memo key of plan job \p Co (see ReplayKey).
ReplayKey replayKey(Lab &L, const SweepGrid &Grid,
                    const SweepJobPlan::Coord &Co) {
  const WorkloadSpec &Spec = Grid.Workloads[Co.W];
  TechniqueSpec Tech = TechniqueSpec::baseline();
  uint64_t TypingSeed = DefaultTypingSeed;
  SchedulerSpec Sched;
  ScenarioSpec Scenario;
  if (!Co.IsBaseline) {
    Tech = Grid.Techniques[Co.T];
    TypingSeed = Grid.TypingSeeds[Co.S];
    Sched = Grid.effectiveSchedulers()[Co.C];
    Scenario = Grid.effectiveScenarios()[Co.N];
  }
  ReplayKey Key;
  Key.Lab = L.replayHash();
  Key.Technique = hashValue(Tech);
  Key.TypingSeed = TypingSeed;
  Key.Slots = Spec.Slots;
  Key.JobsPerSlot = Spec.JobsPerSlot;
  Key.WorkloadSeed = Spec.Seed;
  Key.Scheduler = hashValue(Sched);
  Key.Scenario = hashValue(Scenario);
  Key.Engine = static_cast<uint32_t>(Grid.Engine);
  Key.Horizon = Scenario.isBatch() ? 0 : Spec.Horizon;
  return Key;
}

} // namespace

SweepResult pbt::exp::runSweep(Lab &L, const SweepGrid &Grid) {
  SweepJobPlan Plan = planSweepJobs(Grid);
  // The group counter advances even when tracing is off, keeping trace
  // file names stable across --trace on/off reruns of the same build.
  uint64_t TraceGroup = obs::beginTraceGroup();

  // Jobs the driver's replay memo already holds are taken from it; only
  // the misses simulate, as one flat batch. Without a memo every job
  // misses — the classic path.
  std::vector<RunResult> Runs(Plan.Jobs.size());
  std::vector<size_t> Misses;
  ReplayMemo *Memo = ReplayMemo::current();
  for (size_t Job = 0; Job < Plan.Jobs.size(); ++Job)
    if (!Memo || !Memo->take(replayKey(L, Grid, Plan.Jobs[Job]),
                             Grid.Workloads[Plan.Jobs[Job].W].Horizon,
                             Runs[Job]))
      Misses.push_back(Job);
  obs::CounterRegistry::global().add("sweep.units_total", Plan.Jobs.size());
  std::vector<RunResult> Simulated =
      replaySubset(L, Grid, Plan, Misses, TraceGroup);
  for (size_t I = 0; I < Misses.size(); ++I)
    Runs[Misses[I]] = std::move(Simulated[I]);
  return assembleSweep(Grid, Plan, L.machine(), std::move(Runs));
}

void pbt::exp::prefetchSweeps(ReplayMemo &Memo) {
  std::vector<ReplayMemo::PlannedSweep> Sweeps = Memo.takePlan();

  // One simulation per distinct key, at every horizon any planned job
  // asks of it; the first job with the key (in plan order) stands for
  // the group. Every planned job also registers as a consumer, so each
  // memo entry lives exactly until its last consumer takes it.
  struct Group {
    ReplayKey Key;
    size_t Sweep = 0, Job = 0;          ///< The representative job.
    std::vector<double> Horizons;       ///< Distinct, ascending.
    const WorkloadJob *Run = nullptr;   ///< Built representative.
  };
  std::vector<Group> Groups; // In plan order of first sight.
  std::map<ReplayKey, size_t> GroupOf;
  std::vector<SweepJobPlan> Plans;
  Plans.reserve(Sweeps.size());
  uint64_t PlannedUnits = 0;
  for (size_t S = 0; S < Sweeps.size(); ++S) {
    Plans.push_back(planSweepJobs(Sweeps[S].Grid));
    const SweepJobPlan &Plan = Plans.back();
    for (size_t Job = 0; Job < Plan.Jobs.size(); ++Job) {
      ReplayKey Key = replayKey(*Sweeps[S].L, Sweeps[S].Grid, Plan.Jobs[Job]);
      double Horizon = Sweeps[S].Grid.Workloads[Plan.Jobs[Job].W].Horizon;
      Memo.expect(Key, Horizon);
      ++PlannedUnits;
      auto Ins = GroupOf.emplace(Key, Groups.size());
      if (Ins.second)
        Groups.push_back(Group{Key, S, Job, {}, nullptr});
      std::vector<double> &Hs = Groups[Ins.first->second].Horizons;
      auto At = std::lower_bound(Hs.begin(), Hs.end(), Horizon);
      if (At == Hs.end() || *At != Horizon)
        Hs.insert(At, Horizon);
    }
  }

  // Build each sweep's representative jobs. A sweep whose preparation
  // fails is left out: its jobs miss in the serve pass, where the
  // experiment's runGuarded call reports the failure.
  std::vector<std::vector<size_t>> GroupsOfSweep(Sweeps.size());
  for (size_t G = 0; G < Groups.size(); ++G)
    GroupsOfSweep[Groups[G].Sweep].push_back(G);
  std::vector<std::unique_ptr<SweepJobSet>> Sets;
  for (size_t S = 0; S < Sweeps.size(); ++S) {
    std::vector<size_t> Subset;
    for (size_t G : GroupsOfSweep[S])
      Subset.push_back(Groups[G].Job);
    Sets.push_back(std::make_unique<SweepJobSet>());
    try {
      buildSweepJobs(*Sweeps[S].L, Sweeps[S].Grid, Plans[S], Subset,
                     *Sets.back());
    } catch (...) {
      continue;
    }
    for (size_t I = 0; I < Subset.size(); ++I)
      Groups[GroupsOfSweep[S][I]].Run = &Sets.back()->Jobs[I];
  }

  // One batch, longest first (estimated cost: slots x longest horizon;
  // ties keep plan order), so the pool's dynamic index claiming is a
  // longest-processing-time list schedule and no long replay starts
  // last.
  std::vector<size_t> Order;
  for (size_t G = 0; G < Groups.size(); ++G)
    if (Groups[G].Run)
      Order.push_back(G);
  auto Cost = [&](size_t G) {
    return static_cast<double>(Groups[G].Run->W->numSlots()) *
           Groups[G].Horizons.back();
  };
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return Cost(A) > Cost(B); });
  std::vector<std::vector<RunResult>> Results(Order.size());
  ThreadPool::global().parallelFor(Order.size(), [&](size_t I) {
    const Group &G = Groups[Order[I]];
    const WorkloadJob &J = *G.Run;
    try {
      Results[I] = runWorkloadHorizons(*J.Suite, *J.W, *J.Machine, J.Sim,
                                       G.Horizons, *J.Isolated, J.Sched,
                                       J.Scenario);
    } catch (...) {
      // Left unmemoized: the serve pass simulates it and reports errors.
      Results[I].clear();
    }
  });

  uint64_t PrefixShared = 0;
  for (size_t I = 0; I < Order.size(); ++I) {
    const Group &G = Groups[Order[I]];
    for (size_t H = 0; H < Results[I].size(); ++H)
      Memo.put(G.Key, G.Horizons[H], std::move(Results[I][H]));
    PrefixShared += G.Horizons.size() - 1;
  }
  obs::CounterRegistry &Reg = obs::CounterRegistry::global();
  Reg.add("replay_memo.planned_units", PlannedUnits);
  Reg.add("replay_memo.simulated", Order.size());
  Reg.add("replay_memo.prefix_shared", PrefixShared);
  // Registered now so the profile lists the serve pass's counters even
  // when one of them stays zero.
  Reg.add("replay_memo.hits", 0);
  Reg.add("replay_memo.misses", 0);
}

SweepResult pbt::exp::placeholderSweep(const SweepGrid &Grid,
                                       const MachineConfig &Machine) {
  SweepJobPlan Plan = planSweepJobs(Grid);
  return assembleSweep(Grid, Plan, Machine,
                       std::vector<RunResult>(Plan.Jobs.size()));
}

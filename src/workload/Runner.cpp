//===- workload/Runner.cpp - Experiment preparation & execution -----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/Runner.h"

#include "analysis/BlockTyping.h"
#include "analysis/PassManager.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <deque>

using namespace pbt;

std::string TechniqueSpec::label() const {
  if (Baseline)
    return "Linux";
  std::string Out = Transition.label();
  if (UseStaticTyping)
    Out += "+static";
  if (TypingError > 0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "+err%g%%", 100.0 * TypingError);
    Out += Buf;
  }
  return Out;
}

uint64_t TechniqueSpec::preparationHash() const {
  uint64_t H = hashCombine(0x5E17E3, Baseline ? 1 : 0);
  H = hashCombine(H, hashValue(Transition));
  H = hashCombine(H, UseStaticTyping ? 1 : 0);
  H = hashCombine(H, hashDouble(TypingError));
  return hashCombine(H, hashValue(Cost));
}

uint64_t pbt::hashValue(const TechniqueSpec &Tech) {
  return hashCombine(Tech.preparationHash(), hashValue(Tech.Tuner));
}

namespace {

/// The full static pipeline for one program: cost model, typing, marking,
/// instrumentation, flat image. Pure function of its arguments, so the
/// per-program calls can run on any thread in any order.
PreparedProgram prepareOne(const Program &Prog, const MachineConfig &Machine,
                           const TechniqueSpec &Tech, uint64_t TypingSeed) {
  PreparedProgram Out;
  auto Cost = std::make_shared<const CostModel>(Prog, Machine);

  MarkingResult Marking;
  if (Tech.Baseline) {
    // Uninstrumented image: no marks; region typing is irrelevant.
    Marking.NumTypes = 1;
    Marking.RegionType.resize(Prog.Procs.size());
  } else {
    ProgramTyping Typing;
    if (Tech.UseStaticTyping) {
      TypingConfig Config;
      Config.Seed = TypingSeed;
      Typing = computeStaticTyping(Prog, Config);
    } else {
      Typing = computeOracleTyping(Prog, *Cost);
    }
    if (Tech.TypingError > 0)
      Typing = injectClusteringError(Typing, Tech.TypingError,
                                     TypingSeed ^ 0xE77);
    Marking = computeTransitions(Prog, Typing, Tech.Transition);
  }

  Out.Image = std::make_shared<const InstrumentedProgram>(
      Prog, std::move(Marking), Tech.Cost);
  Out.Cost = std::move(Cost);
  Out.Flat = std::make_shared<const FlatImage>(Out.Image, Out.Cost);
  return Out;
}

} // namespace

namespace {

/// Runs the pipeline over \p Ctx and moves its artifacts out, in
/// context order.
std::vector<PreparedProgram> runPipeline(PipelineContext &Ctx) {
  runPreparationPipeline(Ctx);
  std::vector<PreparedProgram> Out(Ctx.Programs.size());
  for (size_t Index = 0; Index < Out.size(); ++Index) {
    Out[Index].Image = std::move(Ctx.Programs[Index].Image);
    Out[Index].Cost = std::move(Ctx.Programs[Index].Cost);
    Out[Index].Flat = std::move(Ctx.Programs[Index].Flat);
  }
  return Out;
}

} // namespace

PreparedSuite pbt::assembleSuite(const std::vector<Program> &Programs,
                                 std::vector<PreparedProgram> Prepared,
                                 const TechniqueSpec &Tech) {
  PreparedSuite Suite;
  Suite.Tuner = Tech.Tuner;
  for (size_t Index = 0; Index < Programs.size(); ++Index) {
    Suite.Names.push_back(Programs[Index].Name);
    Suite.Images.push_back(std::move(Prepared[Index].Image));
    Suite.Costs.push_back(std::move(Prepared[Index].Cost));
    Suite.Flats.push_back(std::move(Prepared[Index].Flat));
  }
  return Suite;
}

std::vector<PreparedProgram>
pbt::preparePrograms(const std::vector<Program> &Programs,
                     const MachineConfig &Machine, const TechniqueSpec &Tech,
                     uint64_t TypingSeed) {
  PipelineContext Ctx =
      makePipelineContext(Programs, Machine, Tech, TypingSeed);
  return runPipeline(Ctx);
}

std::vector<PreparedProgram>
pbt::preparePrograms(const std::shared_ptr<const ProgramSet> &Set,
                     const std::vector<size_t> &Indices,
                     const MachineConfig &Machine, const TechniqueSpec &Tech,
                     uint64_t TypingSeed) {
  PipelineContext Ctx =
      makePipelineContext(Set, Indices, Machine, Tech, TypingSeed);
  return runPipeline(Ctx);
}

PreparedSuite pbt::prepareSuite(const std::vector<Program> &Programs,
                                const MachineConfig &Machine,
                                const TechniqueSpec &Tech,
                                uint64_t TypingSeed) {
  return assembleSuite(
      Programs, preparePrograms(Programs, Machine, Tech, TypingSeed), Tech);
}

PreparedSuite pbt::prepareSuiteMonolithic(const std::vector<Program> &Programs,
                                          const MachineConfig &Machine,
                                          const TechniqueSpec &Tech,
                                          uint64_t TypingSeed) {
  // The legacy path: one monolithic prepareOne per program, fanned out
  // over the pool with by-index writes. Kept verbatim so tests can
  // assert the pass-manager pipeline reproduces it bit for bit.
  std::vector<PreparedProgram> Prepared(Programs.size());
  ThreadPool::global().parallelFor(Programs.size(), [&](size_t Index) {
    Prepared[Index] =
        prepareOne(Programs[Index], Machine, Tech, TypingSeed);
  });

  PreparedSuite Suite;
  Suite.Tuner = Tech.Tuner;
  for (size_t Index = 0; Index < Programs.size(); ++Index) {
    Suite.Names.push_back(Programs[Index].Name);
    Suite.Images.push_back(std::move(Prepared[Index].Image));
    Suite.Costs.push_back(std::move(Prepared[Index].Cost));
    Suite.Flats.push_back(std::move(Prepared[Index].Flat));
  }
  return Suite;
}

std::vector<double>
pbt::isolatedRuntimes(const std::vector<Program> &Programs,
                      const MachineConfig &MachineCfg, const SimConfig &Sim) {
  TechniqueSpec Base = TechniqueSpec::baseline();
  PreparedSuite Suite = prepareSuite(Programs, MachineCfg, Base);
  return isolatedRuntimes(Suite, MachineCfg, Sim);
}

std::vector<double> pbt::isolatedRuntimes(const PreparedSuite &BaselineSuite,
                                          const MachineConfig &MachineCfg,
                                          const SimConfig &Sim) {
  std::vector<double> Times(BaselineSuite.Images.size(), 0.0);
  ThreadPool::global().parallelFor(Times.size(), [&](size_t Bench) {
    CompletedJob Job = runIsolated(BaselineSuite,
                                   static_cast<uint32_t>(Bench), MachineCfg,
                                   Sim);
    Times[Bench] = Job.Completion - Job.Arrival;
  });
  return Times;
}

namespace {

/// Adds \p M's quantum and advance counts to the obs counters
/// `machine.quanta`, `machine.quiet_quanta`, `machine.advances` and
/// `machine.memo_resumes`, once per replay, so no atomic enters the
/// simulator's quantum loop.
void recordMachineCounts(const Machine &M) {
  obs::CounterRegistry &Counters = obs::CounterRegistry::global();
  Counters.add("machine.quanta", M.quanta());
  Counters.add("machine.quiet_quanta", M.quietQuanta());
  Counters.add("machine.advances", M.advances());
  Counters.add("machine.memo_resumes", M.memoResumes());
}

} // namespace

CompletedJob pbt::runIsolated(const PreparedSuite &Suite, uint32_t Bench,
                              const MachineConfig &MachineCfg,
                              const SimConfig &Sim, uint64_t Seed) {
  Machine M(MachineCfg, Sim, std::make_unique<ObliviousScheduler>());
  uint32_t Pid =
      M.spawn(Suite.Images[Bench], Suite.Costs[Bench], Suite.Tuner, Seed,
              /*Slot=*/-1, /*InitialAffinity=*/0, Suite.Flats[Bench]);
  // Advance a quantum at a time until the process finishes, so the run
  // stops at the quantum where it completes. The chunked clock walk is
  // bit-identical to longer run() calls (see WorkloadReplay::advance).
  while (M.process(Pid).CompletionTime < 0) {
    M.run(M.now() + Sim.Timeslice);
    assert(M.now() < 1e7 && "isolated benchmark failed to terminate");
  }
  recordMachineCounts(M);
  const Process &P = M.process(Pid);
  CompletedJob Job;
  Job.Bench = Bench;
  Job.Arrival = P.ArrivalTime;
  Job.Admitted = P.ArrivalTime;
  Job.Completion = P.CompletionTime;
  Job.Stats = P.Stats;
  return Job;
}

namespace {

/// One workload replay in flight: the machine, its spawn/exit wiring,
/// and the bookkeeping a RunResult is read from. advance() may be
/// called with growing horizons; for the classic batch run each
/// snapshot() taken after advance(H) is bit-identical to a standalone
/// replay to H, because Machine::run consults its Until argument only
/// in the loop test. The exit handlers capture `this`, so a replay
/// never moves.
class WorkloadReplay {
public:
  WorkloadReplay(const PreparedSuite &Suite, const Workload &W,
                 const MachineConfig &MachineCfg, const SimConfig &Sim,
                 double Horizon, const std::vector<double> &Isolated,
                 const SchedulerSpec &Sched, const ScenarioSpec &Scenario,
                 const CompletionSink &OnCompleted, obs::TraceSink *Trace);
  WorkloadReplay(const WorkloadReplay &) = delete;
  WorkloadReplay &operator=(const WorkloadReplay &) = delete;

  /// Advances the simulation to \p Horizon (or until an open stream
  /// has completed).
  void advance(double Horizon);

  /// The run's result at the current clock, reported for the requested
  /// \p Horizon. \p Final moves the completion buffer out (the replay
  /// is done) and closes the trace; otherwise the buffer is copied.
  RunResult snapshot(double Horizon, bool Final);

private:
  uint32_t spawn(uint32_t Bench, uint64_t Seed, int32_t Slot,
                 double Arrival);
  void record(Process &P);
  void spawnSlot(uint32_t Slot);
  void admit(const ScenarioArrival &A);

  const PreparedSuite &Suite;
  const Workload &W;
  const MachineConfig &MachineCfg;
  const SimConfig &Sim;
  const std::vector<double> &Isolated;
  const ScenarioSpec &Scenario;
  CompletionSink OnCompleted;
  obs::TraceSink *Trace;
  Machine M;

  std::vector<CompletedJob> Completed;
  std::vector<uint32_t> BenchOfPid;
  /// Scheduled arrival instant per pid for open-scenario jobs
  /// (negative sentinel for batch jobs, whose arrival IS the spawn).
  std::vector<double> ArrivalOfPid;
  uint32_t Done = 0;
  /// Per-slot cursor into the batch job queues; on exit, the next job
  /// of the finished process's slot starts (constant workload size).
  /// Only the batch scenario uses the workload's queues.
  std::vector<uint32_t> NextJob;
  /// Open-scenario state: the materialized arrival schedule, plus the
  /// door queue of arrivals deferred by the multiprogramming cap.
  std::vector<ScenarioArrival> Arrivals;
  std::deque<ScenarioArrival> Deferred;
  uint32_t InFlight = 0;
};

WorkloadReplay::WorkloadReplay(const PreparedSuite &Suite, const Workload &W,
                               const MachineConfig &MachineCfg,
                               const SimConfig &Sim, double Horizon,
                               const std::vector<double> &Isolated,
                               const SchedulerSpec &Sched,
                               const ScenarioSpec &Scenario,
                               const CompletionSink &OnCompleted,
                               obs::TraceSink *Trace)
    : Suite(Suite), W(W), MachineCfg(MachineCfg), Sim(Sim),
      Isolated(Isolated), Scenario(Scenario), OnCompleted(OnCompleted),
      Trace(Trace), M(MachineCfg, Sim, Sched.makeScheduler()),
      NextJob(W.numSlots(), 0) {
  if (Trace)
    M.setTraceSink(Trace);

  if (Scenario.isBatch()) {
    M.setExitHandler([this](Machine &, Process &P) {
      record(P);
      if (P.Slot >= 0)
        spawnSlot(static_cast<uint32_t>(P.Slot));
    });
    // The initial jobs arrive through the machine's injection list at
    // time zero — they spawn at the first quantum start, before any
    // balancing or execution, producing the exact state the classic
    // spawn-before-run loop did (tests/scenario_test.cpp proves the
    // replays bit-identical).
    for (uint32_t Slot = 0; Slot < W.numSlots(); ++Slot)
      M.scheduleAt(0.0, [this, Slot](Machine &) { spawnSlot(Slot); });
    return;
  }

  Arrivals = scenarioArrivals(
      Scenario, static_cast<uint32_t>(Suite.Images.size()), Horizon);
  M.setExitHandler([this](Machine &, Process &P) {
    record(P);
    --InFlight;
    if (!Deferred.empty() &&
        (this->Scenario.MaxInFlight == 0 ||
         InFlight < this->Scenario.MaxInFlight)) {
      admit(Deferred.front());
      Deferred.pop_front();
    }
  });
  for (const ScenarioArrival &A : Arrivals)
    M.scheduleAt(A.Time, [this, A](Machine &) {
      if (this->Trace)
        // The stream's scheduled instant, not the quantized fire
        // time: Admitted - Arrival is then visible in the trace as
        // the admission delay.
        this->Trace->arrival(this->Trace->cycles(A.Time), A.Bench);
      if (this->Scenario.MaxInFlight > 0 &&
          InFlight >= this->Scenario.MaxInFlight)
        Deferred.push_back(A);
      else
        admit(A);
    });
}

uint32_t WorkloadReplay::spawn(uint32_t Bench, uint64_t Seed, int32_t Slot,
                               double Arrival) {
  uint32_t Pid =
      M.spawn(Suite.Images[Bench], Suite.Costs[Bench], Suite.Tuner, Seed,
              Slot, /*InitialAffinity=*/0, Suite.Flats[Bench]);
  BenchOfPid.push_back(Bench);
  ArrivalOfPid.push_back(Arrival);
  if (Trace)
    Trace->processTrack(Pid,
                        "p" + std::to_string(Pid) + " " + Suite.Names[Bench]);
  return Pid;
}

void WorkloadReplay::record(Process &P) {
  CompletedJob Job;
  Job.Bench = BenchOfPid[P.Pid];
  Job.Slot = P.Slot;
  // Open-scenario jobs count from their scheduled arrival, so
  // turnaround includes door-queue and quantum-alignment wait; batch
  // jobs count from the spawn, the classic closed-system convention.
  Job.Arrival =
      ArrivalOfPid[P.Pid] >= 0 ? ArrivalOfPid[P.Pid] : P.ArrivalTime;
  Job.Admitted = P.ArrivalTime;
  Job.Completion = P.CompletionTime;
  if (Job.Bench < Isolated.size())
    Job.Isolated = Isolated[Job.Bench];
  Job.Stats = P.Stats;
  // Sink-fed runs never buffer: the job goes straight to the caller
  // (machine exit order) and memory stays O(1) in completion count.
  if (OnCompleted)
    OnCompleted(Job);
  else
    Completed.push_back(Job);
  ++Done;
  if (Trace)
    // Timestamped at the quantum start of the exit (see the machine's
    // exit event); the cycle-derived CompletionTime stays out of the
    // trace so bytes match across engines.
    Trace->complete(Trace->cycles(M.now()), P.Pid, Job.Bench);
}

void WorkloadReplay::spawnSlot(uint32_t Slot) {
  uint32_t Index = NextJob[Slot];
  if (Index >= W.Slots[Slot].size())
    return; // Queue exhausted (workloads should be sized to avoid this).
  ++NextJob[Slot];
  uint32_t Bench = W.Slots[Slot][Index];
  spawn(Bench, W.jobSeed(Slot, Index), static_cast<int32_t>(Slot),
        /*Arrival=*/-1.0);
}

void WorkloadReplay::admit(const ScenarioArrival &A) {
  uint32_t Pid = spawn(A.Bench, A.Seed, /*Slot=*/-1, A.Time);
  ++InFlight;
  if (Trace)
    Trace->admit(Trace->cycles(M.now()), Pid, A.Bench);
}

void WorkloadReplay::advance(double Horizon) {
  if (Scenario.isBatch()) {
    // The classic run: one call, unchanged floating-point clock walk.
    M.run(Horizon);
    return;
  }
  // Open runs advance quantum by quantum so the run ends at the end of
  // the quantum that completed the whole stream. The chunked clock walk
  // is bit-identical to one run(Horizon) call: Until is always the
  // exact value the internal Now accumulation reaches next.
  while (M.now() < Horizon && Done < Arrivals.size())
    M.run(M.now() + Sim.Timeslice);
}

RunResult WorkloadReplay::snapshot(double Horizon, bool Final) {
  RunResult Result;
  Result.Horizon = Scenario.isBatch() ? Horizon : M.now();
  Result.CompletedCount = Done;
  Result.InstructionsRetired = M.totalInstructions();
  for (uint32_t Core = 0; Core < MachineCfg.numCores(); ++Core)
    Result.CoreBusy.push_back(M.coreBusyFraction(Core));
  Result.InstsByType.assign(MachineCfg.numCoreTypes(), 0);
  Result.CyclesByType.assign(MachineCfg.numCoreTypes(), 0.0);
  for (const auto &P : M.processes()) {
    Result.TotalSwitches += P->Stats.CoreSwitches;
    Result.TotalMarks += P->Stats.MarksFired;
    Result.CounterWaits += P->Stats.CounterWaits;
    Result.TotalOverheadCycles += P->Stats.OverheadCycles;
    Result.TotalCycles += P->Stats.CyclesConsumed;
    const SchedTelemetry &T = M.telemetry(P->Pid);
    for (uint32_t Ct = 0; Ct < MachineCfg.numCoreTypes(); ++Ct) {
      Result.InstsByType[Ct] += T.InstsByType[Ct];
      Result.CyclesByType[Ct] += T.CyclesByType[Ct];
    }
  }

  if (Final && Trace)
    Trace->runEnd(Trace->cycles(M.now()), Done, BenchOfPid.size());
  if (Final)
    recordMachineCounts(M);

  // Canonical row order: completion time with deterministic tie-breaks,
  // so per-benchmark tables come out identical however the simulation
  // interleaved same-quantum exits (and whichever engine produced them).
  if (Final)
    Result.Completed = std::move(Completed);
  else
    Result.Completed = Completed;
  std::stable_sort(Result.Completed.begin(), Result.Completed.end(),
                   [](const CompletedJob &A, const CompletedJob &B) {
                     if (A.Completion != B.Completion)
                       return A.Completion < B.Completion;
                     if (A.Slot != B.Slot)
                       return A.Slot < B.Slot;
                     if (A.Arrival != B.Arrival)
                       return A.Arrival < B.Arrival;
                     return A.Bench < B.Bench;
                   });
  return Result;
}

} // namespace

RunResult pbt::runWorkload(const PreparedSuite &Suite, const Workload &W,
                           const MachineConfig &MachineCfg,
                           const SimConfig &Sim, double Horizon,
                           const std::vector<double> &Isolated,
                           const SchedulerSpec &Sched,
                           const ScenarioSpec &Scenario,
                           const CompletionSink &OnCompleted,
                           obs::TraceSink *Trace) {
  WorkloadReplay Replay(Suite, W, MachineCfg, Sim, Horizon, Isolated, Sched,
                        Scenario, OnCompleted, Trace);
  Replay.advance(Horizon);
  return Replay.snapshot(Horizon, /*Final=*/true);
}

std::vector<RunResult> pbt::runWorkloadHorizons(
    const PreparedSuite &Suite, const Workload &W,
    const MachineConfig &MachineCfg, const SimConfig &Sim,
    const std::vector<double> &Horizons, const std::vector<double> &Isolated,
    const SchedulerSpec &Sched, const ScenarioSpec &Scenario) {
  std::vector<RunResult> Results(Horizons.size());
  if (Horizons.empty())
    return Results;
  if (!Scenario.isBatch()) {
    // An open stream depends on the horizon itself (the arrival
    // schedule is drawn up to it), so every horizon is its own
    // simulation.
    for (size_t I = 0; I < Horizons.size(); ++I)
      Results[I] = runWorkload(Suite, W, MachineCfg, Sim, Horizons[I],
                               Isolated, Sched, Scenario);
    return Results;
  }
  std::vector<size_t> Order(Horizons.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Horizons[A] < Horizons[B];
  });
  WorkloadReplay Replay(Suite, W, MachineCfg, Sim, Horizons[Order.back()],
                        Isolated, Sched, Scenario, nullptr, nullptr);
  for (size_t K = 0; K < Order.size(); ++K) {
    double Horizon = Horizons[Order[K]];
    Replay.advance(Horizon);
    Results[Order[K]] = Replay.snapshot(Horizon, K + 1 == Order.size());
  }
  return Results;
}

std::vector<RunResult>
pbt::runWorkloads(const std::vector<WorkloadJob> &Jobs) {
  std::vector<RunResult> Results(Jobs.size());
  ThreadPool::global().parallelFor(Jobs.size(), [&](size_t I) {
    const WorkloadJob &Job = Jobs[I];
    assert(Job.Suite && Job.W && Job.Machine && "incomplete workload job");
    static const std::vector<double> NoIsolated;
    // One sink per replay unit, named by the job's deterministic unit
    // id — traces are identical whatever thread runs the job, and
    // whatever else runs concurrently.
    std::unique_ptr<obs::TraceSink> Sink;
    if (!Job.TraceUnit.empty())
      Sink = obs::TraceSink::openForUnit(Job.TraceUnit, Job.TraceGroup);
    Results[I] = runWorkload(*Job.Suite, *Job.W, *Job.Machine, Job.Sim,
                             Job.Horizon,
                             Job.Isolated ? *Job.Isolated : NoIsolated,
                             Job.Sched, Job.Scenario,
                             /*OnCompleted=*/nullptr, Sink.get());
  });
  return Results;
}

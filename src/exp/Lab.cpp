//===- exp/Lab.cpp - Shared experiment context ----------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Lab.h"

#include "exp/CacheStore.h"
#include "exp/ReplayMemo.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"

using namespace pbt;
using namespace pbt::exp;

namespace {
/// The paper suite behind every paper-suite lab. Programs are immutable
/// and depend on neither the machine nor the SimConfig, so all such labs
/// in a process share one set — one copy of the IR, built once and
/// hashed at most once — instead of each building (and holding) its
/// own.
const std::shared_ptr<const ProgramSet> &paperSuite() {
  static const std::shared_ptr<const ProgramSet> Suite =
      std::make_shared<const ProgramSet>(buildSuite());
  return Suite;
}
} // namespace

Lab::Lab(MachineConfig MachineCfgIn, SimConfig SimIn)
    : MachineCfg(std::move(MachineCfgIn)), Sim(SimIn),
      Programs(paperSuite()) {
  Cache.setStore(CacheStore::fromEnv());
}

Lab::Lab(std::vector<Program> ProgramsIn, MachineConfig MachineCfgIn,
         SimConfig SimIn)
    : MachineCfg(std::move(MachineCfgIn)), Sim(SimIn),
      Programs(std::make_shared<const ProgramSet>(std::move(ProgramsIn))) {
  Cache.setStore(CacheStore::fromEnv());
}

const std::vector<double> &Lab::isolated() {
  if (!IsolatedMeasured) {
    // The baseline suite comes through the cache, so the measurement
    // shares (and persists, with a store attached) the prepared images.
    Isolated = isolatedRuntimes(suite(TechniqueSpec::baseline()),
                                MachineCfg, Sim);
    IsolatedMeasured = true;
  }
  return Isolated;
}

PreparedSuite Lab::suite(const TechniqueSpec &Tech, uint64_t TypingSeed) {
  if (replayPlanning())
    throw ReplayPlanStop();
  return Cache.get(Programs, MachineCfg, Tech, TypingSeed);
}

uint64_t Lab::replayHash() {
  if (!ReplayHashed) {
    uint64_t H = hashCombine(Programs->hash(), hashValue(MachineCfg));
    H = hashCombine(H, hashDouble(Sim.Timeslice));
    H = hashCombine(H, hashDouble(Sim.BalancePeriod));
    H = hashCombine(H, Sim.CounterSlots);
    H = hashCombine(H, Sim.AffinityApiCycles);
    H = hashCombine(H, Sim.CounterWaitCycles);
    H = hashCombine(H, Sim.Seed);
    ReplayHash = hashCombine(H, static_cast<uint64_t>(Sim.Engine));
    ReplayHashed = true;
  }
  return ReplayHash;
}

RunResult Lab::run(const TechniqueSpec &Tech, uint32_t Slots, double Horizon,
                   uint64_t Seed) {
  PreparedSuite Suite = suite(Tech);
  Workload W = workload(Slots, Seed);
  return runWorkload(Suite, W, MachineCfg, Sim, Horizon, isolated());
}

Comparison Lab::compare(const TechniqueSpec &Tech, uint32_t Slots,
                        double Horizon, uint64_t Seed) {
  PreparedSuite BaselineSuite = suite(TechniqueSpec::baseline());
  PreparedSuite TunedSuite = suite(Tech);
  Workload W = workload(Slots, Seed);
  const std::vector<double> &Iso = isolated();
  std::vector<WorkloadJob> Jobs(2);
  Jobs[0] = {&BaselineSuite, &W, &MachineCfg, Sim, Horizon, &Iso,
             SchedulerSpec(), ScenarioSpec(), std::string(), 0};
  Jobs[1] = {&TunedSuite, &W, &MachineCfg, Sim, Horizon, &Iso,
             SchedulerSpec(), ScenarioSpec(), std::string(), 0};
  std::vector<RunResult> Results = runWorkloads(Jobs);
  Comparison C;
  C.Base = std::move(Results[0]);
  C.Tuned = std::move(Results[1]);
  C.BaseFair = computeFairness(C.Base.Completed);
  C.TunedFair = computeFairness(C.Tuned.Completed);
  return C;
}

CompletedJob Lab::isolatedJob(const TechniqueSpec &Tech, uint32_t Bench,
                              uint64_t Seed) {
  PreparedSuite Suite = suite(Tech);
  return runIsolated(Suite, Bench, MachineCfg, Sim, Seed);
}

std::vector<CompletedJob> Lab::isolatedJobs(const TechniqueSpec &Tech,
                                            uint64_t Seed) {
  std::vector<uint32_t> Benches(Programs->size());
  for (uint32_t I = 0; I < Benches.size(); ++I)
    Benches[I] = I;
  return isolatedJobs(Tech, Benches, Seed);
}

std::vector<CompletedJob>
Lab::isolatedJobs(const TechniqueSpec &Tech,
                  const std::vector<uint32_t> &Benches, uint64_t Seed) {
  PreparedSuite Suite = suite(Tech);
  std::vector<CompletedJob> Jobs(Benches.size());
  ThreadPool::global().parallelFor(Benches.size(), [&](size_t I) {
    Jobs[I] = runIsolated(Suite, Benches[I], MachineCfg, Sim, Seed);
  });
  return Jobs;
}

Workload Lab::workload(uint32_t Slots, uint64_t Seed) const {
  return Workload::random(Slots, /*JobsPerSlot=*/512,
                          static_cast<uint32_t>(Programs->size()), Seed);
}

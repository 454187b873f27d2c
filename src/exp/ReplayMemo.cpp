//===- exp/ReplayMemo.cpp - Driver-wide replay plan and memo --------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/ReplayMemo.h"

#include "obs/Counters.h"

using namespace pbt;
using namespace pbt::exp;

namespace {
/// Installed by bench/driver for its plan/prefetch/serve passes.
ReplayMemo *Installed = nullptr;
} // namespace

ReplayMemo *ReplayMemo::current() { return Installed; }

void ReplayMemo::install(ReplayMemo *Memo) { Installed = Memo; }

void ReplayMemo::record(std::shared_ptr<Lab> L, const SweepGrid &Grid) {
  Plan.push_back({std::move(L), Grid});
}

std::vector<ReplayMemo::PlannedSweep> ReplayMemo::takePlan() {
  std::vector<PlannedSweep> Out = std::move(Plan);
  Plan.clear();
  return Out;
}

void ReplayMemo::expect(const ReplayKey &Key, double Horizon) {
  ++Expected[{Key, Horizon}];
}

void ReplayMemo::put(const ReplayKey &Key, double Horizon, RunResult Run) {
  EntryKey K{Key, Horizon};
  auto It = Expected.find(K);
  if (It == Expected.end())
    return;
  Results[K] = Entry{std::move(Run), It->second};
  Expected.erase(It);
}

bool ReplayMemo::take(const ReplayKey &Key, double Horizon, RunResult &Out) {
  obs::CounterRegistry &Reg = obs::CounterRegistry::global();
  auto It = Results.find({Key, Horizon});
  if (It == Results.end()) {
    Reg.add("replay_memo.misses");
    return false;
  }
  Reg.add("replay_memo.hits");
  // The last planned consumer takes the result itself, freeing the
  // entry: the memo never holds a result longer than the plan needs it.
  if (--It->second.Remaining == 0) {
    Out = std::move(It->second.Run);
    Results.erase(It);
  } else {
    Out = It->second.Run;
  }
  return true;
}

bool pbt::exp::replayPlanning() {
  return Installed && Installed->planning();
}

bool pbt::exp::replayPrefetchAllowed(bool ShardOrMerge, bool Tracing,
                                     double TimeoutSeconds) {
  return !ShardOrMerge && !Tracing && !(TimeoutSeconds > 0);
}

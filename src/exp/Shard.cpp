//===- exp/Shard.cpp - Bit-exact RunResult codec --------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Shard.h"

using namespace pbt;

void pbt::exp::serializeRunResult(BinaryWriter &W, const RunResult &Run) {
  W.f64(Run.Horizon);
  W.u64(Run.InstructionsRetired);
  W.u64(Run.CompletedCount);
  W.u32(static_cast<uint32_t>(Run.Completed.size()));
  for (const CompletedJob &Job : Run.Completed) {
    W.u32(Job.Bench);
    W.i32(Job.Slot);
    W.f64(Job.Arrival);
    W.f64(Job.Admitted);
    W.f64(Job.Completion);
    W.f64(Job.Isolated);
    W.u64(Job.Stats.InstsRetired);
    W.u64(Job.Stats.BlocksExecuted);
    W.f64(Job.Stats.CyclesConsumed);
    W.f64(Job.Stats.CpuSeconds);
    W.u64(Job.Stats.CoreSwitches);
    W.u64(Job.Stats.MarksFired);
    W.u64(Job.Stats.MonitorSessions);
    W.u64(Job.Stats.CounterWaits);
    W.f64(Job.Stats.OverheadCycles);
  }
  W.u64(Run.TotalSwitches);
  W.u64(Run.TotalMarks);
  W.u64(Run.CounterWaits);
  W.f64(Run.TotalOverheadCycles);
  W.f64(Run.TotalCycles);
  W.u32(static_cast<uint32_t>(Run.CoreBusy.size()));
  for (double Busy : Run.CoreBusy)
    W.f64(Busy);
  W.u32(static_cast<uint32_t>(Run.InstsByType.size()));
  for (uint64_t Insts : Run.InstsByType)
    W.u64(Insts);
  W.u32(static_cast<uint32_t>(Run.CyclesByType.size()));
  for (double Cycles : Run.CyclesByType)
    W.f64(Cycles);
}

bool pbt::exp::deserializeRunResult(BinaryReader &R, RunResult &Run) {
  Run = RunResult();
  Run.Horizon = R.f64();
  Run.InstructionsRetired = R.u64();
  Run.CompletedCount = R.u64();
  uint32_t Jobs = R.count(1u << 26, /*ElemBytes=*/100);
  Run.Completed.resize(Jobs);
  for (CompletedJob &Job : Run.Completed) {
    Job.Bench = R.u32();
    Job.Slot = R.i32();
    Job.Arrival = R.f64();
    Job.Admitted = R.f64();
    Job.Completion = R.f64();
    Job.Isolated = R.f64();
    Job.Stats.InstsRetired = R.u64();
    Job.Stats.BlocksExecuted = R.u64();
    Job.Stats.CyclesConsumed = R.f64();
    Job.Stats.CpuSeconds = R.f64();
    Job.Stats.CoreSwitches = R.u64();
    Job.Stats.MarksFired = R.u64();
    Job.Stats.MonitorSessions = R.u64();
    Job.Stats.CounterWaits = R.u64();
    Job.Stats.OverheadCycles = R.f64();
  }
  Run.TotalSwitches = R.u64();
  Run.TotalMarks = R.u64();
  Run.CounterWaits = R.u64();
  Run.TotalOverheadCycles = R.f64();
  Run.TotalCycles = R.f64();
  uint32_t Cores = R.count(4096, /*ElemBytes=*/8);
  Run.CoreBusy.resize(Cores);
  for (double &Busy : Run.CoreBusy)
    Busy = R.f64();
  uint32_t InstTypes = R.count(64, /*ElemBytes=*/8);
  Run.InstsByType.resize(InstTypes);
  for (uint64_t &Insts : Run.InstsByType)
    Insts = R.u64();
  uint32_t CycleTypes = R.count(64, /*ElemBytes=*/8);
  Run.CyclesByType.resize(CycleTypes);
  for (double &Cycles : Run.CyclesByType)
    Cycles = R.f64();
  return !R.failed();
}

//===- sim/Machine.cpp - AMP simulation driver -----------------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "obs/Trace.h"
#include "sim/RepeatedAdd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

using namespace pbt;

namespace {

/// Trips left in the activation of record \p Cur, counting the exit
/// trip, when \p B is a Loop latch whose back edge (Succ[0]) targets
/// the record itself and carries no mark; 0 when it is not. \p Rem is
/// the record's LoopRemaining entry, 0 before the latch first runs in
/// the activation.
inline uint32_t selfLoopTrips(const FlatBlock &B, uint32_t Cur,
                              uint32_t Rem) {
  if (B.Op != FlatOp::Loop || B.Succ[0] != Cur || B.EdgeMark[0] >= 0)
    return 0;
  return Rem != 0 ? Rem : B.TripCount;
}

/// The exact self-loop kernel of the flat-image engine loop (both the
/// Flat and the FastReplay engine).
/// Applies when record \p Cur is an unmarked self-loop (selfLoopTrips),
/// the shape of the suite's hot phase bodies. It runs the activation's
/// back-edge trips until only the exit trip is left or the budget is
/// spent, then charges the integer stats and the loop counter in bulk.
/// Returns false, touching nothing, when the record is not such a loop
/// or only its exit trip remains; the caller then steps the record
/// itself.
///
/// Stepping would run `do { U += C; ++N; } while (N < R0 - 1 && U <
/// Budget);` (adding C to MonCycles too while monitoring). The kernel
/// computes that loop's N and U in closed form (repadd::run, exact to
/// the bit) and MonCycles after the same N adds (repadd::addN), so the
/// result is bit-identical to stepping. Whole-quantum resumes rarely get
/// here: Machine::resumeFromMemo serves them before the engine call.
inline bool runSelfLoop(const FlatBlock &B, uint32_t Cur, const double *Cyc,
                        uint32_t CfgOff, uint32_t *LoopRem, double Budget,
                        double &Used, uint64_t &Insts, uint64_t &Blocks,
                        bool MonActive, uint64_t &MonInsts,
                        double &MonCycles) {
  const uint32_t Rem = selfLoopTrips(B, Cur, LoopRem[Cur]);
  if (Rem <= 1)
    return false;
  const double C = Cyc[B.CycleRow + CfgOff];
  const repadd::Result Run = repadd::run(Used, C, Rem - 1, Budget);
  const uint32_t N = static_cast<uint32_t>(Run.N);
  Used = Run.X;
  if (MonActive) {
    MonCycles = repadd::addN(MonCycles, C, N);
    MonInsts += static_cast<uint64_t>(N) * B.Insts;
  }
  Insts += static_cast<uint64_t>(N) * B.Insts;
  Blocks += N;
  LoopRem[Cur] = Rem - N;
  return true;
}

} // namespace

const char *pbt::engineName(ExecEngine Engine) {
  switch (Engine) {
  case ExecEngine::Flat:
    return "flat";
  case ExecEngine::Reference:
    return "reference";
  case ExecEngine::FastReplay:
    return "fast_replay";
  }
  return "unknown";
}

Machine::Machine(MachineConfig ConfigIn, SimConfig SimIn,
                 std::unique_ptr<SchedulerPolicy> PolicyIn)
    : Config(std::move(ConfigIn)), Sim(SimIn), Policy(std::move(PolicyIn)),
      Counters(SimIn.CounterSlots), Queues(Config.numCores()),
      BusyCycles(Config.numCores(), 0.0), Used(Config.numCores(), 0.0),
      Gen(SimIn.Seed) {
  // Validate the SimConfig up front: these inconsistencies would not
  // crash, they would silently simulate nonsense (a zero timeslice
  // never advances the clock; a timeslice past the balance period makes
  // balancing fire every quantum instead of periodically).
  if (!(Sim.Timeslice > 0))
    throw std::invalid_argument(
        "SimConfig::Timeslice must be positive (simulated seconds)");
  if (!(Sim.BalancePeriod > 0))
    throw std::invalid_argument(
        "SimConfig::BalancePeriod must be positive (simulated seconds)");
  if (Sim.Timeslice > Sim.BalancePeriod)
    throw std::invalid_argument(
        "SimConfig::Timeslice must not exceed BalancePeriod: balancing "
        "happens between quanta, every BalancePeriod seconds");
  assert(Config.numCores() >= 1 && Config.numCores() <= 64 &&
         "machine must have 1..64 cores");
  assert(Policy && "machine needs a scheduling policy");
  uint32_t NumGroups = 0;
  for (const CoreDesc &Core : Config.Cores)
    NumGroups = std::max(NumGroups, Core.L2Group + 1);
  GroupActive.resize(NumGroups, 0);
}

uint32_t Machine::spawn(std::shared_ptr<const InstrumentedProgram> IProg,
                        std::shared_ptr<const CostModel> Cost,
                        const TunerConfig &TunerCfg, uint64_t Seed,
                        int32_t Slot, uint64_t InitialAffinity,
                        std::shared_ptr<const FlatImage> Flat) {
  if (!Flat) {
    auto Key = std::make_pair(static_cast<const void *>(IProg.get()),
                              static_cast<const void *>(Cost.get()));
    auto &Cached = FlatCache[Key];
    if (!Cached)
      Cached = std::make_shared<const FlatImage>(IProg, Cost);
    Flat = Cached;
  }
  uint32_t Pid = static_cast<uint32_t>(Procs.size());
  auto P = std::make_unique<Process>(Pid, std::move(IProg), std::move(Cost),
                                     TunerCfg, Config.numCoreTypes(), Seed,
                                     Config.allCoresMask());
  P->Flat = std::move(Flat);
  if (InitialAffinity != 0) {
    assert((InitialAffinity & Config.allCoresMask()) != 0 &&
           "initial affinity excludes every core");
    P->AffinityMask = InitialAffinity & Config.allCoresMask();
  }
  P->ArrivalTime = Now;
  P->Slot = Slot;
  Procs.push_back(std::move(P));
  Hot.push_back(HotProc{});
  SchedTelemetry T;
  T.InstsByType.resize(Config.numCoreTypes(), 0);
  T.CyclesByType.resize(Config.numCoreTypes(), 0.0);
  Telem.push_back(std::move(T));
  // The policy sees the process before its first placement and may
  // narrow the affinity mask (OS-level static assignment).
  Policy->onSpawn(*this, *Procs[Pid]);
  assert((Procs[Pid]->AffinityMask & Config.allCoresMask()) != 0 &&
         "policy onSpawn left no allowed core");
  uint32_t Core = placeProcess(Pid);
  if (Trace)
    Trace->spawn(Trace->cycles(Now), Pid, Core, Slot);
  return Pid;
}

uint32_t Machine::placeProcess(uint32_t Pid) {
  Process &P = *Procs[Pid];
  uint32_t Core = Policy->selectCore(*this, P);
  assert(P.allowedOn(Core) && "policy violated the affinity mask");
  Queues[Core].push_back(Pid);
  return Core;
}

void Machine::setTraceSink(obs::TraceSink *Sink) {
  Trace = Sink;
  if (!Trace)
    return;
  // Timestamps are simulated cycles on the reference core type (type
  // 0), a pure function of quantized simulated time — never of cycle
  // accumulators, which drift by ulps between engines.
  Trace->setCyclesPerSecond(Config.CoreTypes[0].Frequency);
  for (uint32_t Core = 0; Core < Config.numCores(); ++Core)
    Trace->coreTrack(Core, Config.CoreTypes[coreType(Core)].Name +
                               std::to_string(Core));
  Trace->machineTrack(Config.numCores());
  TraceCoreInsts.assign(Config.numCores(), 0);
  TraceCoreCursor.assign(Config.numCores(), 0.0);
  TraceWindows.reserve(64);
}

bool Machine::moveQueued(uint32_t Pid, uint32_t FromCore, uint32_t ToCore) {
  if (FromCore == ToCore)
    return false;
  Process &P = *Procs[Pid];
  if (!P.allowedOn(ToCore))
    return false;
  auto &From = Queues[FromCore];
  auto It = std::find(From.begin(), From.end(), Pid);
  if (It == From.end())
    return false;
  From.erase(It);
  Queues[ToCore].push_back(Pid);
  if (Trace)
    // Policy reassignment with its IPC evidence (the last execution
    // window the policy could observe; 0 before the first window).
    Trace->reassign(Trace->cycles(Now), Pid, FromCore, ToCore,
                    Telem[Pid].WindowIpc);
  return true;
}

double Machine::coreBusyFraction(uint32_t Core) const {
  if (Now <= 0)
    return 0;
  return BusyCycles[Core] / (Now * coreFrequency(Core));
}

uint64_t Machine::totalInstructions() const {
  uint64_t Total = 0;
  for (const auto &P : Procs)
    Total += P->Stats.InstsRetired;
  return Total;
}

void Machine::scheduleAt(double Time, std::function<void(Machine &)> Fn) {
  Events.emplace(Time, std::move(Fn));
}

/// The whole-quantum resume of a phase loop, served from the process's
/// reach memo before any engine call. A process parked inside an
/// unmarked self-loop resumes it from zero used cycles, where stepping
/// would run `do { U += C; ++N; } while (N < R0 - 1 && U < Budget);`.
/// From +0.0 that loop's sum depends on nothing but C and the budget,
/// so the memo keeps, for the process's last (row, budget), the trip K
/// at which the sum reaches the budget and the sum U_K (repadd::run,
/// exact to the bit). When K <= R0 - 1 the resume takes N = K, U = U_K
/// (adding the same K trips to MonCycles while monitoring) and ends the
/// advance on the budget, as the engine would. With fewer back edges
/// left the loop ends short of the budget, at a sum the memo does not
/// hold: the step declines, and the engine's kernel (runSelfLoop) runs
/// the trips from the same +0.0. Reference, the oracle, always steps.
inline bool Machine::resumeFromMemo(Process &P, uint32_t Core,
                                    double BudgetCycles, uint32_t Sharers,
                                    AdvanceResult &R) {
  if (Sim.Engine == ExecEngine::Reference)
    return false;
  const FlatImage &FI = *P.Flat;
  const uint32_t Cur = P.CurGlobal;
  const FlatBlock &B = FI.block(Cur);
  uint32_t &LoopRem = P.LoopRemaining[Cur];
  const uint32_t Rem = selfLoopTrips(B, Cur, LoopRem);
  if (Rem <= 1)
    return false;
  const uint32_t Row = B.CycleRow + configOffsetCached(P, Core, Sharers);
  const double C = FI.cycleTable()[Row];
  HotProc &H = Hot[P.Pid];
  const bool Hit = H.MemoRow == Row && H.MemoBudget == BudgetCycles;
  if (!Hit) {
    repadd::Result Reach = repadd::run(
        0.0, C, std::numeric_limits<uint64_t>::max(), BudgetCycles);
    H.MemoRow = Row;
    H.MemoBudget = BudgetCycles;
    H.MemoTrips = Reach.N;
    H.MemoUsed = Reach.X;
  }
  if (H.MemoTrips > Rem - 1)
    return false;
  const uint32_t N = static_cast<uint32_t>(H.MemoTrips);
  const uint64_t Insts = static_cast<uint64_t>(N) * B.Insts;
  LoopRem = Rem - N;
  P.Stats.InstsRetired += Insts;
  P.Stats.BlocksExecuted += N;
  if (P.MonActive) {
    P.MonCycles = repadd::addN(P.MonCycles, C, N);
    P.MonInsts += Insts;
  }
  R.CyclesUsed = H.MemoUsed;
  R.InstsDelta = Insts;
  R.Quiet = Hit && !P.MonActive;
  return true;
}

void Machine::run(double Until) {
  while (Now < Until) {
    // Quiet until something happens (see quietQuanta).
    bool Quiet = true;
    bool Advanced = false;
    // Deterministic mid-run injection: fire every event due by now, in
    // (time, insertion) order, before balancing — an arrival landing on
    // a balance instant is visible to the balancer, and batch arrivals
    // at time zero reproduce the classic spawn-before-run state bit for
    // bit.
    while (!Events.empty() && Events.begin()->first <= Now) {
      std::function<void(Machine &)> Fn = std::move(Events.begin()->second);
      Events.erase(Events.begin());
      if (Trace)
        Trace->inject(Trace->cycles(Now));
      Fn(*this);
      Quiet = false;
    }

    if (Now >= NextBalance) {
      // Trace order: the balance instant precedes the reassign events
      // the policy emits through moveQueued.
      if (Trace)
        Trace->balance(Trace->cycles(Now));
      Policy->balance(*this);
      NextBalance = Now + Sim.BalancePeriod;
      Quiet = false;
    }

    // Effective cache sharing this quantum: active cores per L2 group.
    // GroupActive/Used are members so no timeslice allocates.
    uint32_t NumCores = Config.numCores();
    std::fill(GroupActive.begin(), GroupActive.end(), 0u);
    for (uint32_t Core = 0; Core < NumCores; ++Core)
      if (!Queues[Core].empty())
        ++GroupActive[Config.Cores[Core].L2Group];

    // Work-conserving quantum: after the main pass, cores with leftover
    // budget re-check their queues so work migrated from later-visited
    // cores (or spawned mid-quantum) starts immediately instead of
    // idling until the next tick — as on a real machine, where an idle
    // core picks up a migrated task at once.
    std::fill(Used.begin(), Used.end(), 0.0);
    for (int Pass = 0; Pass < 4; ++Pass) {
      bool Progress = false;
      for (uint32_t Core = 0; Core < NumCores; ++Core) {
        double Freq = coreFrequency(Core);
        double Budget = Sim.Timeslice * Freq;
        uint32_t Ct = coreType(Core);
        uint32_t Sharers =
            std::max(1u, GroupActive[Config.Cores[Core].L2Group]);

        while (Used[Core] < Budget && !Queues[Core].empty()) {
          Progress = true;
          uint32_t Pid = Queues[Core].front();
          Process &P = *Procs[Pid];
          const double Left = Budget - Used[Core];
          AdvanceResult R;
          ++Advances;
          if (resumeFromMemo(P, Core, Left, Sharers, R))
            ++MemoResumes;
          else
            R = advanceProcess(P, Core, Left, Sharers);
          Advanced = true;
          Quiet = Quiet && R.Quiet;
          Used[Core] += R.CyclesUsed;
          BusyCycles[Core] += R.CyclesUsed;
          P.Stats.CyclesConsumed += R.CyclesUsed;
          P.Stats.CpuSeconds += R.CyclesUsed / Freq;

          // Scheduler telemetry: the counters an OS policy may observe.
          // Pure bookkeeping — it never feeds back into the simulation
          // unless a policy acts on it.
          SchedTelemetry &T = Telem[Pid];
          uint64_t WindowInsts = R.InstsDelta;
          T.InstsByType[Ct] += WindowInsts;
          T.CyclesByType[Ct] += R.CyclesUsed;
          if (R.CyclesUsed > 0) {
            T.WindowIpc = static_cast<double>(WindowInsts) / R.CyclesUsed;
            T.WindowCoreType = Ct;
          }

          if (Trace)
            TraceWindows.push_back(TraceWindow{Core, Pid, WindowInsts});

          if (R.Finished) {
            P.CompletionTime = Now + std::min(Used[Core], Budget) / Freq;
            Queues[Core].pop_front();
            if (P.MonActive)
              finishMonitor(P);
            if (Trace)
              // Timestamped at the quantum start (CompletionTime is
              // cycle-derived and drifts between engines).
              Trace->exitProcess(Trace->cycles(Now), Pid,
                                 P.Stats.InstsRetired);
            Policy->onExit(*this, P);
            if (OnExit)
              OnExit(*this, P);
            continue;
          }
          if (R.Migrated) {
            Queues[Core].pop_front();
            uint32_t To = placeProcess(Pid);
            if (Trace)
              Trace->migrate(Trace->cycles(Now), Pid, Core, To);
            continue;
          }
          // Timeslice exhausted: round-robin rotate.
          Queues[Core].pop_front();
          Queues[Core].push_back(Pid);
        }
      }
      if (!Progress)
        break;
    }

    if (Trace)
      flushTraceWindows();

    Now += Sim.Timeslice;
    ++Quanta;
    QuietQuanta += Quiet && Advanced;
  }
}

void Machine::flushTraceWindows() {
  if (TraceWindows.empty())
    return;
  // Slice widths are instruction-proportional shares of the quantum.
  // Everything here is a function of quantized Now, config constants,
  // and integer instruction counts — identical across engines, so the
  // emitted bytes are too. Cycle-exact widths would not be.
  double QuantumStart = Trace->cycles(Now);
  double QuantumCycles = Trace->cycles(Sim.Timeslice);
  std::fill(TraceCoreInsts.begin(), TraceCoreInsts.end(), 0);
  std::fill(TraceCoreCursor.begin(), TraceCoreCursor.end(), 0.0);
  for (const TraceWindow &W : TraceWindows)
    TraceCoreInsts[W.Core] += W.Insts;
  for (const TraceWindow &W : TraceWindows) {
    uint64_t Total = TraceCoreInsts[W.Core];
    double Dur = Total == 0 ? 0.0
                            : QuantumCycles * (static_cast<double>(W.Insts) /
                                               static_cast<double>(Total));
    Trace->window(QuantumStart + TraceCoreCursor[W.Core], Dur, W.Core,
                  W.Pid, W.Insts);
    TraceCoreCursor[W.Core] += Dur;
  }
  TraceWindows.clear();
}

Machine::AdvanceResult Machine::advanceProcess(Process &P, uint32_t Core,
                                               double BudgetCycles,
                                               uint32_t Sharers) {
  switch (Sim.Engine) {
  case ExecEngine::Flat:
    return advanceProcessFlat<false>(P, Core, BudgetCycles, Sharers);
  case ExecEngine::FastReplay:
    return advanceProcessFlat<true>(P, Core, BudgetCycles, Sharers);
  case ExecEngine::Reference:
    break;
  }
  uint64_t InstsBefore = P.Stats.InstsRetired;
  AdvanceResult R = advanceProcessReference(P, Core, BudgetCycles, Sharers);
  R.InstsDelta = P.Stats.InstsRetired - InstsBefore;
  return R;
}

/// The flat-image interpreter behind both the Flat and the FastReplay
/// engines; \p Fused selects FastReplay. Each step is one indexed load
/// from the FlatImage instead of pointer chases through Program,
/// CostModel, and InstrumentedProgram; mark-free superblock chains run
/// in a dispatch-free inner loop, unmarked self-loops in runSelfLoop's
/// kernel. Hot-path state lives in locals for the whole call — the
/// cycle, instruction, and block accumulators plus the monitoring
/// triple — and is written back to the cold Process body at exit and
/// around fireMark, which reads and mutates it.
///
/// With Fused off (Flat) the loop mirrors advanceProcessReference
/// exactly — same block sequence, same RNG draws, and the same
/// floating-point accumulation order (one add per block, marks charged
/// through fireMark) — so both produce bit-identical ProcessStats.
///
/// With Fused on (FastReplay) a superblock chain that fits whole in the
/// remaining budget is charged in O(1) through its precomputed
/// left-to-right sum in chainCycleTable(). Each sum equals bit for bit
/// what the exact walk adds from a zero partial sum, so the only drift
/// is reassociating a whole-chain sum into the non-zero quantum
/// accumulator: a few ulps of the running total per fused charge; the
/// dynamic trace and every integer statistic stay identical. Monitoring
/// sessions never fuse: MonCycles feeds truncated into integer tuner
/// samples, where drift would become integer divergence in tuning
/// decisions. Mark-free Jump cycles (ChainBlocks == 0) and
/// budget-straddling chains take the exact walk.
template <bool Fused>
Machine::AdvanceResult Machine::advanceProcessFlat(Process &P, uint32_t Core,
                                                   double BudgetCycles,
                                                   uint32_t Sharers) {
  const FlatImage &FI = *P.Flat;
  const FlatBlock *Blk = FI.blocks();
  const double *Cyc = FI.cycleTable();
  const double *ChainCyc = FI.chainCycleTable();
  const PhaseMark *Marks = FI.marks();
  uint32_t *LoopRem = P.LoopRemaining.data();
  // Per-quantum invariant, cached across quanta in the hot lane and
  // recomputed only on migration or a sharer-count change. Pure
  // function of (core type, sharers), so caching cannot change results.
  const uint32_t CfgOff = configOffsetCached(P, Core, Sharers);
  const uint64_t EntryInsts = P.Stats.InstsRetired;

  uint32_t Cur = P.CurGlobal;
  double Used = 0;
  uint64_t Insts = 0;
  uint64_t Blocks = 0;
  bool MonActive = P.MonActive;
  uint64_t MonInsts = P.MonInsts;
  double MonCycles = P.MonCycles;

  auto Flush = [&] {
    P.CurGlobal = Cur;
    P.Stats.InstsRetired += Insts;
    P.Stats.BlocksExecuted += Blocks;
    Insts = 0;
    Blocks = 0;
    P.MonActive = MonActive;
    P.MonInsts = MonInsts;
    P.MonCycles = MonCycles;
  };
  auto Fire = [&](const PhaseMark &Mark) {
    Flush();
    bool Migrate = fireMark(P, Mark, Core, Used);
    MonActive = P.MonActive;
    MonInsts = P.MonInsts;
    MonCycles = P.MonCycles;
    return Migrate;
  };
  auto Exit = [&](bool Finished, bool Migrated) {
    Flush();
    AdvanceResult R;
    R.CyclesUsed = Used;
    R.InstsDelta = P.Stats.InstsRetired - EntryInsts;
    R.Finished = Finished;
    R.Migrated = Migrated;
    return R;
  };

  // No Finished test: runqueues hold only unfinished processes, and the
  // final Ret returns at once.
  while (Used < BudgetCycles) {
    const FlatBlock *B = &Blk[Cur];

    if (runSelfLoop(*B, Cur, Cyc, CfgOff, LoopRem, BudgetCycles, Used,
                    Insts, Blocks, MonActive, MonInsts, MonCycles))
      continue;

    if (B->Op == FlatOp::Chain) {
      if constexpr (Fused) {
        if (!MonActive && B->ChainBlocks > 0) {
          double Sum = ChainCyc[B->ChainRow + CfgOff];
          if (Used + Sum < BudgetCycles) {
            Used += Sum;
            Insts += B->ChainInsts;
            Blocks += B->ChainBlocks;
            Cur = B->ChainExit;
            continue;
          }
        }
      }
      // Exact superblock walk: no terminator dispatch, no mark lookups,
      // no RNG — just successive records until the chain exit or the
      // quantum budget. Monitoring is hoisted out of the loop (it can
      // only change at a mark, and chains are mark-free).
      if (MonActive) {
        do {
          double Cycles = Cyc[B->CycleRow + CfgOff];
          Used += Cycles;
          Insts += B->Insts;
          ++Blocks;
          MonInsts += B->Insts;
          MonCycles += Cycles;
          Cur = B->Succ[0];
          B = &Blk[Cur];
        } while (B->Op == FlatOp::Chain && Used < BudgetCycles);
      } else {
        do {
          Used += Cyc[B->CycleRow + CfgOff];
          Insts += B->Insts;
          ++Blocks;
          Cur = B->Succ[0];
          B = &Blk[Cur];
        } while (B->Op == FlatOp::Chain && Used < BudgetCycles);
      }
      continue;
    }

    double Cycles = Cyc[B->CycleRow + CfgOff];
    uint32_t BI = B->Insts;
    Used += Cycles;
    Insts += BI;
    ++Blocks;
    if (MonActive) {
      MonInsts += BI;
      MonCycles += Cycles;
    }

    const PhaseMark *TakenMark = nullptr;
    switch (B->Op) {
    case FlatOp::Jump: // Always carries a mark (else it would be Chain).
      TakenMark = Marks + B->EdgeMark[0];
      Cur = B->Succ[0];
      break;
    case FlatOp::Call: {
      P.CallStack.push_back(CallFrame{0, 0, B->EdgeMark[0], B->Succ[0]});
      int32_t CallMark = B->CallMark;
      Cur = B->Callee;
      if (CallMark >= 0 && Fire(Marks[CallMark]))
        return Exit(false, true);
      continue;
    }
    case FlatOp::Loop: {
      uint32_t &Rem = LoopRem[Cur];
      if (Rem == 0)
        Rem = B->TripCount; // First latch execution of this activation.
      uint32_t Index;
      if (Rem > 1) {
        --Rem;
        Index = 0;
      } else {
        Rem = 0;
        Index = 1;
      }
      int32_t Mark = B->EdgeMark[Index];
      if (Mark >= 0)
        TakenMark = Marks + Mark;
      Cur = B->Succ[Index];
      break;
    }
    case FlatOp::Cond: {
      uint32_t Index = P.Gen.nextBool(B->TakenProb) ? 0 : 1;
      int32_t Mark = B->EdgeMark[Index];
      if (Mark >= 0)
        TakenMark = Marks + Mark;
      Cur = B->Succ[Index];
      break;
    }
    case FlatOp::Ret: {
      if (P.CallStack.empty()) {
        P.Finished = true;
        return Exit(true, false);
      }
      CallFrame Frame = P.CallStack.back();
      P.CallStack.pop_back();
      Cur = Frame.ContGlobal;
      if (Frame.ContMarkIndex >= 0)
        TakenMark = Marks + Frame.ContMarkIndex;
      break;
    }
    case FlatOp::Chain: // Handled above.
      break;
    }

    if (TakenMark && Fire(*TakenMark))
      return Exit(false, true);
  }
  return Exit(false, false);
}

Machine::AdvanceResult
Machine::advanceProcessReference(Process &P, uint32_t Core,
                                 double BudgetCycles, uint32_t Sharers) {
  AdvanceResult R;
  const InstrumentedProgram &IP = *P.IProg;
  const Program &Prog = IP.program();
  const CostModel &Cost = *P.Cost;

  while (!P.Finished && R.CyclesUsed < BudgetCycles) {
    const BasicBlock &BB = Prog.Procs[P.CurProc].Blocks[P.CurBlock];
    uint32_t Ct = coreType(Core);

    double Cycles = Cost.blockCycles(P.CurProc, P.CurBlock, Ct, Sharers);
    uint32_t Insts = Cost.blockInsts(P.CurProc, P.CurBlock);
    R.CyclesUsed += Cycles;
    P.Stats.InstsRetired += Insts;
    ++P.Stats.BlocksExecuted;
    if (P.MonActive) {
      P.MonInsts += Insts;
      P.MonCycles += Cycles;
    }

    // Resolve the terminator and collect the mark (if any) on the taken
    // edge. Call sites fire their own mark immediately; the continuation
    // edge's mark is deferred until the matching return.
    const PhaseMark *TakenMark = nullptr;
    switch (BB.Term) {
    case TermKind::Jump: {
      int32_t Callee = BB.calleeOrNone();
      if (Callee >= 0) {
        const PhaseMark *ContMark = IP.edgeMark(P.CurProc, P.CurBlock, 0);
        int32_t ContIndex =
            ContMark
                ? static_cast<int32_t>(ContMark - IP.marks().data())
                : -1;
        P.CallStack.push_back({P.CurProc, BB.Succs[0], ContIndex,
                               P.Flat->globalId(P.CurProc, BB.Succs[0])});
        const PhaseMark *CallMark = IP.callMark(P.CurProc, P.CurBlock);
        P.CurProc = static_cast<uint32_t>(Callee);
        P.CurBlock = 0;
        if (CallMark && fireMark(P, *CallMark, Core, R.CyclesUsed)) {
          R.Migrated = true;
          return R;
        }
        continue;
      }
      TakenMark = IP.edgeMark(P.CurProc, P.CurBlock, 0);
      P.CurBlock = BB.Succs[0];
      break;
    }
    case TermKind::Loop: {
      uint32_t &Rem =
          P.LoopRemaining[P.Flat->globalId(P.CurProc, P.CurBlock)];
      if (Rem == 0)
        Rem = BB.TripCount; // First latch execution of this activation.
      if (Rem > 1) {
        --Rem;
        TakenMark = IP.edgeMark(P.CurProc, P.CurBlock, 0);
        P.CurBlock = BB.Succs[0];
      } else {
        Rem = 0;
        TakenMark = IP.edgeMark(P.CurProc, P.CurBlock, 1);
        P.CurBlock = BB.Succs[1];
      }
      break;
    }
    case TermKind::Cond: {
      // verify() admits single-successor Cond blocks; fold both edges
      // onto the only successor, exactly like the flat image does.
      uint32_t Index = P.Gen.nextBool(BB.TakenProb) ? 0 : 1;
      if (BB.Succs.size() < 2)
        Index = 0;
      TakenMark = IP.edgeMark(P.CurProc, P.CurBlock, Index);
      P.CurBlock = BB.Succs[Index];
      break;
    }
    case TermKind::Ret: {
      if (P.CallStack.empty()) {
        P.Finished = true;
        R.Finished = true;
        return R;
      }
      CallFrame Frame = P.CallStack.back();
      P.CallStack.pop_back();
      P.CurProc = Frame.Proc;
      P.CurBlock = Frame.ContBlock;
      if (Frame.ContMarkIndex >= 0)
        TakenMark = &IP.marks()[static_cast<size_t>(Frame.ContMarkIndex)];
      break;
    }
    }

    if (TakenMark && fireMark(P, *TakenMark, Core, R.CyclesUsed)) {
      R.Migrated = true;
      return R;
    }
  }
  return R;
}

bool Machine::fireMark(Process &P, const PhaseMark &Mark, uint32_t Core,
                       double &Cycles) {
  const MarkCostModel &MC = P.IProg->cost();
  ++P.Stats.MarksFired;
  uint32_t Ct = coreType(Core);
  double Overhead = static_cast<double>(MC.MarkInsts) * 0.5;

  // Every transition closes an in-flight monitoring session: a section
  // ends where the next phase mark begins.
  if (P.MonActive)
    finishMonitor(P);

  PhaseTuner::Decision D = P.Tuner.onMark(Mark.PhaseType, Ct);

  bool NeedMigrate = false;
  if (D.SwitchAllCores) {
    Overhead += Sim.AffinityApiCycles;
    P.AffinityMask = Config.allCoresMask();
  } else if (D.TargetCoreType >= 0) {
    uint64_t Want =
        Config.coreMaskOfType(static_cast<uint32_t>(D.TargetCoreType));
    if (static_cast<uint32_t>(D.TargetCoreType) != Ct) {
      // Cross-type switch: affinity call plus migration penalty.
      P.AffinityMask = Want;
      Overhead += Sim.AffinityApiCycles + MC.SwitchCycles;
      ++P.Stats.CoreSwitches;
      NeedMigrate = true;
    } else if (P.AffinityMask != Want) {
      P.AffinityMask = Want;
      Overhead += Sim.AffinityApiCycles;
    }
  }

  if (D.StartMonitor && !NeedMigrate) {
    if (Counters.acquire()) {
      P.MonActive = true;
      P.MonPhaseType = Mark.PhaseType;
      P.MonCoreType = Ct;
      P.MonInsts = 0;
      P.MonCycles = 0;
      ++P.Stats.MonitorSessions;
      Overhead += MC.MonitorSetupCycles;
      // Pin to the sampled core type so the sample is attributable.
      uint64_t Want = Config.coreMaskOfType(Ct);
      if (P.AffinityMask != Want) {
        P.AffinityMask = Want;
        Overhead += Sim.AffinityApiCycles;
      }
    } else {
      // PAPI-style wait: retry at the next phase mark.
      ++P.Stats.CounterWaits;
      Overhead += Sim.CounterWaitCycles;
    }
  }

  Cycles += Overhead;
  P.Stats.OverheadCycles += Overhead;
  return NeedMigrate;
}

void Machine::finishMonitor(Process &P) {
  assert(P.MonActive && "no monitoring session in flight");
  P.MonActive = false;
  Counters.release();
  if (P.MonInsts > 0 && P.MonCycles > 0)
    P.Tuner.recordSample(P.MonPhaseType, P.MonCoreType, P.MonInsts,
                         static_cast<uint64_t>(P.MonCycles));
}

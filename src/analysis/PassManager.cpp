//===- analysis/PassManager.cpp - Static preparation pipeline -------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/PassManager.h"

#include "analysis/Dominators.h"
#include "analysis/NaturalLoops.h"
#include "core/ErrorInjection.h"
#include "core/Instrument.h"
#include "ir/ProgramSet.h"
#include "obs/Clock.h"
#include "sim/CostModel.h"
#include "sim/FlatImage.h"
#include "support/Env.h"
#include "support/ThreadPool.h"
#include "workload/Runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <mutex>
#include <set>
#include <stdexcept>
#include <tuple>

using namespace pbt;

//===----------------------------------------------------------------------===//
// Verify-IR toggle and cumulative stats
//===----------------------------------------------------------------------===//

namespace {

/// -1 = unset (consult the environment on first query), 0/1 = forced.
std::atomic<int> VerifyIRState{-1};

/// Process-wide accumulation of per-pass stats across pipeline runs.
struct CumulativeStats {
  std::mutex Mutex;
  PipelineStats Stats;

  void accumulate(const PipelineStats &Run) {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const PassStats &P : Run.Passes) {
      PassStats *Row = nullptr;
      for (PassStats &Existing : Stats.Passes)
        if (Existing.Name == P.Name) {
          Row = &Existing;
          break;
        }
      if (!Row) {
        Stats.Passes.push_back(PassStats());
        Stats.Passes.back().Name = P.Name;
        Row = &Stats.Passes.back();
      }
      Row->Invocations += P.Invocations;
      Row->ProgramsChanged += P.ProgramsChanged;
      Row->Seconds += P.Seconds;
    }
  }
};

CumulativeStats &cumulative() {
  static CumulativeStats C;
  return C;
}

} // namespace

void pbt::setVerifyIR(bool Enabled) {
  VerifyIRState.store(Enabled ? 1 : 0);
}

bool pbt::verifyIREnabled() {
  int State = VerifyIRState.load();
  if (State < 0) {
    const char *Value = envString("PBT_VERIFY_IR");
    State = (Value && *Value && std::strcmp(Value, "0") != 0) ? 1 : 0;
    VerifyIRState.store(State);
  }
  return State == 1;
}

PipelineStats pbt::cumulativePipelineStats() {
  CumulativeStats &C = cumulative();
  std::lock_guard<std::mutex> Lock(C.Mutex);
  return C.Stats;
}

//===----------------------------------------------------------------------===//
// The pipeline passes
//===----------------------------------------------------------------------===//

namespace {

// Each stage fills its slot of one ProgramPrep and returns true, or
// returns false when there is nothing for it to do: the slot is
// already filled (a rerun) or the technique skips the stage. Stages run
// concurrently for different programs, so each touches only its own
// ProgramPrep (plus the read-only context).

/// Binds the program to the machine: the per-block cycle/instruction
/// tables every later stage (oracle typing, flat fusion) reads.
bool costModelPass(ProgramPrep &PC, const PipelineContext &Ctx) {
  if (PC.Cost)
    return false;
  PC.Cost = std::make_shared<const CostModel>(*PC.Prog, *Ctx.Machine);
  return true;
}

/// Phase-type assignment: the k-means proof of concept or the
/// behavioural oracle, per the technique. The baseline is untyped.
bool typingPass(ProgramPrep &PC, const PipelineContext &Ctx) {
  if (Ctx.Tech->Baseline || PC.Typed)
    return false;
  if (Ctx.Tech->UseStaticTyping) {
    TypingConfig Config;
    Config.Seed = Ctx.TypingSeed;
    PC.Typing = computeStaticTyping(*PC.Prog, Config);
  } else {
    PC.Typing = computeOracleTyping(*PC.Prog, *PC.Cost);
  }
  PC.Typed = true;
  return true;
}

/// Fig. 7 clustering-error injection over the fresh typing.
bool errorInjectPass(ProgramPrep &PC, const PipelineContext &Ctx) {
  if (Ctx.Tech->Baseline || Ctx.Tech->TypingError <= 0 || PC.ErrorInjected)
    return false;
  PC.Typing = injectClusteringError(PC.Typing, Ctx.Tech->TypingError,
                                    Ctx.TypingSeed ^ 0xE77);
  PC.ErrorInjected = true;
  return true;
}

/// Transition analysis: where the phase marks go. The baseline gets the
/// trivial one-type, zero-mark result.
bool transitionsPass(ProgramPrep &PC, const PipelineContext &Ctx) {
  if (PC.Marked)
    return false;
  if (Ctx.Tech->Baseline) {
    PC.Marking = MarkingResult();
    PC.Marking.NumTypes = 1;
    PC.Marking.RegionType.resize(PC.Prog->Procs.size());
  } else {
    PC.Marking =
        computeTransitions(*PC.Prog, PC.Typing, Ctx.Tech->Transition);
  }
  PC.Marked = true;
  return true;
}

/// Builds the instrumented program; the marks move into the image,
/// which owns them from here on. The image shares the program when the
/// caller's set is shared, and copies it otherwise.
bool instrumentPass(ProgramPrep &PC, const PipelineContext &Ctx) {
  if (PC.Image)
    return false;
  if (PC.Shared)
    PC.Image = std::make_shared<const InstrumentedProgram>(
        PC.Shared, std::move(PC.Marking), Ctx.Tech->Cost);
  else
    PC.Image = std::make_shared<const InstrumentedProgram>(
        *PC.Prog, std::move(PC.Marking), Ctx.Tech->Cost);
  return true;
}

/// Fuses image + cost model into the flat execution image.
bool flattenPass(ProgramPrep &PC, const PipelineContext &) {
  if (PC.Flat)
    return false;
  PC.Flat = std::make_shared<const FlatImage>(PC.Image, PC.Cost);
  return true;
}

/// One named stage of the pipeline.
struct PipelinePass {
  const char *Name;
  bool (*Run)(ProgramPrep &PC, const PipelineContext &Ctx);
};

/// The preparation pipeline, in execution order: each stage reads what
/// the stages before it wrote.
constexpr PipelinePass PreparationPasses[] = {
    {"cost-model", costModelPass},
    {"typing", typingPass},
    {"error-inject", errorInjectPass},
    {"transitions", transitionsPass},
    {"instrument", instrumentPass},
    {"flatten", flattenPass},
};
constexpr size_t NumPasses = std::size(PreparationPasses);

double nowSeconds() {
  // Wall time for the per-pass Seconds counters only; never feeds a
  // byte-compared artifact (see PassStats). Reads the vetted obs/Clock
  // seam, the one file allowed to touch std::chrono.
  return obs::monotonicSeconds();
}

} // namespace

namespace {

/// A context for \p N programs, with everything but the programs set.
PipelineContext emptyContext(size_t N, const MachineConfig &Machine,
                             const TechniqueSpec &Tech, uint64_t TypingSeed) {
  PipelineContext Ctx;
  Ctx.Machine = &Machine;
  Ctx.Tech = &Tech;
  Ctx.TypingSeed = TypingSeed;
  Ctx.VerifyIR = verifyIREnabled();
  Ctx.Programs.resize(N);
  return Ctx;
}

} // namespace

PipelineContext pbt::makePipelineContext(const std::vector<Program> &Programs,
                                         const MachineConfig &Machine,
                                         const TechniqueSpec &Tech,
                                         uint64_t TypingSeed) {
  PipelineContext Ctx =
      emptyContext(Programs.size(), Machine, Tech, TypingSeed);
  for (size_t I = 0; I < Programs.size(); ++I)
    Ctx.Programs[I].Prog = &Programs[I];
  return Ctx;
}

PipelineContext
pbt::makePipelineContext(const std::shared_ptr<const ProgramSet> &Set,
                         const std::vector<size_t> &Indices,
                         const MachineConfig &Machine,
                         const TechniqueSpec &Tech, uint64_t TypingSeed) {
  PipelineContext Ctx =
      emptyContext(Indices.size(), Machine, Tech, TypingSeed);
  for (size_t I = 0; I < Indices.size(); ++I) {
    Ctx.Programs[I].Shared = shareProgram(Set, Indices[I]);
    Ctx.Programs[I].Prog = Ctx.Programs[I].Shared.get();
  }
  return Ctx;
}

PipelineStats pbt::runPreparationPipeline(PipelineContext &Ctx) {
  PipelineStats Stats;
  Stats.Passes.resize(NumPasses + (Ctx.VerifyIR ? 1 : 0));
  for (size_t P = 0; P < NumPasses; ++P)
    Stats.Passes[P].Name = PreparationPasses[P].Name;
  if (Ctx.VerifyIR)
    Stats.Passes.back().Name = "verify";

  ThreadPool &Pool = ThreadPool::global();
  const size_t N = Ctx.Programs.size();
  std::vector<uint8_t> Changed(N);

  // The self-verification sweep: every program's whole prepared state,
  // re-checked after the pass that just ran. Read-only per program, so
  // it fans out like any pass; failures surface on the caller thread as
  // one exception naming the pass boundary that broke the invariant.
  auto VerifySweep = [&](const char *AfterPass) {
    PassStats &V = Stats.Passes.back();
    double Start = nowSeconds();
    std::vector<std::string> Errors(N);
    Pool.parallelFor(N, [&](size_t I) {
      std::string Err;
      if (!verifyPrep(Ctx.Programs[I], Ctx, &Err))
        Errors[I] = Err.empty() ? "invariant violated" : Err;
    });
    V.Invocations += N;
    V.Seconds += nowSeconds() - Start;
    for (size_t I = 0; I < N; ++I)
      if (!Errors[I].empty())
        throw std::runtime_error(
            std::string("verify-ir: after pass '") + AfterPass +
            "', program '" + Ctx.Programs[I].Prog->Name +
            "': " + Errors[I]);
  };

  for (size_t P = 0; P < NumPasses; ++P) {
    const PipelinePass &Pass = PreparationPasses[P];
    PassStats &PS = Stats.Passes[P];
    double Start = nowSeconds();
    Pool.parallelFor(N, [&](size_t I) {
      Changed[I] = Pass.Run(Ctx.Programs[I], Ctx) ? 1 : 0;
    });
    PS.Invocations = N;
    for (uint8_t C : Changed)
      PS.ProgramsChanged += C;
    PS.Seconds = nowSeconds() - Start;
    if (Ctx.VerifyIR)
      VerifySweep(Pass.Name);
  }

  cumulative().accumulate(Stats);
  return Stats;
}

//===----------------------------------------------------------------------===//
// VerifyPass: static analysis of our own IR and derived images
//===----------------------------------------------------------------------===//

namespace {

bool failWith(std::string *Out, std::string Msg) {
  if (Out)
    *Out = std::move(Msg);
  return false;
}

std::string place(const char *What, uint32_t Proc, uint32_t Block) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s at proc %u block %u", What, Proc,
                Block);
  return Buf;
}

bool bitEqual(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Recomputes dominators and natural loops per procedure and checks the
/// analyses' own invariants against each other and the CFG.
bool checkCfgAnalyses(const Program &Prog, std::string *Out) {
  for (const Procedure &P : Prog.Procs) {
    DominatorTree DT(P);
    if (DT.idom(0) != 0)
      return failWith(Out, place("entry idom is not the entry", P.Id, 0));
    for (uint32_t B = 1; B < P.Blocks.size(); ++B) {
      int32_t Id = DT.idom(B);
      if (Id < 0)
        continue; // Unreachable block: dominates nothing, fine.
      if (static_cast<uint32_t>(Id) == B)
        return failWith(Out, place("non-entry block is its own idom",
                                   P.Id, B));
      if (!DT.dominates(static_cast<uint32_t>(Id), B))
        return failWith(Out,
                        place("idom does not dominate its block", P.Id, B));
    }

    LoopInfo LI = computeLoops(P);
    if (LI.InnermostLoop.size() != P.Blocks.size())
      return failWith(Out, place("innermost-loop map has wrong size", P.Id,
                                 0));
    for (size_t L = 0; L < LI.Loops.size(); ++L) {
      const Loop &Lp = LI.Loops[L];
      if (Lp.Header >= P.Blocks.size() || !Lp.contains(Lp.Header))
        return failWith(Out,
                        place("loop header outside loop", P.Id, Lp.Header));
      for (size_t I = 0; I < Lp.Blocks.size(); ++I) {
        uint32_t B = Lp.Blocks[I];
        if (B >= P.Blocks.size())
          return failWith(Out, place("loop member out of range", P.Id, B));
        if (I > 0 && Lp.Blocks[I - 1] >= B)
          return failWith(Out,
                          place("loop members not sorted", P.Id, B));
        if (!DT.dominates(Lp.Header, B))
          return failWith(
              Out, place("loop header does not dominate member", P.Id, B));
      }
      if (Lp.Parent >= 0) {
        if (static_cast<size_t>(Lp.Parent) >= LI.Loops.size())
          return failWith(Out,
                          place("loop parent out of range", P.Id, Lp.Header));
        const Loop &Par = LI.Loops[static_cast<size_t>(Lp.Parent)];
        if (Par.Depth + 1 != Lp.Depth)
          return failWith(
              Out, place("loop depth != parent depth + 1", P.Id, Lp.Header));
        if (std::find(Par.Children.begin(), Par.Children.end(),
                      static_cast<uint32_t>(L)) == Par.Children.end())
          return failWith(
              Out, place("loop missing from parent's children", P.Id,
                         Lp.Header));
        for (uint32_t B : Lp.Blocks)
          if (!Par.contains(B))
            return failWith(
                Out, place("nested loop member escapes parent", P.Id, B));
      } else if (Lp.Depth != 1) {
        return failWith(Out,
                        place("outermost loop depth != 1", P.Id, Lp.Header));
      }
    }
    for (uint32_t B = 0; B < P.Blocks.size(); ++B) {
      int32_t L = LI.InnermostLoop[B];
      if (L < 0)
        continue;
      if (static_cast<size_t>(L) >= LI.Loops.size() ||
          !LI.Loops[static_cast<size_t>(L)].contains(B))
        return failWith(
            Out, place("innermost-loop map disagrees with loop", P.Id, B));
    }
  }
  return true;
}

/// Mark-placement legality against the program: anchors in range, edge
/// marks on real edges, call marks on call-terminated blocks, no
/// duplicate anchors, phase types within the typing universe.
bool checkMarks(const Program &Prog, const std::vector<PhaseMark> &Marks,
                uint32_t NumTypes, std::string *Out) {
  std::set<std::tuple<uint32_t, uint32_t, uint8_t, uint32_t>> Anchors;
  for (const PhaseMark &M : Marks) {
    if (M.Proc >= Prog.Procs.size())
      return failWith(Out, place("mark proc out of range", M.Proc, M.Block));
    const Procedure &P = Prog.Procs[M.Proc];
    if (M.Block >= P.Blocks.size())
      return failWith(Out, place("mark block out of range", M.Proc, M.Block));
    const BasicBlock &BB = P.Blocks[M.Block];
    if (M.Point == MarkPoint::Edge) {
      if (M.SuccIndex >= 2 || M.SuccIndex >= BB.Succs.size())
        return failWith(
            Out, place("edge mark on nonexistent edge", M.Proc, M.Block));
    } else if (M.Point == MarkPoint::CallSite) {
      if (BB.calleeOrNone() < 0)
        return failWith(
            Out, place("call mark on call-free block", M.Proc, M.Block));
    } else {
      return failWith(Out, place("invalid mark point", M.Proc, M.Block));
    }
    if (M.PhaseType >= std::max(1u, NumTypes))
      return failWith(Out,
                      place("mark phase type out of range", M.Proc, M.Block));
    uint32_t Slot = M.Point == MarkPoint::CallSite ? 0 : M.SuccIndex;
    if (!Anchors
             .emplace(M.Proc, M.Block, static_cast<uint8_t>(M.Point), Slot)
             .second)
      return failWith(Out, place("duplicate mark anchor", M.Proc, M.Block));
  }
  return true;
}

/// Typing shape: one type per block, all within [0, NumTypes).
bool checkTyping(const Program &Prog, const ProgramTyping &Typing,
                 std::string *Out) {
  if (Typing.NumTypes == 0)
    return failWith(Out, "typing has zero types");
  if (Typing.TypeOf.size() != Prog.Procs.size())
    return failWith(Out, "typing proc count mismatch");
  for (uint32_t P = 0; P < Prog.Procs.size(); ++P) {
    if (Typing.TypeOf[P].size() != Prog.Procs[P].Blocks.size())
      return failWith(Out, place("typing row size mismatch", P, 0));
    for (uint32_t B = 0; B < Typing.TypeOf[P].size(); ++B)
      if (Typing.TypeOf[P][B] >= Typing.NumTypes)
        return failWith(Out, place("block type out of range", P, B));
  }
  return true;
}

/// The flat image re-derived from its own program and cost model: every
/// record, mark index, cost-table row, and chain summary must equal
/// what the constructor computes, with chain cycle sums re-walked in
/// the exact engines' left-to-right order.
bool checkFlat(const FlatImage &F, std::string *Out) {
  const InstrumentedProgram &IP = F.program();
  const Program &Prog = IP.program();
  const CostModel &CM = F.cost();
  const std::vector<PhaseMark> &Marks = IP.marks();
  const uint32_t Stride = F.configStride();
  const uint32_t MaxSharers = F.maxSharers();

  if (F.numCoreTypes() != CM.machine().numCoreTypes() ||
      MaxSharers != CM.maxSharers() ||
      Stride != F.numCoreTypes() * MaxSharers || Stride == 0)
    return failWith(Out, "flat image machine shape mismatch");

  // Global-block-id contiguity: procedure offsets partition [0, total).
  if (F.numProcs() != Prog.Procs.size())
    return failWith(Out, "flat image proc count mismatch");
  uint32_t Expected = 0;
  for (uint32_t P = 0; P < F.numProcs(); ++P) {
    if (F.offsetOf(P) != Expected)
      return failWith(Out, place("global block ids not contiguous", P, 0));
    Expected += static_cast<uint32_t>(Prog.Procs[P].Blocks.size());
  }
  if (F.numBlocks() != Expected)
    return failWith(Out, "flat image block count mismatch");

  auto MarkIndex = [&](const PhaseMark *M) -> int32_t {
    return M ? static_cast<int32_t>(M - Marks.data()) : -1;
  };

  uint32_t ChainSeen = 0;
  for (uint32_t P = 0; P < F.numProcs(); ++P) {
    const Procedure &Proc = Prog.Procs[P];
    for (uint32_t B = 0; B < Proc.Blocks.size(); ++B) {
      const uint32_t G = F.globalId(P, B);
      const FlatBlock &FB = F.block(G);
      const BasicBlock &BB = Proc.Blocks[B];

      if (FB.Insts != BB.size() || FB.Insts != CM.blockInsts(P, B))
        return failWith(Out,
                        place("flat instruction count mismatch", P, B));

      // Cost-model binding: the inlined cycle rows must be bit-equal to
      // the cost model's answers for every (core type, sharers) config.
      if (FB.CycleRow != G * Stride)
        return failWith(Out, place("cycle row out of layout", P, B));
      for (uint32_t Ct = 0; Ct < F.numCoreTypes(); ++Ct)
        for (uint32_t Sharers = 1; Sharers <= MaxSharers; ++Sharers)
          if (!bitEqual(
                  F.cycleTable()[FB.CycleRow + Ct * MaxSharers +
                                 (Sharers - 1)],
                  CM.blockCycles(P, B, Ct, Sharers)))
            return failWith(
                Out, place("cycle table differs from cost model", P, B));

      int32_t E0 = MarkIndex(IP.edgeMark(P, B, 0));
      int32_t E1 = MarkIndex(IP.edgeMark(P, B, 1));
      int32_t CMk = MarkIndex(IP.callMark(P, B));
      if (BB.Term == TermKind::Cond && BB.Succs.size() < 2)
        E1 = E0; // The builder's single-successor Cond fold.
      if (FB.EdgeMark[0] != E0 || FB.EdgeMark[1] != E1 ||
          FB.CallMark != CMk)
        return failWith(Out,
                        place("flat mark lookup mismatch", P, B));

      switch (BB.Term) {
      case TermKind::Jump: {
        if (FB.Succ[0] != F.globalId(P, BB.Succs[0]))
          return failWith(Out, place("jump successor mismatch", P, B));
        int32_t Callee = BB.calleeOrNone();
        if (Callee >= 0) {
          if (FB.Op != FlatOp::Call ||
              FB.Callee != F.offsetOf(static_cast<uint32_t>(Callee)))
            return failWith(Out, place("call record mismatch", P, B));
        } else if (FB.Op !=
                   (FB.EdgeMark[0] >= 0 ? FlatOp::Jump : FlatOp::Chain)) {
          // Chains must cover exactly the mark-free, call-free jumps.
          return failWith(Out, place("jump/chain op mismatch", P, B));
        }
        break;
      }
      case TermKind::Loop:
        if (FB.Op != FlatOp::Loop ||
            FB.Succ[0] != F.globalId(P, BB.Succs[0]) ||
            FB.Succ[1] != F.globalId(P, BB.Succs[1]) ||
            FB.TripCount != BB.TripCount)
          return failWith(Out, place("loop record mismatch", P, B));
        break;
      case TermKind::Cond:
        if (FB.Op != FlatOp::Cond ||
            FB.Succ[0] != F.globalId(P, BB.Succs[0]) ||
            FB.Succ[1] !=
                F.globalId(P, BB.Succs[BB.Succs.size() > 1 ? 1 : 0]) ||
            !bitEqual(FB.TakenProb, BB.TakenProb))
          return failWith(Out, place("cond record mismatch", P, B));
        break;
      case TermKind::Ret:
        if (FB.Op != FlatOp::Ret)
          return failWith(Out, place("ret record mismatch", P, B));
        break;
      }

      if (FB.Op != FlatOp::Chain)
        continue;

      // Chain well-formedness. Rows are assigned sequentially in block
      // order; summaries obey the suffix recurrence; and the fused
      // cycle sums must equal a fresh left-to-right walk bit for bit.
      if (FB.ChainRow != ChainSeen * Stride)
        return failWith(Out, place("chain row out of order", P, B));
      ++ChainSeen;
      const FlatBlock &S = F.block(FB.Succ[0]);
      if (FB.ChainBlocks == 0) {
        // No summary: only legal when the record feeds a mark-free jump
        // cycle, i.e. its successor is another summary-less chain.
        if (S.Op != FlatOp::Chain || S.ChainBlocks != 0)
          return failWith(
              Out, place("summary-less chain does not feed a cycle", P, B));
        continue;
      }
      if (S.Op == FlatOp::Chain) {
        if (S.ChainBlocks == 0 || S.ChainBlocks + 1 != FB.ChainBlocks ||
            FB.ChainInsts != FB.Insts + S.ChainInsts ||
            FB.ChainExit != S.ChainExit)
          return failWith(Out, place("chain suffix mismatch", P, B));
      } else if (FB.ChainBlocks != 1 || FB.ChainInsts != FB.Insts ||
                 FB.ChainExit != FB.Succ[0]) {
        return failWith(Out, place("chain tail mismatch", P, B));
      }
      if (F.block(FB.ChainExit).Op == FlatOp::Chain)
        return failWith(Out, place("chain exit is a chain record", P, B));
      for (uint32_t Cfg = 0; Cfg < Stride; ++Cfg) {
        double Sum = 0.0;
        uint32_t Cur = G;
        for (uint32_t Step = 0; Step < FB.ChainBlocks; ++Step) {
          const FlatBlock &W = F.block(Cur);
          if (W.Op != FlatOp::Chain)
            return failWith(Out,
                            place("chain walk leaves chain early", P, B));
          Sum += F.cycleTable()[W.CycleRow + Cfg];
          Cur = W.Succ[0];
        }
        if (Cur != FB.ChainExit)
          return failWith(Out, place("chain walk exit mismatch", P, B));
        if (!bitEqual(Sum, F.chainCycleTable()[FB.ChainRow + Cfg]))
          return failWith(
              Out,
              place("chain cycle sum differs from exact walk", P, B));
      }
    }
  }
  if (ChainSeen != F.chainRecordCount())
    return failWith(Out, "chain record count mismatch");
  return true;
}

} // namespace

bool pbt::verifyPrep(const ProgramPrep &PC, const PipelineContext &Ctx,
                     std::string *ErrorOut) {
  const Program *Prog = PC.Prog;
  if (!Prog && PC.Image)
    Prog = &PC.Image->program();
  if (!Prog)
    return failWith(ErrorOut, "no program to verify");

  std::string Err;
  if (!verify(*Prog, &Err))
    return failWith(ErrorOut, "program invariant: " + Err);
  if (!checkCfgAnalyses(*Prog, ErrorOut))
    return false;

  if (PC.Cost) {
    // Cost-model binding against the IR: entry layout and instruction
    // counts (cycle tables are cross-checked via the flat image below).
    for (uint32_t P = 0; P < Prog->Procs.size(); ++P)
      for (uint32_t B = 0; B < Prog->Procs[P].Blocks.size(); ++B)
        if (PC.Cost->blockInsts(P, B) != Prog->Procs[P].Blocks[B].size())
          return failWith(ErrorOut,
                          place("cost model disagrees with program", P, B));
  }

  if (PC.Typed && !checkTyping(*Prog, PC.Typing, ErrorOut))
    return false;

  if (PC.Marked && !PC.Image) {
    // Pre-instrumentation marking (the instrument pass moves it into
    // the image, after which the image's copy is the one checked).
    if (PC.Marking.NumTypes == 0)
      return failWith(ErrorOut, "marking has zero types");
    if (PC.Marking.RegionType.size() != Prog->Procs.size())
      return failWith(ErrorOut, "marking region-type proc count mismatch");
    for (uint32_t P = 0; P < Prog->Procs.size(); ++P) {
      const std::vector<uint32_t> &Row = PC.Marking.RegionType[P];
      if (!Row.empty() && Row.size() != Prog->Procs[P].Blocks.size())
        return failWith(ErrorOut,
                        place("region-type row size mismatch", P, 0));
      for (uint32_t Type : Row)
        if (Type >= std::max(1u, PC.Marking.NumTypes))
          return failWith(ErrorOut,
                          place("region type out of range", P, 0));
    }
    if (!checkMarks(*Prog, PC.Marking.Marks, PC.Marking.NumTypes, ErrorOut))
      return false;
  }

  if (PC.Image) {
    const InstrumentedProgram &IP = *PC.Image;
    // An image that copied its program (the by-reference path) must
    // still satisfy the IR invariants and describe the same program; one
    // that shares the source program is that program.
    if (&IP.program() != Prog) {
      if (!verify(IP.program(), &Err))
        return failWith(ErrorOut, "image program invariant: " + Err);
      if (IP.program().Name != Prog->Name ||
          IP.program().Procs.size() != Prog->Procs.size() ||
          IP.program().blockCount() != Prog->blockCount())
        return failWith(ErrorOut, "image program diverged from source");
    }
    if (IP.numTypes() == 0)
      return failWith(ErrorOut, "image has zero phase types");
    if (!checkMarks(IP.program(), IP.marks(), IP.numTypes(), ErrorOut))
      return false;
    if (Ctx.Tech && IP.cost() != Ctx.Tech->Cost)
      return failWith(ErrorOut,
                      "image mark-cost model differs from technique");
  }

  if (PC.Flat) {
    if (PC.Image && &PC.Flat->program() != PC.Image.get())
      return failWith(ErrorOut, "flat image bound to a different image");
    if (PC.Cost && &PC.Flat->cost() != PC.Cost.get())
      return failWith(ErrorOut, "flat image bound to a different cost model");
    if (!checkFlat(*PC.Flat, ErrorOut))
      return false;
  }

  return true;
}

bool pbt::verifyPrepared(const PreparedSuite &Suite,
                         const MachineConfig &Machine,
                         std::string *ErrorOut) {
  if (Suite.Images.size() != Suite.Costs.size() ||
      Suite.Images.size() != Suite.Flats.size() ||
      Suite.Images.size() != Suite.Names.size())
    return failWith(ErrorOut, "suite arrays have mismatched sizes");
  PipelineContext Ctx;
  Ctx.Machine = &Machine;
  for (size_t I = 0; I < Suite.Images.size(); ++I) {
    ProgramPrep PC;
    PC.Prog = &Suite.Images[I]->program();
    PC.Cost = Suite.Costs[I];
    PC.Image = Suite.Images[I];
    PC.Flat = Suite.Flats[I];
    std::string Err;
    if (!verifyPrep(PC, Ctx, &Err))
      return failWith(ErrorOut, "suite[" + std::to_string(I) + "] '" +
                                    Suite.Names[I] + "': " + Err);
  }
  return true;
}

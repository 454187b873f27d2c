//===- sim/FlatImage.cpp - Flat, cache-friendly execution image -----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/FlatImage.h"

#include <algorithm>
#include <cassert>

using namespace pbt;

FlatImage::FlatImage(std::shared_ptr<const InstrumentedProgram> IProgIn,
                     std::shared_ptr<const CostModel> CostIn)
    : IProg(std::move(IProgIn)), Cost(std::move(CostIn)) {
  const InstrumentedProgram &IP = *IProg;
  const Program &Prog = IP.program();
  NumCoreTypes = Cost->machine().numCoreTypes();
  MaxSharers = Cost->maxSharers();
  Stride = NumCoreTypes * MaxSharers;
  Marks = IP.marks().data();

  Offsets.resize(Prog.Procs.size());
  uint32_t Total = 0;
  for (const Procedure &P : Prog.Procs) {
    Offsets[P.Id] = Total;
    Total += static_cast<uint32_t>(P.Blocks.size());
  }
  Blocks.resize(Total);
  Cycles.resize(static_cast<size_t>(Total) * Stride);

  auto MarkIndex = [&](const PhaseMark *M) -> int32_t {
    return M ? static_cast<int32_t>(M - Marks) : -1;
  };

  for (const Procedure &P : Prog.Procs) {
    uint32_t Base = Offsets[P.Id];
    for (const BasicBlock &BB : P.Blocks) {
      uint32_t G = Base + BB.Id;
      FlatBlock &F = Blocks[G];
      F.Insts = Cost->blockInsts(P.Id, BB.Id);
      assert(F.Insts == BB.size() && "cost model disagrees with program");
      F.CycleRow = G * Stride;
      for (uint32_t Ct = 0; Ct < NumCoreTypes; ++Ct)
        for (uint32_t Sharers = 1; Sharers <= MaxSharers; ++Sharers)
          Cycles[F.CycleRow + Ct * MaxSharers + (Sharers - 1)] =
              Cost->blockCycles(P.Id, BB.Id, Ct, Sharers);

      F.EdgeMark[0] = MarkIndex(IP.edgeMark(P.Id, BB.Id, 0));
      F.EdgeMark[1] = MarkIndex(IP.edgeMark(P.Id, BB.Id, 1));
      F.CallMark = MarkIndex(IP.callMark(P.Id, BB.Id));

      switch (BB.Term) {
      case TermKind::Jump: {
        F.Succ[0] = Base + BB.Succs[0];
        int32_t Callee = BB.calleeOrNone();
        if (Callee >= 0) {
          F.Op = FlatOp::Call;
          F.Callee = Offsets[static_cast<uint32_t>(Callee)];
        } else {
          F.Op = F.EdgeMark[0] >= 0 ? FlatOp::Jump : FlatOp::Chain;
        }
        break;
      }
      case TermKind::Loop:
        F.Op = FlatOp::Loop;
        F.Succ[0] = Base + BB.Succs[0];
        F.Succ[1] = Base + BB.Succs[1];
        F.TripCount = BB.TripCount;
        break;
      case TermKind::Cond:
        // verify() admits single-successor Cond blocks; fold both the
        // successor and its mark onto the only edge, matching the
        // reference engine's fold.
        F.Op = FlatOp::Cond;
        F.Succ[0] = Base + BB.Succs[0];
        F.Succ[1] = Base + BB.Succs[BB.Succs.size() > 1 ? 1 : 0];
        if (BB.Succs.size() < 2)
          F.EdgeMark[1] = F.EdgeMark[0];
        F.TakenProb = BB.TakenProb;
        break;
      case TermKind::Ret:
        F.Op = FlatOp::Ret;
        break;
      }
    }
  }

  buildChains();
}

uint32_t FlatImage::procOf(uint32_t Global) const {
  auto It = std::upper_bound(Offsets.begin(), Offsets.end(), Global);
  assert(It != Offsets.begin() && "global id below first procedure");
  return static_cast<uint32_t>(It - Offsets.begin()) - 1;
}

void FlatImage::buildChains() {
  // Assign each Chain record a row in the summed-cycles table.
  for (FlatBlock &F : Blocks)
    if (F.Op == FlatOp::Chain)
      F.ChainRow = NumChainRecords++ * Stride;
  ChainCycles.assign(static_cast<size_t>(NumChainRecords) * Stride, 0.0);

  // Memoized suffix walk: the summary of a chain record is its own cost
  // plus the summary of its (single) successor. A mark-free Jump cycle
  // never exits, so every record on or feeding such a cycle keeps
  // ChainBlocks == 0 (no fused summary; the engine's tight loop still
  // executes it under the quantum budget, exactly like the reference).
  enum : uint8_t { Unvisited = 0, OnPath = 1, Done = 2 };
  std::vector<uint8_t> State(Blocks.size(), Unvisited);
  std::vector<uint32_t> Path;

  for (uint32_t Start = 0; Start < Blocks.size(); ++Start) {
    if (Blocks[Start].Op != FlatOp::Chain || State[Start] != Unvisited)
      continue;

    Path.clear();
    uint32_t Cur = Start;
    while (Blocks[Cur].Op == FlatOp::Chain && State[Cur] == Unvisited) {
      State[Cur] = OnPath;
      Path.push_back(Cur);
      Cur = Blocks[Cur].Succ[0];
    }

    bool Cyclic = Blocks[Cur].Op == FlatOp::Chain && State[Cur] == OnPath;
    if (!Cyclic && Blocks[Cur].Op == FlatOp::Chain &&
        Blocks[Cur].ChainBlocks == 0)
      Cyclic = true; // Memoized successor already known to feed a cycle.

    if (Cyclic) {
      for (uint32_t Id : Path) {
        State[Id] = Done;
        Blocks[Id].ChainBlocks = 0;
      }
      continue;
    }

    // Unwind from the chain exit back to Start, accumulating suffixes.
    uint32_t NextBlocks = 0;
    uint32_t NextInsts = 0;
    uint32_t Exit = Cur;
    if (Blocks[Cur].Op == FlatOp::Chain) { // Memoized, valid summary.
      NextBlocks = Blocks[Cur].ChainBlocks;
      NextInsts = Blocks[Cur].ChainInsts;
      Exit = Blocks[Cur].ChainExit;
    }
    for (auto It = Path.rbegin(); It != Path.rend(); ++It) {
      FlatBlock &F = Blocks[*It];
      State[*It] = Done;
      F.ChainBlocks = NextBlocks + 1;
      F.ChainInsts = NextInsts + F.Insts;
      F.ChainExit = Exit;
      NextBlocks = F.ChainBlocks;
      NextInsts = F.ChainInsts;
    }
  }

  // Fused cycle sums, in the SAME left-to-right order the engines'
  // exact chain walk accumulates them. The memoized suffix recurrence
  // above would be O(chain) per record but adds right to left —
  // charging such a sum in one step drifts from the exact walk by the
  // reassociation error of the whole chain. Walking each record's
  // chain forward instead costs O(sum of chain lengths) once at build
  // time (chains are short straight-line runs between marks) and makes
  // a fused charge bit-equal to what the exact walk adds when it
  // starts from a zero partial sum; the only drift the fast-replay
  // engine can accumulate is the reassociation of folding whole-chain
  // sums into a non-zero quantum accumulator, bounded by a few ulps of
  // the quantum total per chain (see docs/ARCHITECTURE.md).
  for (const FlatBlock &F : Blocks) {
    if (F.Op != FlatOp::Chain || F.ChainBlocks == 0)
      continue;
    for (uint32_t Cfg = 0; Cfg < Stride; ++Cfg) {
      double Sum = 0.0;
      uint32_t Cur2 = static_cast<uint32_t>(&F - Blocks.data());
      for (uint32_t Step = 0; Step < F.ChainBlocks; ++Step) {
        Sum += Cycles[Blocks[Cur2].CycleRow + Cfg];
        Cur2 = Blocks[Cur2].Succ[0];
      }
      ChainCycles[F.ChainRow + Cfg] = Sum;
    }
  }
}

void FlatImage::serialize(BinaryWriter &W) const {
  W.u32(NumCoreTypes);
  W.u32(MaxSharers);
  W.u32(Stride);
  W.u32(NumChainRecords);
  W.u32(static_cast<uint32_t>(Offsets.size()));
  for (uint32_t Offset : Offsets)
    W.u32(Offset);
  W.u32(static_cast<uint32_t>(Blocks.size()));
  for (const FlatBlock &F : Blocks) {
    W.u8(static_cast<uint8_t>(F.Op));
    W.u32(F.Insts);
    W.u32(F.Succ[0]);
    W.u32(F.Succ[1]);
    W.u32(F.CycleRow);
    W.i32(F.EdgeMark[0]);
    W.i32(F.EdgeMark[1]);
    W.i32(F.CallMark);
    W.u32(F.Callee);
    W.u32(F.TripCount);
    W.f64(F.TakenProb);
    W.u32(F.ChainBlocks);
    W.u32(F.ChainInsts);
    W.u32(F.ChainExit);
    W.u32(F.ChainRow);
  }
  W.u32(static_cast<uint32_t>(Cycles.size()));
  for (double Value : Cycles)
    W.f64(Value);
  W.u32(static_cast<uint32_t>(ChainCycles.size()));
  for (double Value : ChainCycles)
    W.f64(Value);
}

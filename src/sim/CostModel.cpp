//===- sim/CostModel.cpp - Analytic block execution cost ------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CostModel.h"

#include <algorithm>
#include <cassert>

using namespace pbt;

double CpiTable::of(InstKind Kind) const {
  switch (Kind) {
  case InstKind::IntAlu:
    return IntAlu;
  case InstKind::FpAlu:
    return FpAlu;
  case InstKind::Load:
  case InstKind::Store:
    return Mem;
  case InstKind::Branch:
    return Branch;
  case InstKind::Call:
  case InstKind::Ret:
    return CallRet;
  case InstKind::Syscall:
    return Syscall;
  }
  return 1.0;
}

CostModel::CostModel(const Program &Prog, const MachineConfig &MachineIn,
                     CpiTable Cpi)
    : Machine(MachineIn) {
  MaxSharers = std::max(1u, Machine.maxGroupSize());
  Stride = Machine.numCoreTypes() * MaxSharers;

  ProcOffset.resize(Prog.Procs.size());
  uint32_t Offset = 0;
  for (const Procedure &P : Prog.Procs) {
    ProcOffset[P.Id] = Offset;
    Offset += static_cast<uint32_t>(P.Blocks.size());
  }
  Entries.resize(Offset);
  Stalls.resize(static_cast<size_t>(Offset) * Stride);

  // Base CPI per InstKind: the per-instruction sum is one indexed load.
  constexpr size_t NumKinds = static_cast<size_t>(InstKind::Syscall) + 1;
  double KindCpi[NumKinds];
  for (size_t K = 0; K < NumKinds; ++K)
    KindCpi[K] = Cpi.of(static_cast<InstKind>(K));

  // Effective L2 lines (>= 1) and miss penalty of each stall column.
  std::vector<uint32_t> EffLines(Stride);
  std::vector<double> Penalty(Stride);
  uint32_t MinEffLines = ~0u;
  for (uint32_t Ct = 0; Ct < Machine.numCoreTypes(); ++Ct)
    for (uint32_t Sharers = 1; Sharers <= MaxSharers; ++Sharers) {
      uint32_t C = Ct * MaxSharers + (Sharers - 1);
      EffLines[C] = std::max(1u, Machine.cacheLines(Ct) / Sharers);
      Penalty[C] = Machine.missPenaltyCycles(Ct);
      MinEffLines = std::min(MinEffLines, EffLines[C]);
    }

  // Scratch shared by every block: occurrences of each line in one
  // execution, and the lines seen so far (to reset them after).
  std::vector<uint32_t> Occurrences;
  std::vector<uint32_t> Lines;

  for (const Procedure &P : Prog.Procs) {
    for (const BasicBlock &BB : P.Blocks) {
      size_t G = ProcOffset[P.Id] + BB.Id;
      BlockEntry &E = Entries[G];
      E.Insts = static_cast<uint32_t>(BB.size());
      double Base = 0;
      for (const Instruction &I : BB.Insts) {
        Base += KindCpi[static_cast<size_t>(I.Kind)];
        if (!isMemoryKind(I.Kind))
          continue;
        ++E.MemOps;
        assert(I.MemRef >= 0 && "memory op without a line");
        auto Line = static_cast<uint32_t>(I.MemRef);
        if (Line >= Occurrences.size())
          Occurrences.resize(static_cast<size_t>(Line) + 1, 0);
        if (Occurrences[Line]++ == 0)
          Lines.push_back(Line);
      }
      E.BaseCycles = Base;

      // Lines touched once per execution stream when the block declares
      // a stream (see computeBlockReuse()).
      uint32_t Streaming = 0;
      for (uint32_t Line : Lines) {
        Streaming += Occurrences[Line] == 1 ? 1 : 0;
        Occurrences[Line] = 0;
      }
      auto Distinct = static_cast<uint32_t>(Lines.size());
      Lines.clear();

      // The closed form below holds for EffLines >= Distinct; a cache
      // share smaller than the block replays its reference stream.
      ReuseProfile Reuse;
      if (Distinct > MinEffLines)
        Reuse = computeBlockReuse(BB);

      double Ambient = Cpi.AmbientMissPerInst * static_cast<double>(E.Insts);
      double *Row = &Stalls[G * Stride];
      for (uint32_t C = 0; C < Stride; ++C) {
        double Rate;
        if (EffLines[C] < Distinct) {
          Rate = Reuse.missRate(EffLines[C]);
        } else {
          // No recorded access is cold and every resident distance is
          // below Distinct, so only streaming accesses (distance
          // StreamWorkingSet) can miss. EffLines >= 1, so a block that
          // declares no stream (StreamWorkingSet == 0) counts none.
          // Missing == 0 also covers blocks without memory operations,
          // for which missRate() returns 0 instead of 0/0.
          uint32_t Missing =
              BB.StreamWorkingSet >= EffLines[C] ? Streaming : 0;
          Rate = Missing == 0 ? 0.0
                              : static_cast<double>(Missing) /
                                    static_cast<double>(E.MemOps);
        }
        Row[C] = (Rate * static_cast<double>(E.MemOps) + Ambient) *
                 Penalty[C];
      }
    }
  }
}

void CostModel::serializeTables(BinaryWriter &W) const {
  W.u32(MaxSharers);
  W.u32(static_cast<uint32_t>(ProcOffset.size()));
  for (uint32_t Offset : ProcOffset)
    W.u32(Offset);
  W.u32(static_cast<uint32_t>(Entries.size()));
  const uint32_t NumCoreTypes = Stride / MaxSharers;
  const double *Row = Stalls.data();
  for (const BlockEntry &E : Entries) {
    W.u32(E.Insts);
    W.u32(E.MemOps);
    W.f64(E.BaseCycles);
    W.u32(NumCoreTypes);
    for (uint32_t Ct = 0; Ct < NumCoreTypes; ++Ct) {
      W.u32(MaxSharers);
      for (uint32_t L = 0; L < MaxSharers; ++L)
        W.f64(*Row++);
    }
  }
}

CostModel CostModel::deserializeTables(BinaryReader &R,
                                       const MachineConfig &Machine,
                                       const Program &Prog) {
  CostModel M;
  M.Machine = Machine;
  // The tables must agree with the machine and program they claim to
  // describe: sharer depth, stall-matrix shape, the canonical offset
  // layout, and per-block instruction counts. Each shape word is
  // checked before the data it sizes is read.
  M.MaxSharers = R.u32();
  if (M.MaxSharers != std::max(1u, Machine.maxGroupSize()))
    R.markFailed();
  const uint32_t NumCoreTypes = Machine.numCoreTypes();
  M.Stride = NumCoreTypes * M.MaxSharers;
  M.ProcOffset.resize(R.count(1u << 24, /*ElemBytes=*/4));
  for (uint32_t &Offset : M.ProcOffset)
    Offset = R.u32();
  M.Entries.resize(R.count(1u << 24, /*ElemBytes=*/20));
  if (M.ProcOffset.size() != Prog.Procs.size() ||
      M.Entries.size() != Prog.blockCount())
    R.markFailed();
  if (R.failed())
    return M;
  M.Stalls.resize(M.Entries.size() * M.Stride);
  double *Row = M.Stalls.data();
  for (BlockEntry &E : M.Entries) {
    E.Insts = R.u32();
    E.MemOps = R.u32();
    E.BaseCycles = R.f64();
    if (R.u32() != NumCoreTypes)
      R.markFailed();
    for (uint32_t Ct = 0; Ct < NumCoreTypes && !R.failed(); ++Ct) {
      if (R.u32() != M.MaxSharers)
        R.markFailed();
      for (uint32_t L = 0; L < M.MaxSharers; ++L)
        *Row++ = R.f64();
    }
    if (R.failed())
      return M;
  }
  uint32_t Offset = 0;
  for (const Procedure &P : Prog.Procs) {
    if (M.ProcOffset[P.Id] != Offset) {
      R.markFailed();
      break;
    }
    for (const BasicBlock &BB : P.Blocks)
      if (M.Entries[Offset + BB.Id].Insts != BB.size()) {
        R.markFailed();
        break;
      }
    Offset += static_cast<uint32_t>(P.Blocks.size());
  }
  return M;
}

double CostModel::blockCycles(uint32_t Proc, uint32_t Block,
                              uint32_t CoreType, uint32_t Sharers) const {
  assert(CoreType * MaxSharers < Stride && "core type out of range");
  uint32_t Level = std::min(std::max(Sharers, 1u), MaxSharers) - 1;
  size_t G = ProcOffset[Proc] + Block;
  return Entries[G].BaseCycles +
         Stalls[G * Stride + CoreType * MaxSharers + Level];
}

uint32_t CostModel::blockInsts(uint32_t Proc, uint32_t Block) const {
  return Entries[ProcOffset[Proc] + Block].Insts;
}

double CostModel::blockIpc(uint32_t Proc, uint32_t Block,
                           uint32_t CoreType) const {
  double Cycles = blockCycles(Proc, Block, CoreType, 1);
  return Cycles <= 0 ? 0
                     : static_cast<double>(blockInsts(Proc, Block)) / Cycles;
}

ProgramTyping pbt::computeOracleTyping(const Program &Prog,
                                       const CostModel &Cost,
                                       double IpcThreshold) {
  const MachineConfig &M = Cost.machine();
  // Fastest and slowest core types by frequency.
  uint32_t Fast = 0;
  uint32_t Slow = 0;
  for (uint32_t Ct = 0; Ct < M.numCoreTypes(); ++Ct) {
    if (M.CoreTypes[Ct].Frequency > M.CoreTypes[Fast].Frequency)
      Fast = Ct;
    if (M.CoreTypes[Ct].Frequency < M.CoreTypes[Slow].Frequency)
      Slow = Ct;
  }

  ProgramTyping Typing;
  Typing.NumTypes = 2;
  Typing.TypeOf.resize(Prog.Procs.size());
  for (const Procedure &P : Prog.Procs) {
    Typing.TypeOf[P.Id].assign(P.Blocks.size(), 0);
    if (Fast == Slow)
      continue; // Symmetric machine: everything is type 0.
    for (const BasicBlock &BB : P.Blocks) {
      double Gap = Cost.blockIpc(P.Id, BB.Id, Slow) -
                   Cost.blockIpc(P.Id, BB.Id, Fast);
      Typing.TypeOf[P.Id][BB.Id] = Gap > IpcThreshold ? 1 : 0;
    }
  }
  return Typing;
}

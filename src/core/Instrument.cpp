//===- core/Instrument.cpp - Static phase-mark insertion ------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Instrument.h"

#include "support/Hashing.h"

#include <cassert>

using namespace pbt;

uint64_t pbt::hashValue(const MarkCostModel &Cost) {
  uint64_t H = hashCombine(0x9B31D7, Cost.MarkBytes);
  H = hashCombine(H, Cost.RuntimeStubBytes);
  H = hashCombine(H, Cost.MarkInsts);
  H = hashCombine(H, Cost.MonitorSetupCycles);
  return hashCombine(H, Cost.SwitchCycles);
}

InstrumentedProgram::InstrumentedProgram(Program ProgIn,
                                         MarkingResult Marking,
                                         MarkCostModel CostIn)
    : InstrumentedProgram(std::make_shared<const Program>(std::move(ProgIn)),
                          std::move(Marking), CostIn) {}

InstrumentedProgram::InstrumentedProgram(std::shared_ptr<const Program> ProgIn,
                                         MarkingResult Marking,
                                         MarkCostModel CostIn)
    : Prog(std::move(ProgIn)), Marks(std::move(Marking.Marks)),
      NumTypes(Marking.NumTypes), Cost(CostIn) {
  assert(Prog && "an image needs a program");
  Lookup.resize(Prog->Procs.size());
  for (const Procedure &P : Prog->Procs)
    Lookup[P.Id].resize(P.Blocks.size());

  for (size_t I = 0; I < Marks.size(); ++I) {
    const PhaseMark &M = Marks[I];
    assert(M.Proc < Lookup.size() && "mark names unknown procedure");
    assert(M.Block < Lookup[M.Proc].size() && "mark names unknown block");
    BlockMarks &Slot = Lookup[M.Proc][M.Block];
    if (M.Point == MarkPoint::CallSite) {
      assert(Slot.CallMark < 0 && "duplicate call mark");
      Slot.CallMark = static_cast<int32_t>(I);
      continue;
    }
    assert(M.SuccIndex < 2 && "IR blocks have at most two successors");
    assert(Slot.EdgeMark[M.SuccIndex] < 0 && "duplicate edge mark");
    Slot.EdgeMark[M.SuccIndex] = static_cast<int32_t>(I);
  }
}

const PhaseMark *InstrumentedProgram::edgeMark(uint32_t Proc, uint32_t Block,
                                               uint32_t SuccIndex) const {
  if (SuccIndex >= 2)
    return nullptr;
  int32_t Index = Lookup[Proc][Block].EdgeMark[SuccIndex];
  return Index < 0 ? nullptr : &Marks[static_cast<size_t>(Index)];
}

const PhaseMark *InstrumentedProgram::callMark(uint32_t Proc,
                                               uint32_t Block) const {
  int32_t Index = Lookup[Proc][Block].CallMark;
  return Index < 0 ? nullptr : &Marks[static_cast<size_t>(Index)];
}

uint64_t InstrumentedProgram::addedByteSize() const {
  return static_cast<uint64_t>(Marks.size()) * Cost.MarkBytes +
         Cost.RuntimeStubBytes;
}

uint64_t InstrumentedProgram::instrumentedByteSize() const {
  return Prog->byteSize() + addedByteSize();
}

double InstrumentedProgram::spaceOverheadPercent() const {
  double Original = static_cast<double>(Prog->byteSize());
  if (Original <= 0)
    return 0;
  return 100.0 * static_cast<double>(addedByteSize()) / Original;
}

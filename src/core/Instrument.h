//===- core/Instrument.h - Static phase-mark insertion ----------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary instrumentation model (paper Sec. II-A2 and III). The paper's
/// framework rewrites binaries, inserting at each transition point a
/// phase mark of at most 78 bytes (data + analysis + switching code) plus
/// a one-time runtime support stub. This reproduction attaches marks to
/// CFG edges / call sites of the program copy and accounts for their
/// static footprint (space overhead, Fig. 3) and their dynamic cost
/// (executed mark instructions, monitoring setup, and the ~1000-cycle
/// affinity switch; Figs. 4 and 5).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_CORE_INSTRUMENT_H
#define PBT_CORE_INSTRUMENT_H

#include "core/Transitions.h"
#include "ir/Program.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace pbt {

/// Static and dynamic cost model of phase marks.
///
/// The Tuned profile mirrors the paper's finely tuned instrumentation
/// (code specialization, live-register analysis, instruction motion: "an
/// unconditional jump and a relatively small number of pushes"); the
/// AtomStyle profile models a general-purpose instrumentation strategy
/// (full register save/restore around a generic callback), used for the
/// paper's "10x faster than ATOM" comparison.
struct MarkCostModel {
  /// Bytes added to the binary per mark (paper: "at most 78 bytes").
  uint32_t MarkBytes = 78;
  /// One-time runtime support stub linked into the binary.
  uint32_t RuntimeStubBytes = 640;
  /// Instructions executed per mark firing on the decided fast path.
  uint32_t MarkInsts = 12;
  /// Extra cycles to start/stop a hardware-counter monitoring session.
  uint32_t MonitorSetupCycles = 220;
  /// Cycles consumed by an actual core migration (paper Sec. IV-B3
  /// measures ~1000 cycles).
  uint32_t SwitchCycles = 1000;

  static MarkCostModel tuned() { return MarkCostModel(); }

  static MarkCostModel atomStyle() {
    MarkCostModel M;
    M.MarkBytes = 160;
    M.MarkInsts = 120; // Generic save-all/call/restore-all trampoline.
    return M;
  }

  bool operator==(const MarkCostModel &Other) const {
    return MarkBytes == Other.MarkBytes &&
           RuntimeStubBytes == Other.RuntimeStubBytes &&
           MarkInsts == Other.MarkInsts &&
           MonitorSetupCycles == Other.MonitorSetupCycles &&
           SwitchCycles == Other.SwitchCycles;
  }
  bool operator!=(const MarkCostModel &Other) const {
    return !(*this == Other);
  }
};

/// Stable content hash over every MarkCostModel field.
uint64_t hashValue(const MarkCostModel &Cost);

/// A program together with its phase marks and O(1) mark lookup,
/// analogous to the paper's "standalone binary with phase information and
/// dynamic analysis code fragments". The image does not copy the
/// program: it shares the caller's immutable IR (usually an aliasing
/// handle into a lab's program set), so every technique's image of one
/// program reads the same bytes.
class InstrumentedProgram {
public:
  InstrumentedProgram(std::shared_ptr<const Program> Prog,
                      MarkingResult Marking,
                      MarkCostModel Cost = MarkCostModel::tuned());

  /// Convenience for callers holding a program by value: moves it into
  /// a fresh shared allocation the image owns alone.
  InstrumentedProgram(Program Prog, MarkingResult Marking,
                      MarkCostModel Cost = MarkCostModel::tuned());

  const Program &program() const { return *Prog; }
  const std::vector<PhaseMark> &marks() const { return Marks; }
  uint32_t numTypes() const { return NumTypes; }
  const MarkCostModel &cost() const { return Cost; }

  /// Mark on edge (\p Proc, \p Block, \p SuccIndex), or nullptr.
  const PhaseMark *edgeMark(uint32_t Proc, uint32_t Block,
                            uint32_t SuccIndex) const;

  /// Mark on the call terminating (\p Proc, \p Block), or nullptr.
  const PhaseMark *callMark(uint32_t Proc, uint32_t Block) const;

  /// Bytes the instrumentation adds: every mark plus the runtime stub.
  uint64_t addedByteSize() const;

  /// Size of the instrumented binary in bytes.
  uint64_t instrumentedByteSize() const;

  /// Space overhead over the original binary, in percent (Fig. 3).
  double spaceOverheadPercent() const;

private:
  struct BlockMarks {
    int32_t EdgeMark[2] = {-1, -1};
    int32_t CallMark = -1;
  };

  std::shared_ptr<const Program> Prog;
  std::vector<PhaseMark> Marks;
  uint32_t NumTypes = 0;
  MarkCostModel Cost;
  std::vector<std::vector<BlockMarks>> Lookup;
};

} // namespace pbt

#endif // PBT_CORE_INSTRUMENT_H

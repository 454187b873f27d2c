//===- sim/FlatImage.h - Flat, cache-friendly execution image ---*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat execution image: program structure, per-block execution
/// costs, and phase-mark lookup fused into one contiguous array of POD
/// records indexed by *global block id*.
///
/// Global block ids reuse the CostModel's ProcOffset scheme: procedure
/// P's block B has global id `offsetOf(P) + B`, procedures laid out in
/// id order, so procedure entries are at `offsetOf(P)` and `main`'s
/// entry is always global id 0. Everything the interpreter's inner loop
/// needs for one block — pre-decoded terminator kind, successor global
/// ids, callee entry, trip count, taken probability, instruction count,
/// mark indices for both edges and the call site, and the row of a
/// precomputed cycles[coreType][sharers] table — sits in a single
/// 64-byte record, so advancing one block is one indexed load instead
/// of the reference interpreter's 4+ pointer chases
/// (Prog.Procs[P].Blocks[B], CostModel::blockCycles, and two
/// InstrumentedProgram::edgeMark lookups).
///
/// On top of the per-block records the image precomputes *superblock
/// chains*: maximal runs of mark-free, call-free, single-successor
/// (Jump) blocks. The paper's own insight — marks sit only on
/// phase-*transition* edges — means most dynamic blocks are mark-free,
/// so straight-line regions collapse into a fused summary (summed
/// cycles and instructions, block count, exit id) that the engine can
/// charge in O(1) when exact replay is not required, and execute with a
/// dispatch-free tight loop when it is.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SIM_FLATIMAGE_H
#define PBT_SIM_FLATIMAGE_H

#include "core/Instrument.h"
#include "sim/CostModel.h"
#include "support/Binary.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace pbt {

/// Pre-decoded execution behaviour of one flat block record. Jump
/// terminators split three ways so the inner loop never re-derives the
/// distinction: a call, a marked jump, or a chainable (mark-free) jump.
enum class FlatOp : uint8_t {
  Chain, ///< Jump, no call, no mark on the edge: superblock member.
  Jump,  ///< Jump, no call, mark on the taken edge.
  Call,  ///< Jump terminator whose block ends in a call.
  Loop,  ///< Loop latch (successor 0 back edge, 1 exit).
  Cond,  ///< Data-dependent branch resolved by the process RNG.
  Ret,   ///< Procedure return.
};

/// One block's complete execution record (64 bytes, one cache line).
/// Fields beyond the common set are meaningful only for the matching Op;
/// they are kept unconditionally so records stay fixed-size PODs.
struct FlatBlock {
  FlatOp Op = FlatOp::Ret;
  /// Instructions retired by one execution.
  uint32_t Insts = 0;
  /// Successor *global* ids (meaning per Op, as in BasicBlock::Succs;
  /// for Call, Succ[0] is the return continuation).
  uint32_t Succ[2] = {0, 0};
  /// Base row of this block in cycleTable(): the cycle cost on a core
  /// of type ct with s sharers is cycleTable()[CycleRow + ct*maxSharers()
  /// + (s-1)].
  uint32_t CycleRow = 0;
  /// Mark index (into marks()) on edge 0/1, or -1. For Call, EdgeMark[0]
  /// is the *continuation* edge mark, deferred to the matching return.
  int32_t EdgeMark[2] = {-1, -1};
  /// Mark index on the call site, or -1 (Op == Call).
  int32_t CallMark = -1;
  /// Callee entry global id (Op == Call).
  uint32_t Callee = 0;
  /// Loop latch trip count (Op == Loop).
  uint32_t TripCount = 1;
  /// Probability of taking Succ[0] (Op == Cond).
  double TakenProb = 0.5;

  /// Superblock summary of the maximal chain starting here (Op == Chain
  /// only). ChainBlocks == 0 means no valid summary (non-chain record,
  /// or a mark-free Jump cycle that never exits).
  uint32_t ChainBlocks = 0;
  /// Instructions retired by the whole chain.
  uint32_t ChainInsts = 0;
  /// Global id of the first non-chain record the chain runs into.
  uint32_t ChainExit = 0;
  /// Base row of the chain's summed cycles in chainCycleTable(), same
  /// per-config layout as CycleRow.
  uint32_t ChainRow = 0;
};

/// The fused image for one (InstrumentedProgram, CostModel) pair.
/// Construction is O(program x machine configs); all queries are O(1).
/// Immutable and shareable across processes and machines.
class FlatImage {
public:
  FlatImage(std::shared_ptr<const InstrumentedProgram> IProg,
            std::shared_ptr<const CostModel> Cost);

  uint32_t numBlocks() const { return static_cast<uint32_t>(Blocks.size()); }
  uint32_t numProcs() const { return static_cast<uint32_t>(Offsets.size()); }

  /// First global id of procedure \p Proc.
  uint32_t offsetOf(uint32_t Proc) const { return Offsets[Proc]; }

  /// Global block id of (\p Proc, \p Block).
  uint32_t globalId(uint32_t Proc, uint32_t Block) const {
    return Offsets[Proc] + Block;
  }

  /// Procedure owning global id \p Global (binary search; used only on
  /// cold paths such as call-frame bookkeeping).
  uint32_t procOf(uint32_t Global) const;

  const FlatBlock *blocks() const { return Blocks.data(); }
  const FlatBlock &block(uint32_t Global) const { return Blocks[Global]; }

  /// Per-block cycle costs, indexed via FlatBlock::CycleRow. Entries are
  /// bit-identical to CostModel::blockCycles for the same configuration.
  const double *cycleTable() const { return Cycles.data(); }

  /// Summed superblock cycle costs, indexed via FlatBlock::ChainRow.
  /// Each sum is accumulated in the exact engines' left-to-right chain
  /// order, so a fused charge equals bit for bit what the exact walk
  /// would add starting from a zero partial sum; fast-replay drift is
  /// therefore only the reassociation of whole-chain sums into the
  /// quantum accumulator (see docs/ARCHITECTURE.md "Fast-replay
  /// engine").
  const double *chainCycleTable() const { return ChainCycles.data(); }

  /// The instrumented program's mark array (indices in FlatBlock are
  /// relative to this).
  const PhaseMark *marks() const { return Marks; }

  uint32_t numCoreTypes() const { return NumCoreTypes; }
  uint32_t maxSharers() const { return MaxSharers; }
  /// Cycle-table entries per block (numCoreTypes * maxSharers).
  uint32_t configStride() const { return Stride; }

  /// Offset within a block's cycle row for a core of \p CoreType whose
  /// L2 is shared by \p Sharers cores. Clamps exactly like
  /// CostModel::blockCycles.
  uint32_t configOffset(uint32_t CoreType, uint32_t Sharers) const {
    uint32_t Level = Sharers < 1 ? 0
                     : Sharers > MaxSharers ? MaxSharers - 1
                                            : Sharers - 1;
    return CoreType * MaxSharers + Level;
  }

  /// Number of records that are superblock-chain members (diagnostics).
  uint32_t chainRecordCount() const { return NumChainRecords; }

  const InstrumentedProgram &program() const { return *IProg; }
  const CostModel &cost() const { return *Cost; }

  /// Serializes the image's numeric payload — offsets, block records,
  /// cycle tables (by bit pattern), chain summaries — to \p W: a
  /// field-exact digest that tests and the benchmark compare images by.
  /// The persistent store does not keep it; the constructor rebuilds
  /// the same image from the program, marks and cost tables.
  void serialize(BinaryWriter &W) const;

private:
  void buildChains();

  std::shared_ptr<const InstrumentedProgram> IProg;
  std::shared_ptr<const CostModel> Cost;
  const PhaseMark *Marks = nullptr;
  std::vector<uint32_t> Offsets;
  std::vector<FlatBlock> Blocks;
  std::vector<double> Cycles;
  std::vector<double> ChainCycles;
  uint32_t NumCoreTypes = 1;
  uint32_t MaxSharers = 1;
  uint32_t Stride = 1;
  uint32_t NumChainRecords = 0;
};

} // namespace pbt

#endif // PBT_SIM_FLATIMAGE_H

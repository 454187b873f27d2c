//===- ir/ProgramSet.cpp - One immutable, shared program set --------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/ProgramSet.h"

#include "support/Binary.h"

using namespace pbt;

namespace {

/// The canonical serialization every content hash runs over. Its byte
/// layout is part of every persistent store key: changing it orphans
/// every stored entry.
void writeProgram(BinaryWriter &W, const Program &Prog) {
  W.str(Prog.Name);
  W.u32(static_cast<uint32_t>(Prog.Procs.size()));
  for (const Procedure &P : Prog.Procs) {
    W.u32(P.Id);
    W.str(P.Name);
    W.u32(static_cast<uint32_t>(P.Blocks.size()));
    for (const BasicBlock &BB : P.Blocks) {
      W.u32(BB.Id);
      W.u32(static_cast<uint32_t>(BB.Insts.size()));
      for (const Instruction &I : BB.Insts) {
        W.u8(static_cast<uint8_t>(I.Kind));
        W.u8(I.SizeBytes);
        W.i32(I.MemRef);
        W.i32(I.Callee);
      }
      W.u8(static_cast<uint8_t>(BB.Term));
      W.u32(static_cast<uint32_t>(BB.Succs.size()));
      for (uint32_t Succ : BB.Succs)
        W.u32(Succ);
      W.u32(BB.TripCount);
      W.f64(BB.TakenProb);
      W.u32(BB.StreamWorkingSet);
    }
  }
}

/// The set hash of \p Programs (FNV-1a over the concatenated
/// serializations), filling \p Each with the per-program hashes when
/// non-null: both come from one serialization of each program.
uint64_t hashSet(const std::vector<Program> &Programs,
                 std::vector<uint64_t> *Each) {
  uint64_t H = Fnv1aBasis;
  for (const Program &Prog : Programs) {
    BinaryWriter W;
    writeProgram(W, Prog);
    const std::string &Bytes = W.buffer();
    if (Each)
      Each->push_back(fnv1a(Bytes.data(), Bytes.size()));
    H = fnv1a(Bytes.data(), Bytes.size(), H);
  }
  return H;
}

} // namespace

uint64_t pbt::contentHash(const Program &Prog) {
  BinaryWriter W;
  writeProgram(W, Prog);
  return fnv1a(W.buffer().data(), W.buffer().size());
}

uint64_t pbt::contentHash(const std::vector<Program> &Programs) {
  return hashSet(Programs, nullptr);
}

void ProgramSet::computeHashes() const {
  std::call_once(Hashed, [this] {
    ProgramHashes.reserve(Programs.size());
    SetHash = hashSet(Programs, &ProgramHashes);
  });
}

//===- ir/ProgramSet.cpp - One immutable, shared program set --------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/ProgramSet.h"

#include "obs/Counters.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"

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

} // namespace

uint64_t pbt::contentHash(const Program &Prog) {
  BinaryWriter W;
  writeProgram(W, Prog);
  return hashBytes(W.buffer().data(), W.buffer().size());
}

uint64_t pbt::contentHash(const std::vector<uint64_t> &ProgramHashes) {
  uint64_t H = hashCombine(0x5E7C0DE, ProgramHashes.size());
  for (uint64_t Each : ProgramHashes)
    H = hashCombine(H, Each);
  return H;
}

uint64_t pbt::contentHash(const std::vector<Program> &Programs) {
  std::vector<uint64_t> Each;
  Each.reserve(Programs.size());
  for (const Program &Prog : Programs)
    Each.push_back(contentHash(Prog));
  return contentHash(Each);
}

void ProgramSet::computeHashes() const {
  std::call_once(Hashed, [this] {
    obs::CounterRegistry::global().add("program_set.hashes", 1);
    ProgramHashes.assign(Programs.size(), 0);
    ThreadPool::global().parallelFor(Programs.size(), [this](size_t I) {
      ProgramHashes[I] = contentHash(Programs[I]);
    });
    SetHash = contentHash(ProgramHashes);
  });
}

//===- ir/ProgramSet.h - One immutable, shared program set -----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program IR of an experiment context, held once. A ProgramSet is
/// immutable after construction and is passed around by
/// std::shared_ptr: every prepared image of one of its programs holds an
/// aliasing handle (shareProgram) into the set instead of a copy, so a
/// process holds each lab's IR exactly once however many techniques,
/// typing seeds or machines it prepares, and an image keeps the whole
/// set alive for as long as it lives.
///
/// The set also carries its content hashes — the whole-set hash and one
/// hash per program, the addressing scheme of the persistent store
/// (exp/CacheStore.h). They are computed together on first use, once
/// per set, whichever thread asks first.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_IR_PROGRAMSET_H
#define PBT_IR_PROGRAMSET_H

#include "ir/Program.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace pbt {

/// Content hash of one program: FNV-1a over a canonical serialization
/// of every instruction of every block (names, terminators, successors,
/// trip counts, branch probabilities and working sets included).
uint64_t contentHash(const Program &Prog);

/// Content hash of a whole program set: the same FNV-1a over the
/// concatenated serializations of \p Programs, in order — NOT a
/// combination of the per-program hashes, so the two are independent
/// addressing schemes. The definition ProgramSet::hash() memoizes (and
/// is tested against).
uint64_t contentHash(const std::vector<Program> &Programs);

/// An immutable program set shared by reference (see the file comment).
class ProgramSet {
public:
  explicit ProgramSet(std::vector<Program> Programs)
      : Programs(std::move(Programs)) {}
  ProgramSet(const ProgramSet &) = delete;
  ProgramSet &operator=(const ProgramSet &) = delete;

  const std::vector<Program> &programs() const { return Programs; }
  size_t size() const { return Programs.size(); }
  const Program &operator[](size_t I) const { return Programs[I]; }

  /// contentHash(programs()), computed once per set.
  uint64_t hash() const {
    computeHashes();
    return SetHash;
  }

  /// contentHash of every program, in order, computed once per set.
  const std::vector<uint64_t> &programHashes() const {
    computeHashes();
    return ProgramHashes;
  }

private:
  /// Serializes each program once and derives both hashes from the same
  /// bytes; thread-safe, runs at most once.
  void computeHashes() const;

  std::vector<Program> Programs;
  mutable std::once_flag Hashed;
  mutable uint64_t SetHash = 0;
  mutable std::vector<uint64_t> ProgramHashes;
};

/// Program \p I of \p Set as a handle that shares ownership of the whole
/// set (an aliasing shared_ptr): no copy, and the set outlives the
/// handle.
inline std::shared_ptr<const Program>
shareProgram(const std::shared_ptr<const ProgramSet> &Set, size_t I) {
  return std::shared_ptr<const Program>(Set, &(*Set)[I]);
}

} // namespace pbt

#endif // PBT_IR_PROGRAMSET_H

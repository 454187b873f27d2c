//===- support/Hashing.h - Stable content-hash helpers ---------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small deterministic hashing helpers used to build *content hashes* of
/// configuration structs (TechniqueSpec, MachineConfig, ...) for cache
/// keys. The functions are stable across processes and platforms of equal
/// endianness — they depend only on the hashed values, never on pointer
/// identity — so hashes are reproducible within a run and suitable for
/// keying the experiment harness's suite cache. Not cryptographic.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_HASHING_H
#define PBT_SUPPORT_HASHING_H

#include "support/Binary.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace pbt {

/// Mixes \p Value into the running hash \p Seed (boost::hash_combine
/// shape with a 64-bit golden-ratio constant).
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  // splitmix64 finalizer on the value, then combine.
  Value += 0x9E3779B97F4A7C15ULL;
  Value = (Value ^ (Value >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Value = (Value ^ (Value >> 27)) * 0x94D049BB133111EBULL;
  Value ^= Value >> 31;
  return Seed ^ (Value + 0x9E3779B97F4A7C15ULL + (Seed << 6) + (Seed >> 2));
}

/// Hashes a double by bit pattern. -0.0 is canonicalized to +0.0 so
/// numerically equal configurations hash equally.
inline uint64_t hashDouble(double V) {
  if (V == 0.0)
    V = 0.0; // Collapse -0.0.
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

/// The one byte-level content hash in support/: 64 bits over \p Size
/// bytes, read as little-endian 8-byte lanes with one memcpy each (so
/// the value does not depend on the buffer's alignment; Binary.h
/// asserts a little-endian host), each lane multiplied and rotated into a single accumulator, the
/// last 1-7 bytes folded in as one zero-padded lane, and the result
/// avalanched. Every step is a bijection of the accumulator for fixed
/// input, so two equal-length buffers that differ in one lane always
/// hash differently. Persisted checksums and store addresses depend on
/// these constants staying fixed (tests/support_test.cpp pins golden
/// values). Not cryptographic.
inline uint64_t hashBytes(const void *Data, size_t Size, uint64_t Seed = 0) {
  constexpr uint64_t P1 = 0x9E3779B185EBCA87ULL;
  constexpr uint64_t P2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr uint64_t P3 = 0x165667B19E3779F9ULL;
  auto Rotl = [](uint64_t X, int R) { return (X << R) | (X >> (64 - R)); };
  auto Round = [&](uint64_t H, uint64_t Lane) {
    H ^= Rotl(Lane * P2, 31) * P1;
    return Rotl(H, 27) * P1 + P3;
  };
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed + P3 + static_cast<uint64_t>(Size) * P1;
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t Lane;
    std::memcpy(&Lane, Bytes + I, 8);
    H = Round(H, Lane);
  }
  if (I < Size) {
    uint64_t Tail = 0;
    for (size_t Shift = 0; I < Size; ++I, Shift += 8)
      Tail |= static_cast<uint64_t>(Bytes[I]) << Shift;
    H = Round(H, Tail);
  }
  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  H *= P3;
  return H ^ (H >> 32);
}

/// hashBytes over the bytes of \p S.
inline uint64_t hashString(const std::string &S) {
  return hashBytes(S.data(), S.size());
}

} // namespace pbt

#endif // PBT_SUPPORT_HASHING_H

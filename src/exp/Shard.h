//===- exp/Shard.h - Bit-exact RunResult codec -----------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical byte form of a RunResult: every field in declaration
/// order, integers little-endian and doubles by bit pattern
/// (support/Binary), so equal bytes mean bit-identical results.
/// runner_test compares replays through it, codec_mutation_test fuzzes
/// the decoder, and perfbench times it as `shard.codec_*`.
///
/// The file keeps its name from the sharded experiment fabric that
/// first shipped replay units in this form; the fabric itself is gone.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_SHARD_H
#define PBT_EXP_SHARD_H

#include "support/Binary.h"
#include "workload/Runner.h"

namespace pbt {
namespace exp {

/// Appends \p Run to \p W field by field (doubles by bit pattern), so
/// it decodes bit-exactly.
void serializeRunResult(BinaryWriter &W, const RunResult &Run);

/// Reads a RunResult serialized by serializeRunResult; false on
/// malformed input.
bool deserializeRunResult(BinaryReader &R, RunResult &Run);

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_SHARD_H

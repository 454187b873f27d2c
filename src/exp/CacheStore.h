//===- exp/CacheStore.h - Persistent prepared-program store ----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk half of the suite cache: a content-addressed store of
/// prepared programs (phase marks, type count, mark cost, cost tables)
/// that survives across processes. A SuiteCache with an attached store
/// serves misses from disk before running the static pipeline, so a
/// second run of any experiment — or the one-process bench/driver —
/// skips every preparation it has seen before.
///
/// **Addressing.** The store holds one kind of entry: one prepared
/// program (`pbt-prog-v3`, `prog-<16 hex>.pbt`), keyed by a 64-bit hash
/// of everything its preparation depends on — the program's own content
/// hash (every instruction of every block), the machine (structural
/// fields, name excluded), the technique's preparation identity
/// (`TechniqueSpec::preparationHash`, tuner excluded — the same relation
/// the in-memory SuiteCache keys on), the typing seed, and the
/// program-format + pipeline versions. The *set* a program belongs to
/// is not part of its key: a suite is just its set's list of program
/// hashes, which the caller's ProgramSet already holds in memory, so
/// adding one benchmark to a cached suite re-prepares exactly that
/// benchmark, and programs shared by different suites resolve to the
/// same entry. One store directory can thus be shared by labs with
/// different program sets and machines.
///
/// **Format** (documented field by field in docs/BENCH_SCHEMA.md): a
/// fixed header — magic `PBTP`, format version, key, the key
/// components, payload length, payload checksum (checksum()) —
/// followed by only what preparation *computed*: phase marks, type
/// count, mark cost words, and cost tables. Doubles are stored by bit
/// pattern. The program IR is not stored: the caller already holds it
/// in a shared ProgramSet (its content hash is the entry's key), so the
/// loader gives each image an aliasing handle to the caller's program —
/// no copy — validates the marks and tables against it, and rebuilds
/// the flat execution image with its constructor, exactly as the
/// flatten pass does. A loaded program is therefore bit-identical to the
/// freshly prepared one (proven in tests/exp_test.cpp,
/// tests/incremental_test.cpp and tests/store_mutation_test.cpp).
///
/// **Parallel decode.** load() runs in three phases: a serial phase
/// reads each entry's file in set order; header, checksum and payload
/// decode then fan out over the global thread pool; a final serial
/// phase settles counters, LRU touches and quarantines in set order.
/// Every load() and save() call is timed as the Plane-2 span
/// `store.load` / `store.save` (obs/Span.h), so PROFILE_driver.json
/// attributes store time.
///
/// **A cache, not a database.** The store is built to survive
/// `kill -9`, concurrent processes, and injected filesystem faults
/// (tests/cache_stress_test.cpp hammers it from forked processes), yet
/// it takes no lock and syncs nothing, because losing an entry only
/// costs one re-prepare:
///
///  - Writes are atomic but not durable: write-temp-then-rename
///    (support/Binary's writeFileAtomic), so readers never observe
///    partial files and a crash leaves at worst a stale `.tmp.<pid>`
///    file. A power cut may lose or tear recent entries; the checksum
///    rejects a torn one.
///  - Writers of the same key write identical bytes (content
///    addressing), so concurrent saves need no lock: the last rename
///    changes nothing. A reader needs none either: it sees a whole
///    entry or none, and POSIX keeps its open file alive if gc()
///    evicts the entry underneath it.
///  - Any mismatch on load — wrong magic, wrong version, wrong key,
///    truncation, checksum failure, or out-of-range indices in the
///    decoded structures — **quarantines** the file (renamed to
///    `<entry>.quarantined-<reason>` once a re-read shows the same
///    bytes) and counts as a plain miss, so the next preparation
///    rebuilds the entry transparently instead of tripping over it
///    again.
///  - Construction and gc() sweep stale debris: `.tmp.<pid>` files
///    whose writer is dead, old quarantine files, and the per-entry
///    `.lck` lock files older stores kept.
///
/// Every filesystem step routes through support/FaultInjection, so the
/// whole contract is exercised under injected EIO, short writes, torn
/// renames, and crash points.
///
/// Stores written before the format held one kind of entry also carry
/// `pbt-suite-v4` manifests (`suite-<16 hex>.pbt`, magic `PBTS`): a
/// list of the program hashes the caller now supplies itself. Nothing
/// reads them; cleanMismatchedVersions() deletes them.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_EXP_CACHESTORE_H
#define PBT_EXP_CACHESTORE_H

#include "workload/Runner.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace exp {

/// Content-addressed on-disk store of prepared programs.
class CacheStore {
public:
  /// On-disk entry format version (`pbt-prog-v3`). Part of the file
  /// header AND the key hash, so a version bump invalidates old entries
  /// without ever misreading them. v3 checksums the payload with
  /// checksum() (was FNV-1a) and keys entries by the hashBytes program
  /// hashes; the payload is unchanged. v2 dropped the program IR (the
  /// caller supplies it) and the serialized flat image (rebuilt on
  /// load).
  static constexpr uint32_t ProgFormatVersion = 3;

  /// Version of the static preparation pipeline whose output entries
  /// hold (analysis/PassManager.h); part of every key, so a pipeline
  /// change that alters prepared artifacts invalidates every entry.
  static constexpr uint32_t PipelineVersion = 1;

  /// The payload checksum every entry header records: hashBytes
  /// (support/Hashing.h) over the \p Size payload bytes at \p Data. The
  /// store's one checksum entry point; tests that re-seal a mutated
  /// entry call it rather than restating the algorithm.
  static uint64_t checksum(const void *Data, size_t Size);

  /// Opens (creating if needed) the store directory \p Dir and sweeps
  /// stale debris left by crashed processes (see sweepStale()).
  explicit CacheStore(std::string Dir);

  /// The process-wide store configured by the `PBT_CACHE_DIR`
  /// environment variable, created on first use; nullptr when the
  /// variable is unset (persistence disabled).
  static std::shared_ptr<CacheStore> fromEnv();

  /// The entry key for (\p ProgramHash, \p Machine, \p Tech,
  /// \p TypingSeed); \p ProgramHash is the program's own content hash
  /// (contentHash(const Program &), an element of
  /// ProgramSet::programHashes()). Deliberately excludes any program-set
  /// component (that is what makes cross-suite dedupe work) and bakes
  /// in ProgFormatVersion and PipelineVersion. Uses Tech's preparation
  /// identity only (tuner excluded), mirroring SuiteCache's in-memory
  /// key relation.
  static uint64_t progKey(uint64_t ProgramHash, const MachineConfig &Machine,
                          const TechniqueSpec &Tech, uint64_t TypingSeed);

  /// Loads every program of \p Set prepared for (\p Machine, \p Tech,
  /// \p TypingSeed): result I is (*Set)[I]'s entry, stored under
  /// progKey(Set->programHashes()[I], ...), and its image shares that
  /// program. Each entry hits or misses independently; a miss or any
  /// rejection (corrupt, truncated, version or key mismatch) leaves null
  /// pointers at its index.
  std::vector<PreparedProgram>
  load(const std::shared_ptr<const ProgramSet> &Set,
       const MachineConfig &Machine, const TechniqueSpec &Tech,
       uint64_t TypingSeed);

  /// Writes \p Suite's programs, the I-th under its content hash
  /// \p ProgramHashes[I]. Entries already on disk are skipped: content
  /// addressing makes them identical by construction, which is what
  /// dedupes shared programs and keeps an incremental save to exactly
  /// the new programs' writes. Returns true when every entry is on disk
  /// afterwards; false when \p ProgramHashes does not match the suite's
  /// size, or any write failed. Each write is atomic, so a failed save
  /// leaves the other entries intact.
  bool save(const std::vector<uint64_t> &ProgramHashes,
            const MachineConfig &Machine, const TechniqueSpec &Tech,
            uint64_t TypingSeed, const PreparedSuite &Suite);

  /// The file path the entry for \p Key lives at.
  std::string progPathFor(uint64_t Key) const;

  /// The quarantine destination for \p Key's entry when rejected for
  /// \p Reason ("magic", "version", "key", "truncated", "checksum",
  /// "payload").
  std::string progQuarantinePathFor(uint64_t Key, const char *Reason) const;

  /// Removes debris no live process can still want: `.tmp.<pid>` temp
  /// files whose writing process is dead (or that are over an hour
  /// old), quarantine files older than \p MaxQuarantineAgeSeconds
  /// (negative keeps all quarantines; 0 removes them all), and every
  /// `prog-*.lck` / `suite-*.lck` lock file older stores left. Returns
  /// the number of files removed. Runs at construction (keeping
  /// week-old quarantines for post-mortems) and inside gc() (which
  /// sweeps every quarantine).
  size_t sweepStale(double MaxQuarantineAgeSeconds = 7 * 86400.0);

  /// Deletes every `prog-*.pbt` entry whose header carries a format
  /// version other than ProgFormatVersion (such entries can never load
  /// again; a bump only changes the keys, so they would otherwise sit on
  /// disk forever) and every legacy `pbt-suite-v4` manifest
  /// (`suite-*.pbt`, whatever its version). Returns the number of
  /// entries removed. Unreadable or foreign files are left alone. Backs
  /// `bench/driver --clean-cache`.
  size_t cleanMismatchedVersions();

  /// Outcome of one gc() pass.
  struct GcStats {
    size_t Scanned = 0;       ///< Store entries examined.
    uint64_t BytesScanned = 0; ///< Their total size.
    size_t Evicted = 0;       ///< Entries deleted.
    uint64_t BytesEvicted = 0; ///< Bytes reclaimed.
    size_t Swept = 0;         ///< Stale temp/quarantine/lock files
                              ///< removed alongside the pass.
  };

  /// Age/size-based garbage collection over the store's entries,
  /// backing `bench/driver --gc-cache`. Recency is approximated by file
  /// modification time, which load() refreshes on every hit, so a
  /// suite's programs age as a group while unshared entries of
  /// abandoned suites age out. Eviction order is least-recently-used;
  /// an evicted entry simply misses and is prepared again. Two
  /// independent bounds: entries older than \p MaxAgeSeconds are always
  /// evicted (<= 0 disables the age bound), then the oldest remaining
  /// entries are evicted until the store fits in \p MaxBytes (0
  /// disables the size bound). Only files with the store magic are
  /// touched; ties on mtime break by path, so a pass is deterministic
  /// for a given directory state.
  GcStats gc(uint64_t MaxBytes, double MaxAgeSeconds = 0);

  const std::string &dir() const { return Dir; }

  /// Entries served from disk.
  uint64_t hits() const { return Hits; }
  /// Entries load() could not serve: absent or rejected.
  uint64_t misses() const { return Misses; }
  /// Entries present but rejected (corruption, truncation, version or
  /// key mismatch); each is also counted as a miss.
  uint64_t rejects() const { return Rejects; }
  /// Entries written by save() (existing entries are skipped, so this
  /// counts genuinely new preparations reaching disk).
  uint64_t writes() const { return Writes; }
  /// Rejected entries renamed aside for post-mortem (a subset of
  /// rejects(): an entry that changed since it was read is left alone).
  uint64_t quarantines() const { return Quarantines; }

private:
  std::string Dir;
  mutable std::mutex Mutex;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Rejects = 0;
  uint64_t Writes = 0;
  uint64_t Quarantines = 0;
};

} // namespace exp
} // namespace pbt

#endif // PBT_EXP_CACHESTORE_H

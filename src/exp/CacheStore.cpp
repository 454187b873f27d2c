//===- exp/CacheStore.cpp - Persistent prepared-program store ------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/CacheStore.h"

#include "obs/Span.h"
#include "support/Binary.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <set>
#include <signal.h>
#include <sys/stat.h>
#include <tuple>
#include <utime.h>

using namespace pbt;
using namespace pbt::exp;

namespace {

/// "PBTP" as a little-endian u32: store entries.
constexpr uint32_t ProgMagic = 0x50544250u;

/// "PBTS" as a little-endian u32: legacy `pbt-suite-v4` manifests, only
/// ever deleted (cleanMismatchedVersions).
constexpr uint32_t LegacyManifestMagic = 0x53544250u;

/// Fixed-size file header preceding the payload.
struct Header {
  uint64_t Key = 0;
  uint64_t ProgramHash = 0;
  uint64_t MachineHash = 0;
  uint64_t PrepHash = 0;
  uint64_t TypingSeed = 0;
  uint64_t PayloadSize = 0;
  uint64_t Checksum = 0;
};

void writeHeader(BinaryWriter &W, const Header &H) {
  W.u32(ProgMagic);
  W.u32(CacheStore::ProgFormatVersion);
  W.u64(H.Key);
  W.u64(H.ProgramHash);
  W.u64(H.MachineHash);
  W.u64(H.PrepHash);
  W.u64(H.TypingSeed);
  W.u64(H.PayloadSize);
  W.u64(H.Checksum);
}

constexpr size_t HeaderBytes = 4 + 4 + 7 * 8;

/// Checks \p Bytes' header against \p Expect (magic, version, and every
/// key component) and its payload against the recorded length and
/// checksum. Returns nullptr for a sound entry, else the first failed
/// check, which becomes the quarantine suffix — so a post-mortem can
/// tell bit rot from a version skew from a hash collision at a glance.
const char *checkHeader(const std::string &Bytes, const Header &Expect) {
  BinaryReader R(Bytes);
  if (R.u32() != ProgMagic)
    return "magic";
  if (R.u32() != CacheStore::ProgFormatVersion)
    return "version";
  Header H;
  H.Key = R.u64();
  H.ProgramHash = R.u64();
  H.MachineHash = R.u64();
  H.PrepHash = R.u64();
  H.TypingSeed = R.u64();
  H.PayloadSize = R.u64();
  H.Checksum = R.u64();
  if (R.failed())
    return "truncated";
  // The header must describe exactly the requested preparation.
  if (H.Key != Expect.Key || H.ProgramHash != Expect.ProgramHash ||
      H.MachineHash != Expect.MachineHash || H.PrepHash != Expect.PrepHash ||
      H.TypingSeed != Expect.TypingSeed)
    return "key";
  if (H.PayloadSize != Bytes.size() - HeaderBytes)
    return "truncated"; // Truncated or padded file.
  if (H.Checksum != fnv1a(Bytes.data() + HeaderBytes, H.PayloadSize))
    return "checksum"; // Bit rot within the payload.
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Marks serialization
//===----------------------------------------------------------------------===//

void writeMarks(BinaryWriter &W, const std::vector<PhaseMark> &Marks) {
  W.u32(static_cast<uint32_t>(Marks.size()));
  for (const PhaseMark &M : Marks) {
    W.u32(M.Proc);
    W.u32(M.Block);
    W.u32(M.SuccIndex);
    W.u8(static_cast<uint8_t>(M.Point));
    W.u32(M.PhaseType);
  }
}

/// Reads and validates marks against \p Prog: indices in range, succ
/// index < 2, valid anchor kind, and no duplicate anchors (the
/// InstrumentedProgram constructor asserts these; a store file must
/// never be able to trip them).
std::vector<PhaseMark> readMarks(BinaryReader &R, const Program &Prog) {
  std::vector<PhaseMark> Marks(R.count(1u << 24, /*ElemBytes=*/17));
  std::set<std::tuple<uint32_t, uint32_t, uint8_t, uint32_t>> Anchors;
  for (PhaseMark &M : Marks) {
    M.Proc = R.u32();
    M.Block = R.u32();
    M.SuccIndex = R.u32();
    uint8_t Point = R.u8();
    M.PhaseType = R.u32();
    if (R.failed())
      return Marks;
    if (Point > static_cast<uint8_t>(MarkPoint::CallSite) ||
        M.Proc >= Prog.Procs.size() ||
        M.Block >= Prog.Procs[M.Proc].Blocks.size() || M.SuccIndex >= 2) {
      R.markFailed();
      return Marks;
    }
    M.Point = static_cast<MarkPoint>(Point);
    uint32_t Slot = M.Point == MarkPoint::CallSite ? 0 : M.SuccIndex;
    if (!Anchors.emplace(M.Proc, M.Block, Point, Slot).second) {
      R.markFailed();
      return Marks;
    }
  }
  return Marks;
}

//===----------------------------------------------------------------------===//
// Per-program payload
//===----------------------------------------------------------------------===//

/// One prepared program: the `pbt-prog-v2` payload (marks, type count,
/// mark cost, cost tables). The IR and the flat image are not stored:
/// the loader attaches the caller's program and rebuilds the image.
void writePrepared(BinaryWriter &W, const InstrumentedProgram &Image,
                   const CostModel &Tables) {
  writeMarks(W, Image.marks());
  W.u32(Image.numTypes());
  const MarkCostModel &Cost = Image.cost();
  W.u32(Cost.MarkBytes);
  W.u32(Cost.RuntimeStubBytes);
  W.u32(Cost.MarkInsts);
  W.u32(Cost.MonitorSetupCycles);
  W.u32(Cost.SwitchCycles);
  Tables.serializeTables(W);
}

/// Decodes one prepared program from a whole `pbt-prog-v2` payload,
/// validated against \p Prog, and rebuilds its flat image. The image
/// shares \p Prog (the caller's program, usually an aliasing handle into
/// its set). Returns a PreparedProgram with null pointers on any
/// rejection.
PreparedProgram readPrepared(BinaryReader &R,
                             const std::shared_ptr<const Program> &Prog,
                             const MachineConfig &Machine,
                             const TechniqueSpec &Tech) {
  PreparedProgram Out;
  MarkingResult Marking;
  Marking.Marks = readMarks(R, *Prog);
  Marking.NumTypes = R.u32();
  // The tuner sizes its per-phase state by numTypes() and indexes it
  // with the firing mark's PhaseType; an out-of-range type in a store
  // file must never reach that lookup, and an absurd NumTypes must
  // not drive a giant per-process tuner allocation (real typings use
  // a handful of types; 4096 is far beyond any k-means k).
  if (Marking.NumTypes > 4096)
    R.markFailed();
  for (const PhaseMark &M : Marking.Marks)
    if (M.PhaseType >= std::max(1u, Marking.NumTypes))
      R.markFailed();

  MarkCostModel Cost;
  Cost.MarkBytes = R.u32();
  Cost.RuntimeStubBytes = R.u32();
  Cost.MarkInsts = R.u32();
  Cost.MonitorSetupCycles = R.u32();
  Cost.SwitchCycles = R.u32();
  if (R.failed() || Cost != Tech.Cost)
    return Out;

  CostModel Tables = CostModel::deserializeTables(R, Machine, *Prog);
  if (R.failed() || R.remaining() != 0)
    return Out;

  Out.Image = std::make_shared<const InstrumentedProgram>(
      Prog, std::move(Marking), Cost);
  Out.Cost = std::make_shared<const CostModel>(std::move(Tables));
  Out.Flat = std::make_shared<const FlatImage>(Out.Image, Out.Cost);
  return Out;
}

/// Creates \p Dir (and parents) best-effort; existing directories are
/// fine — a failed creation surfaces later as save() I/O failures.
void makeDirs(const std::string &Dir) {
  std::string Partial;
  for (size_t I = 0; I <= Dir.size(); ++I) {
    if (I < Dir.size() && Dir[I] != '/') {
      Partial.push_back(Dir[I]);
      continue;
    }
    if (!Partial.empty())
      ::mkdir(Partial.c_str(), 0755);
    if (I < Dir.size())
      Partial.push_back('/');
  }
}

/// True for legacy suite manifest names: "suite-<16 hex>.pbt".
bool isLegacyManifestName(const char *Name) {
  size_t Len = std::strlen(Name);
  return Len == 26 && std::strncmp(Name, "suite-", 6) == 0 &&
         std::strcmp(Name + Len - 4, ".pbt") == 0;
}

/// True for store entries: "prog-<16 hex>.pbt".
bool isProgEntryName(const char *Name) {
  size_t Len = std::strlen(Name);
  return Len == 25 && std::strncmp(Name, "prog-", 5) == 0 &&
         std::strcmp(Name + Len - 4, ".pbt") == 0;
}

/// True for the per-entry lock files older stores kept beside their
/// entries: "prog-<16 hex>.lck", or a legacy manifest's
/// "suite-<16 hex>.lck". Nothing takes them any more; the sweep deletes
/// them.
bool isLockName(const char *Name) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Name, "suite-", 6) == 0)
    return Len == 26 && std::strcmp(Name + Len - 4, ".lck") == 0;
  if (std::strncmp(Name, "prog-", 5) == 0)
    return Len == 25 && std::strcmp(Name + Len - 4, ".lck") == 0;
  return false;
}

/// True when \p Name starts with the entry prefix or the legacy
/// manifest prefix (the debris sweep's coarse filter; exact shapes are
/// checked above).
bool hasStorePrefix(const char *Name) {
  return std::strncmp(Name, "suite-", 6) == 0 ||
         std::strncmp(Name, "prog-", 5) == 0;
}

/// \p Path's mtime, or 0 when unreadable.
time_t fileMtime(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? St.st_mtime : 0;
}

/// For a temp-file name "<entry>.tmp.<pid>", returns the pid (0 when
/// the suffix is not a plain number).
long tmpFilePid(const char *Name) {
  const char *Tag = std::strstr(Name, ".tmp.");
  if (!Tag)
    return 0;
  const char *Digits = Tag + 5;
  if (*Digits == '\0')
    return 0;
  char *End = nullptr;
  long Pid = std::strtol(Digits, &End, 10);
  return (End && *End == '\0' && Pid > 0) ? Pid : 0;
}

/// True when no process with \p Pid exists (the temp's writer died).
bool pidDead(long Pid) {
  return ::kill(static_cast<pid_t>(Pid), 0) != 0 && errno == ESRCH;
}

/// Shared sweep body (callers hold the store mutex): removes stranded
/// temp files, expired quarantines and old lock files. Staleness rules
/// are documented on CacheStore::sweepStale.
size_t sweepDebris(const std::string &Dir, double MaxQuarantineAgeSeconds) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  std::vector<std::string> Stale;
  time_t Now = std::time(nullptr);
  while (const dirent *Entry = ::readdir(D)) {
    const char *Name = Entry->d_name;
    // Only debris derived from our own entry names is considered.
    if (!hasStorePrefix(Name))
      continue;
    std::string Path = Dir + "/" + Name;
    if (std::strstr(Name, ".pbt.tmp.")) {
      // A temp is stale when its writing process is gone, or when it
      // is old enough (an hour) that any sane write must have ended —
      // the fallback for unparsable pids and pid reuse.
      long Pid = tmpFilePid(Name);
      bool Dead = Pid > 0 && pidDead(Pid);
      bool Old = Now - fileMtime(Path) > 3600;
      if (Dead || Old)
        Stale.push_back(std::move(Path));
    } else if (std::strstr(Name, ".quarantined-")) {
      if (MaxQuarantineAgeSeconds >= 0 &&
          static_cast<double>(Now - fileMtime(Path)) >=
              MaxQuarantineAgeSeconds)
        Stale.push_back(std::move(Path));
    } else if (isLockName(Name)) {
      Stale.push_back(std::move(Path));
    }
  }
  ::closedir(D);
  size_t Removed = 0;
  for (const std::string &Path : Stale)
    if (std::remove(Path.c_str()) == 0)
      ++Removed; // ENOENT = a concurrent sweep won the race; fine.
  return Removed;
}

} // namespace

CacheStore::CacheStore(std::string DirIn) : Dir(std::move(DirIn)) {
  makeDirs(Dir);
  // Startup sweep: collect temp files stranded by crashed writers,
  // stale quarantines and old lock files, so debris can never
  // accumulate across runs.
  sweepStale();
}

std::shared_ptr<CacheStore> CacheStore::fromEnv() {
  static std::shared_ptr<CacheStore> Store = [] {
    const char *Dir = envString("PBT_CACHE_DIR");
    return Dir && *Dir ? std::make_shared<CacheStore>(Dir)
                       : std::shared_ptr<CacheStore>();
  }();
  return Store;
}

uint64_t CacheStore::progKey(uint64_t ProgramHash,
                             const MachineConfig &Machine,
                             const TechniqueSpec &Tech,
                             uint64_t TypingSeed) {
  uint64_t Key = hashCombine(0x9B09CACE, ProgFormatVersion);
  Key = hashCombine(Key, PipelineVersion);
  Key = hashCombine(Key, ProgramHash);
  Key = hashCombine(Key, hashValue(Machine));
  Key = hashCombine(Key, Tech.preparationHash());
  return hashCombine(Key, TypingSeed);
}

std::string CacheStore::progPathFor(uint64_t Key) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "prog-%016llx.pbt",
                static_cast<unsigned long long>(Key));
  return Dir + "/" + Name;
}

std::string CacheStore::progQuarantinePathFor(uint64_t Key,
                                              const char *Reason) const {
  return progPathFor(Key) + ".quarantined-" + Reason;
}

size_t CacheStore::sweepStale(double MaxQuarantineAgeSeconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return sweepDebris(Dir, MaxQuarantineAgeSeconds);
}

size_t CacheStore::cleanMismatchedVersions() {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Removed = 0;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  std::vector<std::string> Stale;
  while (const dirent *Entry = ::readdir(D)) {
    const char *Name = Entry->d_name;
    // Only files this store wrote: "prog-<16 hex>.pbt" entries, stale
    // off the current version, and legacy "suite-<16 hex>.pbt"
    // manifests, stale whatever their version.
    bool IsLegacy = isLegacyManifestName(Name);
    if (!IsLegacy && !isProgEntryName(Name))
      continue;
    std::string Path = Dir + "/" + Name;
    // Only the first 8 header bytes matter (magic + version); entries
    // can be many megabytes, so never read the payload. A vanished or
    // unreadable file (concurrent eviction) is simply skipped.
    char Hdr[8];
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F)
      continue;
    size_t Got = std::fread(Hdr, 1, sizeof(Hdr), F);
    std::fclose(F);
    if (Got != sizeof(Hdr))
      continue; // Too short to carry a header; leave it.
    BinaryReader R(Hdr, sizeof(Hdr));
    if (R.u32() != (IsLegacy ? LegacyManifestMagic : ProgMagic))
      continue; // Not one of ours after all.
    if (IsLegacy || R.u32() != ProgFormatVersion)
      Stale.push_back(std::move(Path));
  }
  ::closedir(D);
  // A process mid-read of an old entry keeps its open file (POSIX
  // unlink semantics). ENOENT means a concurrent process evicted the
  // same entry between our scan and now — not an error, just not our
  // removal.
  for (const std::string &Path : Stale)
    if (std::remove(Path.c_str()) == 0)
      ++Removed;
  return Removed;
}

CacheStore::GcStats CacheStore::gc(uint64_t MaxBytes, double MaxAgeSeconds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  GcStats Stats;

  // Scan the directory for store entries — the same name + magic
  // filter cleanMismatchedVersions uses, so foreign files are never
  // touched. Sort by (mtime, path): mtime is the LRU clock (load()
  // refreshes it on every hit), the path tie-break makes a pass
  // deterministic for a given directory state.
  struct Entry {
    time_t Mtime;
    uint64_t Bytes;
    std::string Path;
  };
  std::vector<Entry> Entries;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Stats;
  while (const dirent *DirEntry = ::readdir(D)) {
    const char *Name = DirEntry->d_name;
    if (!isProgEntryName(Name))
      continue;
    std::string Path = Dir + "/" + Name;
    char Hdr[4];
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F)
      continue;
    size_t Got = std::fread(Hdr, 1, sizeof(Hdr), F);
    std::fclose(F);
    if (Got != sizeof(Hdr))
      continue;
    BinaryReader R(Hdr, sizeof(Hdr));
    if (R.u32() != ProgMagic)
      continue; // Not one of ours after all.
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0)
      continue;
    Entries.push_back({St.st_mtime, static_cast<uint64_t>(St.st_size),
                       std::move(Path)});
  }
  ::closedir(D);

  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) {
              if (A.Mtime != B.Mtime)
                return A.Mtime < B.Mtime;
              return A.Path < B.Path;
            });

  uint64_t Total = 0;
  for (const Entry &E : Entries) {
    ++Stats.Scanned;
    Stats.BytesScanned += E.Bytes;
    Total += E.Bytes;
  }

  time_t Cutoff = 0;
  if (MaxAgeSeconds > 0)
    Cutoff = std::time(nullptr) - static_cast<time_t>(MaxAgeSeconds);

  FaultInjection &FI = FaultInjection::instance();
  for (const Entry &E : Entries) {
    bool TooOld = MaxAgeSeconds > 0 && E.Mtime < Cutoff;
    bool OverBudget = MaxBytes > 0 && Total > MaxBytes;
    if (!TooOld && !OverBudget)
      break; // Oldest survivor found; everything newer survives too.
    // Evicting under a live reader is safe: POSIX keeps its open file
    // alive, and its next probe is a plain miss. Injected
    // concurrent-evictor race: the entry may vanish between the scan
    // and the remove; the ENOENT just means the other process reclaimed
    // the bytes first, so it is tolerated and not counted.
    FI.maybeVanish("gc.entry", E.Path);
    if (std::remove(E.Path.c_str()) != 0)
      continue;
    ++Stats.Evicted;
    Stats.BytesEvicted += E.Bytes;
    Total -= E.Bytes;
  }

  // Piggyback the debris sweep: gc is the explicit "reclaim disk"
  // entry point, so it also clears every quarantine file (age 0), not
  // just dead writers' temp files.
  Stats.Swept = sweepDebris(Dir, /*MaxQuarantineAgeSeconds=*/0);
  return Stats;
}

std::vector<PreparedProgram>
CacheStore::load(const std::shared_ptr<const ProgramSet> &Set,
                 const MachineConfig &Machine, const TechniqueSpec &Tech,
                 uint64_t TypingSeed) {
  obs::Span Timed("store.load");
  std::lock_guard<std::mutex> Lock(Mutex);
  const std::vector<uint64_t> &Hashes = Set->programHashes();
  const size_t N = Hashes.size();
  std::vector<PreparedProgram> Out(N);
  std::vector<uint64_t> Keys(N);
  std::vector<std::string> Bytes(N);
  std::vector<uint8_t> Read(N, 0);

  // Phase 1, serial and in set order: file reads. No lock is needed:
  // rename is atomic, so a read sees a whole entry or none, and a
  // reader racing gc keeps its open file.
  for (size_t I = 0; I < N; ++I) {
    Keys[I] = progKey(Hashes[I], Machine, Tech, TypingSeed);
    if (readFile(progPathFor(Keys[I]), Bytes[I]))
      Read[I] = 1;
    else
      ++Misses; // Plain absence: the ordinary cold-store miss.
  }

  // Phase 2, parallel: header, checksum and payload decode are pure
  // functions of the bytes and the request, so they fan out over the
  // pool with by-index writes.
  Header Expect;
  Expect.MachineHash = hashValue(Machine);
  Expect.PrepHash = Tech.preparationHash();
  Expect.TypingSeed = TypingSeed;
  std::vector<const char *> Why(N, nullptr);
  ThreadPool::global().parallelFor(N, [&](size_t I) {
    if (!Read[I])
      return;
    Header E = Expect;
    E.Key = Keys[I];
    E.ProgramHash = Hashes[I];
    Why[I] = checkHeader(Bytes[I], E);
    if (Why[I])
      return;
    BinaryReader Payload(Bytes[I].data() + HeaderBytes,
                         Bytes[I].size() - HeaderBytes);
    Out[I] = readPrepared(Payload, shareProgram(Set, I), Machine, Tech);
    if (!Out[I].Image)
      Why[I] = "payload";
  });

  // Phase 3, serial and in set order: counters, LRU touches and
  // quarantines.
  for (size_t I = 0; I < N; ++I) {
    if (!Read[I])
      continue;
    if (!Why[I]) {
      ++Hits;
      // mtime is the LRU clock gc() evicts by (best-effort: a failed
      // touch only ages the entry).
      ::utime(progPathFor(Keys[I]).c_str(), nullptr);
      continue;
    }
    // Rejected: a miss (the caller re-prepares), and quarantined so the
    // next request sees a clean miss instead of re-parsing the same bad
    // bytes — but only if the bytes did not change underneath us (a
    // concurrent save may already have replaced the entry with a
    // healthy one). A save landing between the re-read and the rename
    // is quarantined with the bad bytes; that race costs one
    // re-prepare.
    ++Misses;
    ++Rejects;
    std::string Again;
    if (readFile(progPathFor(Keys[I]), Again) && Again == Bytes[I] &&
        std::rename(progPathFor(Keys[I]).c_str(),
                    progQuarantinePathFor(Keys[I], Why[I]).c_str()) == 0)
      ++Quarantines;
  }
  return Out;
}

bool CacheStore::save(const std::vector<uint64_t> &ProgramHashes,
                      const MachineConfig &Machine, const TechniqueSpec &Tech,
                      uint64_t TypingSeed, const PreparedSuite &Suite) {
  obs::Span Timed("store.save");
  std::lock_guard<std::mutex> Lock(Mutex);
  if (ProgramHashes.size() != Suite.Images.size())
    return false;

  bool AllOnDisk = true;
  for (size_t I = 0; I < Suite.Images.size(); ++I) {
    uint64_t Key = progKey(ProgramHashes[I], Machine, Tech, TypingSeed);

    // Entries already on disk are skipped: content addressing makes a
    // same-key file identical by construction, and the skip is what
    // dedupes programs shared across suites (and keeps an incremental
    // save to "exactly the new benchmark" writes).
    struct stat St;
    if (::stat(progPathFor(Key).c_str(), &St) == 0)
      continue;

    BinaryWriter Payload;
    writePrepared(Payload, *Suite.Images[I], *Suite.Costs[I]);
    Header H;
    H.Key = Key;
    H.ProgramHash = ProgramHashes[I];
    H.MachineHash = hashValue(Machine);
    H.PrepHash = Tech.preparationHash();
    H.TypingSeed = TypingSeed;
    H.PayloadSize = Payload.buffer().size();
    H.Checksum = fnv1a(Payload.buffer().data(), Payload.buffer().size());
    BinaryWriter File;
    writeHeader(File, H);

    // No writer lock: a concurrent writer of the same key writes
    // identical bytes, so whichever rename lands last changes nothing.
    FaultInjection::instance().crashPoint("store.before_write");
    if (!writeFileAtomic(progPathFor(Key), File.buffer() + Payload.buffer())) {
      AllOnDisk = false;
      continue;
    }
    FaultInjection::instance().crashPoint("store.saved");
    ++Writes;
  }
  return AllOnDisk;
}

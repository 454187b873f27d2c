//===- tests/incremental_test.cpp - per-program incremental store ---------===//
//
// The incremental persistent cache: `pbt-prog-v2` entries round-trip
// bit-identically, adding one benchmark to a cached suite re-prepares
// exactly that benchmark, programs dedupe across suites, corrupt
// entries quarantine and heal, gc and version cleanup cover every
// entry, and a store still holding legacy `pbt-suite-v4` manifests
// serves from its entries alone.

#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/SuiteCache.h"
#include "support/Binary.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <sys/stat.h>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::freshCacheDir;

namespace {

/// Randomized benchmark programs, same generator shape as
/// tests/exp_test.cpp.
std::vector<Program> randomPrograms(uint64_t Seed, unsigned Count) {
  Rng Gen(Seed);
  std::vector<Program> Programs;
  for (unsigned I = 0; I < Count; ++I) {
    BenchSpec Spec;
    Spec.Name = "rand" + std::to_string(I);
    Spec.TargetSeconds = 0.2 + 0.1 * static_cast<double>(Gen.next() % 8);
    Spec.Alternations = 1 + static_cast<unsigned>(Gen.next() % 40);
    Spec.ColdCodeInsts = 2000 + static_cast<unsigned>(Gen.next() % 20000);
    unsigned NumPhases = 1 + static_cast<unsigned>(Gen.next() % 3);
    for (unsigned P = 0; P < NumPhases; ++P) {
      PhaseSpec Phase;
      Phase.Memory = (Gen.next() & 1) != 0;
      Phase.Share = 1.0 / NumPhases;
      Phase.BodyInsts = 40 + static_cast<unsigned>(Gen.next() % 300);
      Phase.InCallee = (Gen.next() & 1) != 0;
      Spec.Phases.push_back(Phase);
    }
    Programs.push_back(buildBenchmark(Spec));
  }
  return Programs;
}

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

/// Field-exact comparison of one prepared program against another:
/// marks, cost samples, and the serialized flat image byte stream.
void expectProgramsBitIdentical(const PreparedProgram &A,
                                const PreparedProgram &B) {
  ASSERT_TRUE(A.Image && A.Cost && A.Flat);
  ASSERT_TRUE(B.Image && B.Cost && B.Flat);
  const InstrumentedProgram &IA = *A.Image;
  const InstrumentedProgram &IB = *B.Image;
  EXPECT_EQ(IA.program().Name, IB.program().Name);
  ASSERT_EQ(IA.marks().size(), IB.marks().size());
  for (size_t M = 0; M < IA.marks().size(); ++M) {
    EXPECT_EQ(IA.marks()[M].Proc, IB.marks()[M].Proc);
    EXPECT_EQ(IA.marks()[M].Block, IB.marks()[M].Block);
    EXPECT_EQ(IA.marks()[M].SuccIndex, IB.marks()[M].SuccIndex);
    EXPECT_EQ(IA.marks()[M].Point, IB.marks()[M].Point);
    EXPECT_EQ(IA.marks()[M].PhaseType, IB.marks()[M].PhaseType);
  }
  const Program &Prog = IA.program();
  for (const Procedure &Proc : Prog.Procs)
    for (const BasicBlock &BB : Proc.Blocks)
      EXPECT_EQ(A.Cost->blockInsts(Proc.Id, BB.Id),
                B.Cost->blockInsts(Proc.Id, BB.Id));
  BinaryWriter WA, WB;
  A.Flat->serialize(WA);
  B.Flat->serialize(WB);
  EXPECT_EQ(WA.buffer(), WB.buffer());
}

void expectSuitesBitIdentical(const PreparedSuite &A,
                              const PreparedSuite &B) {
  ASSERT_EQ(A.Images.size(), B.Images.size());
  EXPECT_EQ(A.Names, B.Names);
  for (size_t I = 0; I < A.Images.size(); ++I) {
    PreparedProgram PA{A.Images[I], A.Costs[I], A.Flats[I]};
    PreparedProgram PB{B.Images[I], B.Costs[I], B.Flats[I]};
    expectProgramsBitIdentical(PA, PB);
  }
}

/// Sorted names of the store's files matching \p Substr.
std::vector<std::string> filesContaining(const std::string &Dir,
                                         const char *Substr) {
  std::vector<std::string> Names;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (const dirent *E = ::readdir(D))
      if (std::strstr(E->d_name, Substr))
        Names.push_back(E->d_name);
    ::closedir(D);
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

bool readFileBytes(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[4096];
  Out.clear();
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return true;
}

bool writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  std::fclose(F);
  return Ok;
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-program round trips
//===----------------------------------------------------------------------===//

// Every program saved as part of a suite must load back — through the
// per-program addressing that knows nothing about the suite —
// bit-identical to the freshly prepared artifact, one-program sets
// included.
TEST(IncrementalStore, ProgEntryRoundTripBitIdentical) {
  CacheStore Store(freshCacheDir("incr_roundtrip.cache"));
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(7, 4));
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  std::vector<PreparedProgram> Fresh = preparePrograms(Programs, MC, Tech, 42);
  ASSERT_TRUE(Store.save(Set->programHashes(), MC, Tech, 42,
                         assembleSuite(Programs, Fresh, Tech)));
  EXPECT_EQ(Store.writes(), Programs.size());

  std::vector<PreparedProgram> Loaded = Store.load(Set, MC, Tech, 42);
  ASSERT_EQ(Loaded.size(), Programs.size());
  for (size_t I = 0; I < Programs.size(); ++I) {
    expectProgramsBitIdentical(Fresh[I], Loaded[I]);
    auto One =
        std::make_shared<const ProgramSet>(std::vector<Program>{Programs[I]});
    expectProgramsBitIdentical(Fresh[I], Store.load(One, MC, Tech, 42)[0]);
  }
  EXPECT_EQ(Store.hits(), 2 * Programs.size());
  EXPECT_EQ(Store.misses(), 0u);
  EXPECT_EQ(Store.rejects(), 0u);
}

// A cold save of N new programs leaves exactly N files in the store
// directory, one `prog-*.pbt` entry each — no lock files, no temps —
// and loading them back adds none.
TEST(IncrementalStore, ColdSaveLeavesOneFilePerEntry) {
  std::string Dir = freshCacheDir("incr_onefile.cache");
  CacheStore Store(Dir);
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(11, 5));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  ASSERT_TRUE(Store.save(Set->programHashes(), MC, Tech, 42,
                         prepareSuite(Set->programs(), MC, Tech, 42)));
  for (const PreparedProgram &P : Store.load(Set, MC, Tech, 42))
    EXPECT_TRUE(P.Image != nullptr);

  std::vector<std::string> Files = filesContaining(Dir, "");
  Files.erase(std::remove_if(Files.begin(), Files.end(),
                             [](const std::string &Name) {
                               return Name == "." || Name == "..";
                             }),
              Files.end());
  EXPECT_EQ(Files.size(), Set->size());
  EXPECT_EQ(filesContaining(Dir, ".pbt").size(), Set->size());
  EXPECT_EQ(Store.writes(), Set->size());
}

// A program never saved is a plain miss; a probe under a different
// typing seed misses too (the seed is part of the key).
TEST(IncrementalStore, ProgProbeMissesAreKeyed) {
  CacheStore Store(freshCacheDir("incr_probe.cache"));
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(9, 2));
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  ASSERT_TRUE(Store.save({contentHash(Programs[0])}, MC, Tech, 42,
                         prepareSuite({Programs[0]}, MC, Tech, 42)));

  std::vector<PreparedProgram> Probe = Store.load(Set, MC, Tech, 42);
  EXPECT_TRUE(Probe[0].Image != nullptr);
  EXPECT_TRUE(Probe[1].Image == nullptr); // Never saved.
  std::vector<PreparedProgram> WrongSeed = Store.load(Set, MC, Tech, 43);
  EXPECT_TRUE(WrongSeed[0].Image == nullptr);
  EXPECT_TRUE(WrongSeed[1].Image == nullptr);
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_EQ(Store.misses(), 3u);
  EXPECT_EQ(Store.rejects(), 0u); // Plain absence, nothing rejected.

  // save() refuses a hash list that does not match the suite.
  EXPECT_FALSE(Store.save(Set->programHashes(), MC, Tech, 42,
                          prepareSuite({Programs[0]}, MC, Tech, 42)));
}

//===----------------------------------------------------------------------===//
// Incremental suite assembly
//===----------------------------------------------------------------------===//

// The headline incremental contract: after an N-program suite is
// cached, requesting the same suite plus one new benchmark runs the
// static pipeline over exactly that benchmark and serves the other N
// from their prog entries.
TEST(IncrementalStore, AddOneBenchmarkPreparesExactlyOne) {
  auto Store =
      std::make_shared<CacheStore>(freshCacheDir("incr_addone.cache"));
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(13, 6));
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();
  auto Smaller = std::make_shared<const ProgramSet>(
      std::vector<Program>(Programs.begin(), Programs.end() - 1));

  SuiteCache First;
  First.setStore(Store);
  First.get(Smaller, MC, Tech, 42);
  EXPECT_EQ(First.prepared(), 1u);
  EXPECT_EQ(First.preparedPrograms(), Smaller->size());
  EXPECT_EQ(Store->writes(), Smaller->size());

  // A fresh in-memory cache (a new process in miniature) over the
  // grown suite: one preparation, N prog-entry hits.
  SuiteCache Second;
  Second.setStore(Store);
  PreparedSuite Grown = Second.get(Set, MC, Tech, 42);
  EXPECT_EQ(Second.prepared(), 1u);
  EXPECT_EQ(Second.preparedPrograms(), 1u);
  EXPECT_EQ(Second.programStoreHits(), Smaller->size());
  EXPECT_EQ(Store->writes(), Programs.size()); // Only the new entry.

  // And the assembled suite is bit-identical to preparing from scratch.
  PreparedSuite Scratch = prepareSuite(Programs, MC, Tech, 42);
  expectSuitesBitIdentical(Grown, Scratch);

  // The new entry was written on the way out: a third process gets a
  // whole-suite store hit with nothing prepared.
  SuiteCache Third;
  Third.setStore(Store);
  Third.get(Set, MC, Tech, 42);
  EXPECT_EQ(Third.prepared(), 0u);
  EXPECT_EQ(Third.storeHits(), 1u);
  EXPECT_EQ(Third.preparedPrograms(), 0u);
}

// Programs shared between different suites resolve to the same
// entries: a permuted subset of a cached suite — a different program
// set — prepares nothing at all.
TEST(IncrementalStore, CrossSuiteDedupeServesSharedPrograms) {
  auto Store =
      std::make_shared<CacheStore>(freshCacheDir("incr_dedupe.cache"));
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(19, 5));
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  SuiteCache First;
  First.setStore(Store);
  First.get(Set, MC, Tech, 42);
  ASSERT_EQ(First.preparedPrograms(), Programs.size());

  // A different suite sharing two programs (reversed order on top, so
  // the set hash differs even ignoring membership).
  auto Other = std::make_shared<const ProgramSet>(
      std::vector<Program>{Programs[3], Programs[1]});
  SuiteCache Second;
  Second.setStore(Store);
  PreparedSuite Assembled = Second.get(Other, MC, Tech, 42);
  EXPECT_EQ(Second.preparedPrograms(), 0u);
  EXPECT_EQ(Second.programStoreHits(), Other->size());
  EXPECT_EQ(Second.prepared(), 0u);
  // Served entirely from the store, though no save wrote this set.
  EXPECT_EQ(Second.storeHits(), 1u);
  ASSERT_EQ(Assembled.Names.size(), 2u);
  EXPECT_EQ(Assembled.Names[0], Programs[3].Name);
  EXPECT_EQ(Assembled.Names[1], Programs[1].Name);

  expectSuitesBitIdentical(Assembled,
                           prepareSuite(Other->programs(), MC, Tech, 42));
}

// Techniques with the same preparation identity share prog entries;
// a technique differing in preparation (typing error) does not.
TEST(IncrementalStore, PreparationIdentityGovernsDedupe) {
  auto Store =
      std::make_shared<CacheStore>(freshCacheDir("incr_prepid.cache"));
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(23, 3));
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();

  SuiteCache Cache;
  Cache.setStore(Store);
  Cache.get(Set, MC, loopTechnique(), 42);

  // Same preparation, different tuner: in-memory representation aside,
  // the store must not re-prepare anything.
  TechniqueSpec Retuned = loopTechnique();
  Retuned.Tuner.IpcDelta = 0.4;
  SuiteCache SameIdentity;
  SameIdentity.setStore(Store);
  SameIdentity.get(Set, MC, Retuned, 42);
  EXPECT_EQ(SameIdentity.preparedPrograms(), 0u);

  // Different preparation identity: everything re-prepares.
  TechniqueSpec Erroneous = loopTechnique();
  Erroneous.TypingError = 0.2;
  SuiteCache OtherIdentity;
  OtherIdentity.setStore(Store);
  OtherIdentity.get(Set, MC, Erroneous, 42);
  EXPECT_EQ(OtherIdentity.preparedPrograms(), Programs.size());
  EXPECT_EQ(OtherIdentity.programStoreHits(), 0u);
}

//===----------------------------------------------------------------------===//
// Corruption, gc, and version hygiene over prog entries
//===----------------------------------------------------------------------===//

// A corrupt prog entry is quarantined on first touch and the suite
// heals incrementally: only the program behind the bad entry is
// re-prepared, and the healed store serves clean hits again.
TEST(IncrementalStore, CorruptProgEntryQuarantinedThenHealed) {
  std::string Dir = freshCacheDir("incr_corrupt.cache");
  auto Store = std::make_shared<CacheStore>(Dir);
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(29, 4));
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  SuiteCache Seed;
  Seed.setStore(Store);
  PreparedSuite Reference = Seed.get(Set, MC, Tech, 42);

  // Flip one payload byte of program 2's entry: header intact, checksum
  // no longer matches.
  std::string Path = Store->progPathFor(
      CacheStore::progKey(contentHash(Programs[2]), MC, Tech, 42));
  std::string Bytes;
  ASSERT_TRUE(readFileBytes(Path, Bytes));
  ASSERT_GT(Bytes.size(), 100u);
  Bytes[Bytes.size() - 1] ^= 0x5A;
  ASSERT_TRUE(writeFileBytes(Path, Bytes));

  // A fresh process: the load trips over the bad entry (quarantining
  // it), serves the three intact entries, and the cache re-prepares
  // exactly the corrupted one.
  auto Cold = std::make_shared<CacheStore>(Dir);
  SuiteCache Healer;
  Healer.setStore(Cold);
  PreparedSuite Healed = Healer.get(Set, MC, Tech, 42);
  EXPECT_EQ(Healer.prepared(), 1u);
  EXPECT_EQ(Healer.preparedPrograms(), 1u);
  EXPECT_EQ(Healer.programStoreHits(), Programs.size() - 1);
  EXPECT_EQ(Cold->rejects(), 1u);
  EXPECT_EQ(Cold->quarantines(), 1u);
  EXPECT_EQ(filesContaining(Dir, ".quarantined-checksum").size(), 1u);
  expectSuitesBitIdentical(Healed, Reference);

  // The rebuild healed the entry in place: the next cold process gets a
  // clean whole-suite hit.
  auto Verify = std::make_shared<CacheStore>(Dir);
  SuiteCache Clean;
  Clean.setStore(Verify);
  Clean.get(Set, MC, Tech, 42);
  EXPECT_EQ(Clean.prepared(), 0u);
  EXPECT_EQ(Clean.storeHits(), 1u);
  EXPECT_EQ(Verify->rejects(), 0u);
}

// gc() scans every entry, and a size bound of one byte clears them all.
TEST(IncrementalStore, GcScansAndEvictsProgEntries) {
  std::string Dir = freshCacheDir("incr_gc.cache");
  CacheStore Store(Dir);
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(31, 3));
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  ASSERT_TRUE(Store.save(Set->programHashes(), MC, Tech, 42,
                         prepareSuite(Programs, MC, Tech, 42)));

  CacheStore::GcStats Stats = Store.gc(/*MaxBytes=*/1);
  EXPECT_EQ(Stats.Scanned, Programs.size());
  EXPECT_EQ(Stats.Evicted, Programs.size());
  EXPECT_TRUE(filesContaining(Dir, ".pbt").empty());
}

// cleanMismatchedVersions removes stale-version entries while leaving
// current entries and foreign files alone.
TEST(IncrementalStore, CleanMismatchedVersionsCoversProgEntries) {
  std::string Dir = freshCacheDir("incr_versions.cache");
  CacheStore Store(Dir);
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(37, 2));
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  ASSERT_TRUE(Store.save(Set->programHashes(), MC, Tech, 42,
                         prepareSuite(Programs, MC, Tech, 42)));
  size_t LiveFiles = filesContaining(Dir, ".pbt").size();

  // Plant a stale-version entry: the real magic ("PBTP") with a bumped
  // format version, padded past the header.
  BinaryWriter W;
  W.u32(0x50544250u);
  W.u32(CacheStore::ProgFormatVersion + 1);
  std::string Stale = W.buffer();
  Stale.append(64, '\0');
  ASSERT_TRUE(writeFileBytes(Dir + "/prog-00000000deadbeef.pbt", Stale));
  // A foreign file that merely looks store-shaped must survive.
  ASSERT_TRUE(writeFileBytes(Dir + "/prog-00000000cafecafe.pbt",
                             std::string("not a store file at all")));

  EXPECT_EQ(Store.cleanMismatchedVersions(), 1u);
  EXPECT_EQ(filesContaining(Dir, ".pbt").size(), LiveFiles + 1);

  // Current entries still load after the clean.
  for (const PreparedProgram &P : Store.load(Set, MC, Tech, 42))
    EXPECT_TRUE(P.Image != nullptr);

  std::remove((Dir + "/prog-00000000cafecafe.pbt").c_str());
}

namespace {

/// Writes the `pbt-suite-v4` manifest (and its lock file) that stores
/// once kept beside their entries: magic "PBTS", version 4, the suite
/// key over the whole set's hash, and the list of program hashes.
/// Returns the manifest's path.
std::string plantLegacyManifest(const std::string &Dir, const ProgramSet &Set,
                                const MachineConfig &MC,
                                const TechniqueSpec &Tech,
                                uint64_t TypingSeed) {
  uint64_t Key = hashCombine(0x5B17CACE, 4);
  Key = hashCombine(Key, Set.hash());
  Key = hashCombine(Key, hashValue(MC));
  Key = hashCombine(Key, Tech.preparationHash());
  Key = hashCombine(Key, TypingSeed);
  BinaryWriter Payload;
  Payload.u32(static_cast<uint32_t>(Set.size()));
  for (uint64_t H : Set.programHashes())
    Payload.u64(H);
  BinaryWriter File;
  File.u32(0x53544250u); // "PBTS"
  File.u32(4);
  File.u64(Key);
  File.u64(Set.hash());
  File.u64(hashValue(MC));
  File.u64(Tech.preparationHash());
  File.u64(TypingSeed);
  File.u64(Payload.buffer().size());
  File.u64(fnv1a(Payload.buffer().data(), Payload.buffer().size()));
  char Name[32];
  std::snprintf(Name, sizeof(Name), "suite-%016llx",
                static_cast<unsigned long long>(Key));
  std::string Base = Dir + "/" + Name;
  EXPECT_TRUE(writeFileBytes(Base + ".pbt", File.buffer() + Payload.buffer()));
  EXPECT_TRUE(writeFileBytes(Base + ".lck", ""));
  return Base + ".pbt";
}

} // namespace

// A store filled when suites also kept a `pbt-suite-v4` manifest still
// serves those suites from their entries alone, preparing nothing;
// opening it deletes the manifest's lock file, and
// cleanMismatchedVersions the now-obsolete manifest, while the entries
// stay.
TEST(IncrementalStore, LegacyManifestStoreServesFromEntries) {
  std::string Dir = freshCacheDir("incr_legacy.cache");
  auto Set = std::make_shared<const ProgramSet>(randomPrograms(41, 3));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique();

  SuiteCache Filler;
  Filler.setStore(std::make_shared<CacheStore>(Dir));
  Filler.get(Set, MC, Tech, 42);
  ASSERT_EQ(Filler.preparedPrograms(), Set->size());
  std::string Manifest = plantLegacyManifest(Dir, *Set, MC, Tech, 42);
  std::string Lock = Manifest.substr(0, Manifest.size() - 4) + ".lck";

  auto Store = std::make_shared<CacheStore>(Dir);
  std::string Bytes;
  EXPECT_FALSE(readFileBytes(Lock, Bytes)) << "opening removes its lock";
  SuiteCache Warm;
  Warm.setStore(Store);
  Warm.get(Set, MC, Tech, 42);
  EXPECT_EQ(Warm.preparedPrograms(), 0u);
  EXPECT_EQ(Warm.storeHits(), 1u);
  EXPECT_EQ(Warm.programStoreHits(), Set->size());
  EXPECT_EQ(Store->misses(), 0u);
  EXPECT_EQ(Store->writes(), 0u);

  EXPECT_EQ(Store->cleanMismatchedVersions(), 1u);
  EXPECT_FALSE(readFileBytes(Manifest, Bytes)) << "manifest removed";
  EXPECT_TRUE(filesContaining(Dir, "suite-").empty());
  EXPECT_EQ(filesContaining(Dir, ".pbt").size(), Set->size());
}

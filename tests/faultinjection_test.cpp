//===- tests/faultinjection_test.cpp - fault seam + store robustness ------===//
//
// The crash-safety contract of the persistent suite store, exercised
// deterministically through support/FaultInjection: injected EIO, short
// writes, and torn renames; quarantine of every rejection reason; gc
// under concurrent-evictor races; the stale-debris sweeps, old lock
// files included; and failed saves that leave existing entries
// serving.

#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/SuiteCache.h"
#include "support/Binary.h"
#include "support/FaultInjection.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <unistd.h>
#include <utime.h>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::freshCacheDir;
using pbt_test::testCacheDir;

namespace {

/// Two fast benchmarks keep store round-trips cheap.
std::vector<Program> tinySuite() {
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const std::string &Name : {"164.gzip", "179.art"})
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  return Programs;
}

TechniqueSpec loopTechnique(unsigned MinSize) {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = MinSize;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

bool fileExists(const std::string &Path) {
  std::string Bytes;
  return readFile(Path, Bytes);
}

void setFileAge(const std::string &Path, long SecondsAgo) {
  struct utimbuf Times;
  Times.actime = Times.modtime = std::time(nullptr) - SecondsAgo;
  ASSERT_EQ(::utime(Path.c_str(), &Times), 0) << Path;
}

/// RAII guard: every test starts and ends with the seam disarmed, so
/// a failing assertion can't leak faults into the next test.
struct FaultScope {
  FaultScope() { FaultInjection::instance().reset(); }
  ~FaultScope() { FaultInjection::instance().reset(); }
};

/// A store holding one saved suite, in a fresh scratch directory named
/// \p Name; experiments corrupt or age the entry of its first program
/// (Key, at Path).
struct StoreRig {
  explicit StoreRig(const std::string &Name, unsigned MinSize = 40)
      : Store(freshCacheDir(Name)),
        Set(std::make_shared<const ProgramSet>(tinySuite())),
        Programs(Set->programs()),
        MC(MachineConfig::quadAsymmetric()), Tech(loopTechnique(MinSize)),
        ProgramHashes(Set->programHashes()),
        Key(CacheStore::progKey(ProgramHashes[0], MC, Tech, 42)),
        Path(Store.progPathFor(Key)) {
    Suite = prepareSuite(Programs, MC, Tech, 42);
    EXPECT_TRUE(save());
  }

  bool save() { return Store.save(ProgramHashes, MC, Tech, 42, Suite); }
  /// True when every program of the suite was served from disk.
  bool load() { return loadsAll(Tech); }
  bool loadsAll(const TechniqueSpec &T) {
    for (const PreparedProgram &P : Store.load(Set, MC, T, 42))
      if (!P.Image)
        return false;
    return true;
  }

  CacheStore Store;
  std::shared_ptr<const ProgramSet> Set;
  const std::vector<Program> &Programs;
  MachineConfig MC;
  TechniqueSpec Tech;
  std::vector<uint64_t> ProgramHashes;
  uint64_t Key;
  std::string Path;
  PreparedSuite Suite;
};

} // namespace

//===----------------------------------------------------------------------===//
// Spec parsing and the decision stream
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, ParseFullSpec) {
  FaultConfig C = FaultInjection::parse(
      "seed=7,eio=0.05,short_write=0.1,torn_rename=0.25,vanish=0.5,"
      "crash_at=store.locked:2");
  EXPECT_EQ(C.Seed, 7u);
  EXPECT_DOUBLE_EQ(C.EioP, 0.05);
  EXPECT_DOUBLE_EQ(C.ShortWriteP, 0.1);
  EXPECT_DOUBLE_EQ(C.TornRenameP, 0.25);
  EXPECT_DOUBLE_EQ(C.VanishP, 0.5);
  EXPECT_EQ(C.CrashPoint, "store.locked");
  EXPECT_EQ(C.CrashAtHit, 2u);
  EXPECT_TRUE(C.enabled());
  // Default hit count, and the all-defaults config is disarmed.
  EXPECT_EQ(FaultInjection::parse("crash_at=atomic.mid_write").CrashAtHit,
            1u);
  EXPECT_FALSE(FaultInjection::parse("seed=3").enabled());
}

TEST(FaultInjectionTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultInjection::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("eio"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("eio=nope"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("eio=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("vanish=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("seed=abc"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("crash_at="), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("crash_at=p:0"), std::invalid_argument);
  EXPECT_THROW(FaultInjection::parse("crash_at=p:x"), std::invalid_argument);
}

/// The message \p Spec is rejected with ("" when it is accepted).
std::string rejection(const std::string &Spec) {
  try {
    (void)FaultInjection::parse(Spec);
  } catch (const std::invalid_argument &E) {
    return E.what();
  }
  return "";
}

TEST(FaultInjectionTest, ParseRejectsWrappedAndUnsignedLookalikes) {
  // strtoul/strtoull/strtod would take each of these: a hit past 2^32
  // truncated to 0 (never crash), a negative hit or seed wrapped to the
  // maximum, a NaN that disarms the fault, and values with leading
  // whitespace or a sign.
  EXPECT_NE(rejection("crash_at=p:4294967296").find("out of range"),
            std::string::npos);
  EXPECT_NE(rejection("crash_at=p:0").find("out of range"),
            std::string::npos);
  EXPECT_NE(rejection("crash_at=p:-1").find("digits"), std::string::npos);
  EXPECT_NE(rejection("crash_at=p: 2").find("digits"), std::string::npos);
  EXPECT_NE(rejection("crash_at=p:+2").find("digits"), std::string::npos);
  EXPECT_NE(rejection("crash_at=p:").find("digits"), std::string::npos);
  EXPECT_NE(rejection("seed=-1").find("digits"), std::string::npos);
  EXPECT_NE(rejection("seed= 7").find("digits"), std::string::npos);
  EXPECT_NE(rejection("seed=").find("digits"), std::string::npos);
  EXPECT_NE(rejection("seed=0x10").find("digits"), std::string::npos);
  EXPECT_NE(rejection("seed=18446744073709551616").find("out of range"),
            std::string::npos);
  EXPECT_NE(rejection("eio=nan").find("not a number"), std::string::npos);
  EXPECT_NE(rejection("vanish=-nan").find("not a number"), std::string::npos);
  EXPECT_NE(rejection("eio=inf").find("[0,1]"), std::string::npos);
  EXPECT_NE(rejection("eio= 0.5").find("[0,1]"), std::string::npos);
  EXPECT_NE(rejection("eio=").find("[0,1]"), std::string::npos);
  // The extremes of each range still parse.
  EXPECT_EQ(FaultInjection::parse("crash_at=p:4294967295").CrashAtHit,
            4294967295u);
  EXPECT_EQ(FaultInjection::parse("seed=18446744073709551615").Seed,
            UINT64_MAX);
  EXPECT_EQ(FaultInjection::parse("seed=0").Seed, 0u);
  EXPECT_DOUBLE_EQ(FaultInjection::parse("eio=0").EioP, 0.0);
}

TEST(FaultInjectionTest, ParseMutantsAreRejectedOrSane) {
  // Seeded character flips, insertions and deletions over valid specs:
  // every mutant either throws std::invalid_argument with a message, or
  // yields finite probabilities in [0,1] and a crash hit of at least 1.
  const std::string Valid[] = {
      "seed=7,eio=0.05,short_write=0.1,torn_rename=0.25,vanish=0.5,"
      "crash_at=store.locked:2",
      "crash_at=atomic.mid_write:4294967295,vanish=1",
      "seed=18446744073709551615,eio=1e-3"};
  const char Alphabet[] = "0123456789-+ .eEnaifx:,=_";
  Rng Gen(0xFA017);
  uint32_t Accepted = 0, Rejected = 0;
  for (int Trial = 0; Trial < 20000 && !HasFailure(); ++Trial) {
    std::string Spec = Valid[Gen.nextBelow(3)];
    for (uint64_t Edits = 1 + Gen.nextBelow(3); Edits > 0; --Edits) {
      size_t At = Gen.nextBelow(Spec.size() + 1);
      char C = Alphabet[Gen.nextBelow(sizeof(Alphabet) - 1)];
      switch (Gen.nextBelow(3)) {
      case 0:
        if (At < Spec.size())
          Spec[At] = C;
        break;
      case 1:
        Spec.insert(Spec.begin() + static_cast<std::ptrdiff_t>(At), C);
        break;
      default:
        if (At < Spec.size())
          Spec.erase(At, 1);
        break;
      }
    }
    try {
      FaultConfig Cfg = FaultInjection::parse(Spec);
      ++Accepted;
      for (double P :
           {Cfg.EioP, Cfg.ShortWriteP, Cfg.TornRenameP, Cfg.VanishP}) {
        EXPECT_TRUE(std::isfinite(P)) << Spec;
        EXPECT_GE(P, 0.0) << Spec;
        EXPECT_LE(P, 1.0) << Spec;
      }
      EXPECT_GE(Cfg.CrashAtHit, 1u) << Spec;
    } catch (const std::invalid_argument &E) {
      ++Rejected;
      EXPECT_STRNE(E.what(), "") << Spec;
    }
  }
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(FaultInjectionTest, DecisionStreamIsSeededDeterministic) {
  FaultScope Scope;
  FaultInjection &FI = FaultInjection::instance();

  auto drawSequence = [&](uint64_t Seed) {
    FaultConfig C;
    C.Seed = Seed;
    C.EioP = 0.5;
    FI.configure(C);
    std::vector<bool> Draws;
    for (int I = 0; I < 64; ++I)
      Draws.push_back(FI.failOp("test.op"));
    return Draws;
  };

  std::vector<bool> First = drawSequence(9);
  EXPECT_EQ(FI.decisions(), 64u);
  // Same seed, same schedule; different seed, different schedule.
  EXPECT_EQ(First, drawSequence(9));
  EXPECT_NE(First, drawSequence(10));
}

TEST(FaultInjectionTest, DisarmedSeamIsInert) {
  FaultScope Scope;
  FaultInjection &FI = FaultInjection::instance();
  EXPECT_FALSE(FI.armed());
  EXPECT_FALSE(FI.failOp("x"));
  EXPECT_FALSE(FI.truncateWrite("x"));
  EXPECT_FALSE(FI.tornRename("x"));
  FI.crashPoint("anything"); // Must not exit.
  EXPECT_EQ(FI.decisions(), 0u); // Disarmed checks never hit the stream.
}

//===----------------------------------------------------------------------===//
// writeFileAtomic under injected faults
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, InjectedEioFailsWriteCleanly) {
  FaultScope Scope;
  FaultConfig C;
  C.EioP = 1;
  FaultInjection::instance().configure(C);
  std::string Target = testCacheDir("fi_eio_target.bin");
  EXPECT_FALSE(writeFileAtomic(Target, "payload"));
  FaultInjection::instance().reset();
  EXPECT_FALSE(fileExists(Target));
}

TEST(FaultInjectionTest, ShortWriteLeavesTornTempNeverDestination) {
  FaultScope Scope;
  FaultConfig C;
  C.ShortWriteP = 1;
  FaultInjection::instance().configure(C);
  std::string Data(1000, 'x');
  std::string Target = testCacheDir("fi_short_target.bin");
  EXPECT_FALSE(writeFileAtomic(Target, Data));
  FaultInjection::instance().reset();

  // The destination never appeared; the torn temp did, holding exactly
  // the first half (what a crash mid-write leaves behind).
  EXPECT_FALSE(fileExists(Target));
  std::string Tmp = Target + ".tmp." + std::to_string(::getpid());
  std::string Torn;
  ASSERT_TRUE(readFile(Tmp, Torn));
  EXPECT_EQ(Torn.size(), Data.size() / 2);
  std::remove(Tmp.c_str());
}

TEST(FaultInjectionTest, TornRenameIsQuarantinedThenRebuilt) {
  FaultScope Scope;
  StoreRig Rig("fi_torn.cache", 47);
  ASSERT_TRUE(Rig.load());

  // Re-save the first entry under a torn rename: the writer believes
  // it succeeded, but the entry on disk is only a prefix.
  ASSERT_EQ(std::remove(Rig.Path.c_str()), 0);
  FaultConfig C;
  C.TornRenameP = 1;
  FaultInjection::instance().configure(C);
  EXPECT_TRUE(Rig.save());
  FaultInjection::instance().reset();

  // The next reader rejects the torn entry and quarantines it.
  EXPECT_FALSE(Rig.load());
  EXPECT_EQ(Rig.Store.rejects(), 1u);
  EXPECT_EQ(Rig.Store.quarantines(), 1u);
  EXPECT_FALSE(fileExists(Rig.Path));
  EXPECT_TRUE(fileExists(
      Rig.Store.progQuarantinePathFor(Rig.Key, "truncated")));

  // A load-through cache transparently rebuilds the entry. Only the
  // first entry was torn; the others are intact, so the rebuild
  // prepares that one program and serves the rest from disk.
  SuiteCache Cache;
  // (shared_ptr with a no-op deleter: the rig owns the store)
  Cache.setStore(std::shared_ptr<CacheStore>(
      std::shared_ptr<CacheStore>(), &Rig.Store));
  Cache.get(Rig.Set, Rig.MC, Rig.Tech);
  EXPECT_EQ(Cache.prepared(), 1u);
  EXPECT_EQ(Cache.preparedPrograms(), 1u);
  EXPECT_EQ(Cache.programStoreHits(), Rig.Programs.size() - 1);
  // ...and the store is healthy again: the rebuild rewrote the entry.
  EXPECT_TRUE(Rig.load());
}

//===----------------------------------------------------------------------===//
// Quarantine: every rejection reason moves the file aside, the next
// request sees a clean miss, and healthy neighbors never notice
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, EveryRejectReasonQuarantinesAndRecovers) {
  FaultScope Scope;
  StoreRig Rig("fi_quarantine.cache", 48);
  const std::string &Path = Rig.Path;
  std::string Good;
  ASSERT_TRUE(readFile(Path, Good));
  constexpr size_t HeaderBytes = 64;
  ASSERT_GT(Good.size(), HeaderBytes);

  // Healthy neighbor entries under a different technique, for the
  // "unaffected" half of the contract.
  TechniqueSpec NeighborTech = loopTechnique(49);
  ASSERT_TRUE(Rig.Store.save(Rig.ProgramHashes, Rig.MC, NeighborTech, 42,
                             prepareSuite(Rig.Programs, Rig.MC,
                                          NeighborTech, 42)));

  struct Case {
    const char *Reason;
    std::string Bytes;
  };
  std::vector<Case> Cases;
  {
    std::string B = Good;
    B[0] ^= 0xFF; // Magic.
    Cases.push_back({"magic", B});
  }
  {
    std::string B = Good;
    B[4] ^= 0x01; // Format version.
    Cases.push_back({"version", B});
  }
  {
    std::string B = Good;
    B[8] ^= 0x01; // Stored key no longer matches the request.
    Cases.push_back({"key", B});
  }
  Cases.push_back({"truncated", Good.substr(0, Good.size() / 2)});
  {
    std::string B = Good;
    B[Good.size() - 3] ^= 0x10; // Payload bit rot: checksum fails.
    Cases.push_back({"checksum", B});
  }
  {
    // Garbage payload with a CORRECT checksum: the header passes, the
    // decode fails — the deepest rejection path.
    std::string B = Good;
    for (size_t I = HeaderBytes; I < B.size(); ++I)
      B[I] = static_cast<char>(I * 131);
    uint64_t Sum = fnv1a(B.data() + HeaderBytes, B.size() - HeaderBytes);
    for (int Byte = 0; Byte < 8; ++Byte) // Patch the checksum field (LE).
      B[56 + Byte] = static_cast<char>((Sum >> (8 * Byte)) & 0xFF);
    Cases.push_back({"payload", B});
  }

  uint64_t ExpectedQuarantines = 0;
  for (const Case &Corruption : Cases) {
    ASSERT_TRUE(writeFileAtomic(Path, Corruption.Bytes));
    uint64_t RejectsBefore = Rig.Store.rejects();

    // Rejected, quarantined under the right reason, original gone.
    EXPECT_FALSE(Rig.load()) << Corruption.Reason;
    EXPECT_EQ(Rig.Store.rejects(), RejectsBefore + 1) << Corruption.Reason;
    EXPECT_EQ(Rig.Store.quarantines(), ++ExpectedQuarantines)
        << Corruption.Reason;
    EXPECT_FALSE(fileExists(Path)) << Corruption.Reason;
    EXPECT_TRUE(fileExists(
        Rig.Store.progQuarantinePathFor(Rig.Key, Corruption.Reason)))
        << Corruption.Reason;

    // The next request is a PLAIN miss — no re-reject of the same bad
    // bytes — and a fresh save fully recovers the entry.
    EXPECT_FALSE(Rig.load()) << Corruption.Reason;
    EXPECT_EQ(Rig.Store.rejects(), RejectsBefore + 1)
        << "quarantined entry must not be re-rejected";
    ASSERT_TRUE(Rig.save()) << Corruption.Reason;
    EXPECT_TRUE(Rig.load()) << Corruption.Reason;

    std::remove(
        Rig.Store.progQuarantinePathFor(Rig.Key, Corruption.Reason).c_str());
  }

  // The neighbor entries served hits throughout, untouched by the chaos.
  uint64_t HitsBefore = Rig.Store.hits();
  EXPECT_TRUE(Rig.loadsAll(NeighborTech));
  EXPECT_EQ(Rig.Store.hits(), HitsBefore + Rig.Programs.size());
}

//===----------------------------------------------------------------------===//
// gc under races, and the debris sweeps
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, GcToleratesEntriesVanishingUnderneath) {
  FaultScope Scope;
  StoreRig Rig("fi_gc_vanish.cache", 50);
  const std::string &Path = Rig.Path;
  setFileAge(Path, 2 * 3600L);

  // Every eviction candidate is deleted by the "concurrent evictor"
  // just before gc's own remove: gc must sail through the ENOENT and
  // count nothing evicted.
  FaultConfig C;
  C.VanishP = 1;
  FaultInjection::instance().configure(C);
  CacheStore::GcStats Stats = Rig.Store.gc(/*MaxBytes=*/0,
                                           /*MaxAgeSeconds=*/3600);
  FaultInjection::instance().reset();
  // The scan sees one entry per program; only the aged first entry was
  // an eviction candidate.
  EXPECT_EQ(Stats.Scanned, Rig.Programs.size());
  EXPECT_EQ(Stats.Evicted, 0u) << "the race winner gets the credit";
  EXPECT_FALSE(fileExists(Path));
}

TEST(FaultInjectionTest, SweepCollectsDeadWritersAndOldQuarantines) {
  FaultScope Scope;
  CacheStore Store(freshCacheDir("fi_sweep.cache"));

  // Debris: a temp from a dead writer (impossible pid), a temp from a
  // LIVE writer (our own pid, fresh), an old quarantine, and a fresh
  // quarantine.
  std::string DeadTmp =
      Store.dir() + "/suite-0000000000000001.pbt.tmp.999999999";
  std::string LiveTmp = Store.dir() + "/suite-0000000000000002.pbt.tmp." +
                        std::to_string(::getpid());
  std::string OldQuarantine =
      Store.dir() + "/suite-0000000000000003.pbt.quarantined-checksum";
  std::string FreshQuarantine =
      Store.dir() + "/suite-0000000000000004.pbt.quarantined-truncated";
  for (const std::string &Path :
       {DeadTmp, LiveTmp, OldQuarantine, FreshQuarantine})
    ASSERT_TRUE(writeFileAtomic(Path, "debris"));
  setFileAge(OldQuarantine, 8 * 86400L);

  // Default sweep: dead writer's temp and week-old quarantine go; the
  // live writer's temp and the fresh quarantine stay.
  EXPECT_EQ(Store.sweepStale(), 2u);
  EXPECT_FALSE(fileExists(DeadTmp));
  EXPECT_TRUE(fileExists(LiveTmp));
  EXPECT_FALSE(fileExists(OldQuarantine));
  EXPECT_TRUE(fileExists(FreshQuarantine));

  // An explicit age-0 sweep clears the remaining quarantine too.
  EXPECT_EQ(Store.sweepStale(0), 1u);
  EXPECT_FALSE(fileExists(FreshQuarantine));
  std::remove(LiveTmp.c_str());
}

// Stores written before the store went lock-free kept one `.lck` file
// per entry (and per legacy manifest). Opening such a store deletes
// every one of them, beside live entries or not, while the entries
// keep serving and foreign look-alikes stay.
TEST(FaultInjectionTest, ConstructionSweepsOldLockFiles) {
  FaultScope Scope;
  StoreRig Rig("fi_old_locks.cache", 53);
  const std::string &Dir = Rig.Store.dir();
  std::vector<std::string> Locks;
  for (uint64_t H : Rig.ProgramHashes) {
    std::string Entry =
        Rig.Store.progPathFor(CacheStore::progKey(H, Rig.MC, Rig.Tech, 42));
    Locks.push_back(Entry.substr(0, Entry.size() - 4) + ".lck");
  }
  Locks.push_back(Dir + "/prog-00000000deadbeef.lck"); // Entry long gone.
  Locks.push_back(Dir + "/suite-00000000deadbeef.lck"); // Legacy manifest.
  std::string Foreign = Dir + "/prog-notastorelock.lck";
  for (const std::string &Path : Locks)
    ASSERT_TRUE(writeFileAtomic(Path, ""));
  ASSERT_TRUE(writeFileAtomic(Foreign, ""));

  CacheStore Reopened(Dir);
  for (const std::string &Path : Locks)
    EXPECT_FALSE(fileExists(Path)) << Path;
  EXPECT_TRUE(fileExists(Foreign)) << "only the store's own names go";
  for (const PreparedProgram &P : Reopened.load(Rig.Set, Rig.MC, Rig.Tech, 42))
    EXPECT_TRUE(P.Image != nullptr);
  std::remove(Foreign.c_str());
}

//===----------------------------------------------------------------------===//
// A failed save degrades to a skipped write-back, never a broken store
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, FailedSaveLeavesExistingEntriesServing) {
  FaultScope Scope;
  StoreRig Rig("fi_failed_save.cache", 55);

  // The first entry is gone and every temp-file open fails from here
  // on: the save of the missing entry fails and writes nothing.
  ASSERT_EQ(std::remove(Rig.Path.c_str()), 0);
  uint64_t WritesBefore = Rig.Store.writes();
  FaultConfig C;
  C.EioP = 1;
  FaultInjection::instance().configure(C);
  EXPECT_FALSE(Rig.save());
  FaultInjection::instance().reset();
  EXPECT_EQ(Rig.Store.writes(), WritesBefore);
  EXPECT_FALSE(fileExists(Rig.Path));

  // The other entries still serve; the missing one is a plain miss,
  // not a rejection.
  uint64_t MissesBefore = Rig.Store.misses();
  std::vector<PreparedProgram> Loaded =
      Rig.Store.load(Rig.Set, Rig.MC, Rig.Tech, 42);
  EXPECT_TRUE(Loaded[0].Image == nullptr);
  for (size_t I = 1; I < Loaded.size(); ++I)
    EXPECT_TRUE(Loaded[I].Image != nullptr) << I;
  EXPECT_EQ(Rig.Store.misses(), MissesBefore + 1);
  EXPECT_EQ(Rig.Store.rejects(), 0u);

  // A healthy filesystem restores full behavior.
  EXPECT_TRUE(Rig.save());
  EXPECT_TRUE(Rig.load());
}

TEST(FaultInjectionDeathTest, MalformedEnvSpecExitsCleanly) {
  // The env spec is parsed inside instance()'s one-time initializer,
  // whose first call can come from anywhere with no catch in sight
  // (driver --gc-cache, a store op); a typo must be a clean exit-2
  // diagnostic, never std::terminate. "threadsafe" re-executes the
  // test in a fresh child process, so the child's singleton really is
  // uninitialized when the statement runs.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("PBT_FAULTS", "eio=banana", 1);
  EXPECT_EXIT(FaultInjection::instance(), testing::ExitedWithCode(2),
              "probability");
  ::unsetenv("PBT_FAULTS");
}

TEST(FaultInjectionTest, SeamIsOnTheStorePath) {
  FaultScope Scope;
  // Armed but with zero probabilities: nothing fires, but every
  // consulted decision point counts — proving writeFileAtomic actually
  // routes through the seam.
  FaultConfig C;
  C.CrashPoint = "never.reached";
  FaultInjection::instance().configure(C);
  ASSERT_TRUE(writeFileAtomic("fi_decisions.bin", "payload"));
  EXPECT_GT(FaultInjection::instance().decisions(), 0u);
  std::remove("fi_decisions.bin");
}

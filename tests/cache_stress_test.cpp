//===- tests/cache_stress_test.cpp - crash + multi-process store stress ---===//
//
// The store's headline robustness claims, proven the hard way: forked
// children are killed (via FaultInjection crash points, which _exit(137)
// like a kill -9) at every interesting instant of a store write, and a
// pack of concurrent processes hammers one store directory — after all
// of which the store must still load, rebuild transparently, and end up
// byte-identical to a single quiet writer's output.

#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/Harness.h"
#include "exp/Shard.h"
#include "exp/SuiteCache.h"
#include "exp/Sweep.h"
#include "support/Binary.h"
#include "support/FaultInjection.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <map>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::freshCacheDir;
using pbt_test::removeTree;

namespace {

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

/// Counts directory entries whose name contains \p Needle.
size_t countMatching(const std::string &Dir, const char *Needle) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  size_t N = 0;
  while (const dirent *E = ::readdir(D))
    if (std::strstr(E->d_name, Needle))
      ++N;
  ::closedir(D);
  return N;
}

/// Everything a crash-point scenario needs, prepared once in the parent
/// BEFORE any fork (children must not touch the thread pool). A save
/// writes one entry per program, in set order. The store lives in a
/// fresh scratch directory named \p Name, its reference beside it.
struct CrashRig {
  explicit CrashRig(const std::string &Name)
      : DirName(freshCacheDir(Name)),
        Set(std::make_shared<const ProgramSet>(tinySuite())),
        Programs(Set->programs()),
        MC(MachineConfig::quadAsymmetric()), Tech(loopTechnique(60)),
        ProgramHashes(Set->programHashes()),
        Suite(prepareSuite(Programs, MC, Tech, 42)) {
    freshCacheDir(Name + ".ref");
  }

  /// Forks a child that arms \p CrashPoint at its \p Hit-th hit and
  /// calls save(); asserts it died with the kill -9 status.
  void crashChildAt(const char *CrashPoint, uint32_t Hit = 1) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: arm the crash point and write. Everything here must die
      // via _exit — gtest machinery, buffers, and all.
      FaultConfig C;
      C.CrashPoint = CrashPoint;
      C.CrashAtHit = Hit;
      FaultInjection::instance().configure(C);
      CacheStore Child(DirName);
      Child.save(ProgramHashes, MC, Tech, 42, Suite);
      ::_exit(0); // The crash point never fired: wrong, and visible.
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status)) << CrashPoint;
    ASSERT_EQ(WEXITSTATUS(Status), 137) << CrashPoint
        << ": child must die AT the crash point";
  }

  /// The path of program \p I's entry under \p T in \p Store.
  std::string entryPath(const CacheStore &Store, size_t I,
                        const TechniqueSpec &T) const {
    return Store.progPathFor(CacheStore::progKey(ProgramHashes[I], MC, T, 42));
  }

  /// Every entry's bytes under \p T in \p Store, in set order (empty
  /// where the entry is absent).
  std::vector<std::string> entryBytes(const CacheStore &Store,
                                      const TechniqueSpec &T) const {
    std::vector<std::string> Out(Programs.size());
    for (size_t I = 0; I < Programs.size(); ++I)
      readFile(entryPath(Store, I, T), Out[I]);
    return Out;
  }

  /// The entries a quiet single writer produces for \p S under \p T
  /// (the reference store lives beside the crash store).
  std::vector<std::string> referenceBytes(const TechniqueSpec &T,
                                          const PreparedSuite &S) {
    CacheStore Ref(DirName + ".ref");
    EXPECT_TRUE(Ref.save(ProgramHashes, MC, T, 42, S));
    return entryBytes(Ref, T);
  }
  std::vector<std::string> referenceBytes() {
    return referenceBytes(Tech, Suite);
  }

  /// How many of the set's programs \p Store serves under \p T.
  size_t served(CacheStore &Store, const TechniqueSpec &T) const {
    size_t N = 0;
    for (const PreparedProgram &P : Store.load(Set, MC, T, 42))
      N += P.Image != nullptr;
    return N;
  }
  size_t served(CacheStore &Store) const { return served(Store, Tech); }

  std::string DirName;
  std::shared_ptr<const ProgramSet> Set;
  const std::vector<Program> &Programs;
  MachineConfig MC;
  TechniqueSpec Tech;
  std::vector<uint64_t> ProgramHashes;
  PreparedSuite Suite;
};

} // namespace

//===----------------------------------------------------------------------===//
// Smoke under whatever PBT_FAULTS the environment carries
//===----------------------------------------------------------------------===//

// First in the file so FaultInjection::instance() still carries the
// environment's PBT_FAULTS spec (later tests configure() over it). CI's
// fault-smoke step runs this binary under injected EIO, short writes,
// and torn renames: whatever happens to individual store operations,
// the load-through cache must always come back with a usable suite.
TEST(CacheStressTest, SurvivesEnvironmentFaults) {
  std::string EnvDir = freshCacheDir("stress_envfaults.cache");
  auto Store = std::make_shared<CacheStore>(EnvDir);
  auto Set = std::make_shared<const ProgramSet>(tinySuite());
  const std::vector<Program> &Programs = Set->programs();
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Tech = loopTechnique(58);
  for (int Round = 0; Round < 6; ++Round) {
    SuiteCache Cache; // Cold memory tier every round: disk is in play.
    Cache.setStore(Store);
    PreparedSuite Suite = Cache.get(Set, MC, Tech);
    ASSERT_EQ(Suite.Images.size(), Programs.size()) << "round " << Round;
  }
  FaultInjection::instance().reset();
}

//===----------------------------------------------------------------------===//
// kill -9 at every interesting instant of a store write
//===----------------------------------------------------------------------===//

// A child dies mid-temp-write of the first entry: the destination
// must never exist, the torn temp is swept at the next construction,
// and a rebuild produces byte-identical output.
TEST(CacheStressTest, CrashMidWriteLeavesRecoverableStore) {
  CrashRig Rig("stress_crash_midwrite.cache");
  std::vector<std::string> Reference = Rig.referenceBytes();
  Rig.crashChildAt("atomic.mid_write");

  CacheStore After(Rig.DirName); // Construction sweeps the dead temp.
  EXPECT_EQ(countMatching(After.dir(), ".tmp."), 0u)
      << "dead writer's temp must be swept";
  EXPECT_EQ(Rig.served(After), 0u)
      << "a crashed write must never produce a visible entry";
  EXPECT_EQ(After.rejects(), 0u) << "nothing to reject: a clean miss";

  // Rebuild and compare to the quiet single writer, byte for byte.
  ASSERT_TRUE(After.save(Rig.ProgramHashes, Rig.MC, Rig.Tech, 42, Rig.Suite));
  EXPECT_EQ(Rig.entryBytes(After, Rig.Tech), Reference);
}

// A child dies between the complete temp write and the rename: same
// contract — the destination is atomic-or-absent.
TEST(CacheStressTest, CrashBeforeRenameLeavesNoEntry) {
  CrashRig Rig("stress_crash_prerename.cache");
  Rig.crashChildAt("atomic.before_rename");

  CacheStore After(Rig.DirName);
  EXPECT_EQ(countMatching(After.dir(), ".tmp."), 0u);
  EXPECT_EQ(Rig.served(After), 0u);
  EXPECT_EQ(After.rejects(), 0u);
}

// A child dies right AFTER the first rename of the save, which commits
// the first program's entry. That entry is complete and byte-identical
// to a quiet writer's (the point of write-before-rename) and serves;
// the second program is a clean miss, and a rebuild reuses the
// committed entry and converges to the reference bytes.
TEST(CacheStressTest, CrashAfterRenameLeavesCompleteEntry) {
  CrashRig Rig("stress_crash_postrename.cache");
  std::vector<std::string> Reference = Rig.referenceBytes();
  Rig.crashChildAt("atomic.after_rename");

  CacheStore After(Rig.DirName);
  std::string ProgBytes;
  ASSERT_TRUE(readFile(Rig.entryPath(After, 0, Rig.Tech), ProgBytes))
      << "renamed entry survives the crash";
  EXPECT_EQ(ProgBytes, Reference[0])
      << "completed entry is byte-identical to a quiet writer's";
  EXPECT_EQ(Rig.served(After), 1u)
      << "the committed entry serves; the unwritten one is a clean miss";
  EXPECT_EQ(After.rejects(), 0u);

  // Rebuild: the committed entry is reused (exists-skip), the rest is
  // written, and every entry matches the quiet single writer's.
  ASSERT_TRUE(After.save(Rig.ProgramHashes, Rig.MC, Rig.Tech, 42, Rig.Suite));
  EXPECT_EQ(After.writes(), Rig.Programs.size() - 1)
      << "the crash's surviving entry must not be rewritten";
  EXPECT_EQ(Rig.entryBytes(After, Rig.Tech), Reference);
  EXPECT_EQ(Rig.served(After), Rig.Programs.size());
}

// A child dies just before its first entry write: it leaves nothing
// behind — no entry, no temp, no lock file — and the next writer
// proceeds at once.
TEST(CacheStressTest, CrashBeforeEntryWriteStrandsNothing) {
  CrashRig Rig("stress_crash_prewrite.cache");
  Rig.crashChildAt("store.before_write");

  CacheStore After(Rig.DirName);
  EXPECT_EQ(countMatching(After.dir(), "prog-"), 0u)
      << "a crash before the write leaves no file at all";
  ASSERT_TRUE(After.save(Rig.ProgramHashes, Rig.MC, Rig.Tech, 42, Rig.Suite));
  EXPECT_EQ(After.writes(), Rig.Programs.size());
  EXPECT_EQ(Rig.served(After), Rig.Programs.size());
}

// A child dies after the last entry of the save: every entry is in
// place; a second process simply hits.
TEST(CacheStressTest, CrashAfterSaveIsInvisible) {
  CrashRig Rig("stress_crash_saved.cache");
  std::vector<std::string> Reference = Rig.referenceBytes();
  Rig.crashChildAt("store.saved",
                   static_cast<uint32_t>(Rig.Programs.size()));

  CacheStore After(Rig.DirName);
  EXPECT_EQ(Rig.entryBytes(After, Rig.Tech), Reference);
  EXPECT_EQ(Rig.served(After), Rig.Programs.size());
}

//===----------------------------------------------------------------------===//
// Many processes, one store directory
//===----------------------------------------------------------------------===//

// Four forked processes hammer one store directory — each with its own
// seeded fault schedule (EIO, short writes, torn renames) — while
// re-loading and re-saving the same two keys. Afterwards the store must
// recover to entries BYTE-IDENTICAL to a quiet single writer's, with no
// temp debris left behind.
TEST(CacheStressTest, MultiProcessHammerConvergesToReferenceBytes) {
  CrashRig Rig("stress_hammer.cache"); // For its key/suite plumbing.
  const std::string &DirName = Rig.DirName;
  TechniqueSpec SecondTech = loopTechnique(61);
  PreparedSuite SecondSuite =
      prepareSuite(Rig.Programs, Rig.MC, SecondTech, 42);
  std::vector<std::string> Reference = Rig.referenceBytes();
  std::vector<std::string> SecondReference =
      Rig.referenceBytes(SecondTech, SecondSuite);

  constexpr int NumChildren = 4;
  std::vector<pid_t> Children;
  for (int Child = 0; Child < NumChildren; ++Child) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: mild seeded chaos, distinct per child.
      FaultConfig C;
      C.Seed = 1000 + static_cast<uint64_t>(Child);
      C.EioP = 0.05;
      C.ShortWriteP = 0.05;
      C.TornRenameP = 0.05;
      FaultInjection::instance().configure(C);
      CacheStore Store(DirName);
      for (int Round = 0; Round < 8; ++Round) {
        // Alternate techniques so writers and readers collide across
        // children. Loads may miss (faults, quarantines, in-flight
        // writers) — they must just never crash or wedge.
        bool First = (Round + Child) % 2 == 0;
        const TechniqueSpec &T = First ? Rig.Tech : SecondTech;
        const PreparedSuite &S = First ? Rig.Suite : SecondSuite;
        if (Rig.served(Store, T) != Rig.Programs.size())
          Store.save(Rig.ProgramHashes, Rig.MC, T, 42, S);
      }
      ::_exit(0);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status));
    ASSERT_EQ(WEXITSTATUS(Status), 0) << "no child may crash or wedge";
  }

  // Recovery pass: one quiet load-through each. An entry the chaos left
  // torn gets quarantined and rebuilt here; a healthy one just hits.
  CacheStore Final(DirName);
  if (Rig.served(Final) != Rig.Programs.size())
    ASSERT_TRUE(
        Final.save(Rig.ProgramHashes, Rig.MC, Rig.Tech, 42, Rig.Suite));
  if (Rig.served(Final, SecondTech) != Rig.Programs.size())
    ASSERT_TRUE(
        Final.save(Rig.ProgramHashes, Rig.MC, SecondTech, 42, SecondSuite));

  // Byte-identity with the quiet single-writer reference: concurrency
  // and faults may cost misses, never artifact drift.
  EXPECT_EQ(Rig.entryBytes(Final, Rig.Tech), Reference);
  EXPECT_EQ(Rig.entryBytes(Final, SecondTech), SecondReference);

  // gc clears every trace of the chaos: quarantines and dead temps.
  Final.gc(/*MaxBytes=*/0);
  EXPECT_EQ(countMatching(Final.dir(), ".tmp."), 0u);
  EXPECT_EQ(countMatching(Final.dir(), ".quarantined-"), 0u);
  EXPECT_TRUE(fileExists(Rig.entryPath(Final, 0, Rig.Tech)))
      << "gc must not evict live entries";
}

//===----------------------------------------------------------------------===//
// Sharded drivers racing one cache dir under faults
//===----------------------------------------------------------------------===//

namespace {

SweepGrid stressGrid() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 60;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline(), TechniqueSpec::tuned(TC, TU)};
  G.Workloads = {{4, 20, 21, 16}, {5, 20, 22, 16}};
  return G;
}

/// Sweep-cell body for the sharded stress run: preparation goes through
/// the Lab's suite cache, i.e. through the shared PBT_CACHE_DIR store.
int stressSweepBody() {
  ExperimentHarness H("stress_shard_sweep", "sharded cache-race sweep",
                      "none");
  Lab &L = H.customLab(tinySuite(), MachineConfig::quadAsymmetric());
  SweepResult R = H.sweep(L, stressGrid());
  H.note("cells: " + std::to_string(R.Cells.size()));
  return H.finish();
}

int stressWholeBody() {
  ExperimentHarness H("stress_shard_whole", "sharded cache-race whole",
                      "none");
  H.note("whole-granularity body");
  return H.finish();
}

struct StressExp {
  const char *Name;
  ShardGranularity G;
  int (*Fn)();
};

const StressExp StressExps[] = {
    {"stress_shard_sweep", ShardGranularity::SweepCells, &stressSweepBody},
    {"stress_shard_whole", ShardGranularity::Whole, &stressWholeBody},
};

std::vector<RunSetEntry> stressRunSet() {
  std::vector<RunSetEntry> Set;
  for (const StressExp &E : StressExps)
    Set.push_back({E.Name, E.G});
  return Set;
}

/// One full shard pass of the stress registry into \p FabricDir. No
/// gtest assertions: this also runs in forked children. Returns false
/// when any body or file write failed (expected under armed faults).
bool runStressShard(uint32_t K, uint32_t N, const std::string &FabricDir) {
  ShardSpec Spec;
  Spec.Index = K;
  Spec.Count = N;
  ShardRuntime RT(ShardRuntime::Mode::Shard, Spec, FabricDir);
  RT.setRunSetHash(hashRunSet(stressRunSet()));
  std::map<std::string, uint32_t> Owner =
      assignWholeShards({"stress_shard_whole"}, N);
  ShardRuntime::install(&RT);
  bool Ok = true;
  for (const StressExp &E : StressExps) {
    if (E.G == ShardGranularity::Whole && Owner[E.Name] != K)
      continue;
    RT.beginExperiment(E.Name, E.G);
    int Code = 1;
    try {
      Code = E.Fn();
    } catch (...) {
      Code = 1;
    }
    RT.endExperiment(Code);
    Ok = Ok && Code == 0;
  }
  ShardRuntime::install(nullptr);
  return RT.writeManifest() && Ok;
}

} // namespace

// Four forked sharded drivers race one PBT_CACHE_DIR, each first under
// its own seeded fault schedule (EIO, short writes, torn renames — the
// chaos pass, outcome ignored), then with faults disarmed (the sign-off
// pass, which rewrites every one of the shard's files cleanly). The
// merged fabric must be byte-identical to a quiet single-process run
// against the same — by then scarred — cache directory: concurrency and
// fault degradation may cost cache misses, never artifact drift.
TEST(CacheStressTest, ShardedDriversRacingOneCacheMergeByteIdentical) {
  const std::string CacheDir = freshCacheDir("stress_shard.cache");
  const std::string Fabric = freshCacheDir("stress_shard.fabric");
  const std::string Out = freshCacheDir("stress_shard.merged");
  ::mkdir(Fabric.c_str(), 0755);
  ::mkdir(Out.c_str(), 0755);
  // Must precede any Lab construction in this process: the process-wide
  // store (CacheStore::fromEnv) latches PBT_CACHE_DIR on first use.
  ASSERT_EQ(::setenv("PBT_CACHE_DIR", CacheDir.c_str(), 1), 0);

  constexpr uint32_t N = 4;
  std::vector<pid_t> Children;
  for (uint32_t K = 1; K <= N; ++K) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      FaultConfig C;
      C.Seed = 2000 + static_cast<uint64_t>(K);
      C.EioP = 0.05;
      C.ShortWriteP = 0.05;
      C.TornRenameP = 0.05;
      FaultInjection::instance().configure(C);
      runStressShard(K, N, Fabric); // chaos pass: may fail or tear files
      FaultInjection::instance().reset();
      ::_exit(runStressShard(K, N, Fabric) ? 0 : 1);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status));
    ASSERT_EQ(WEXITSTATUS(Status), 0)
        << "every shard's quiet sign-off pass must succeed";
  }

  // Quiet single-process reference AFTER the race, against the same
  // cache dir the chaos scarred.
  std::map<std::string, std::string> Reference;
  for (const StressExp &E : StressExps) {
    ASSERT_EQ(E.Fn(), 0);
    std::string Path = std::string("BENCH_") + E.Name + ".json";
    ASSERT_TRUE(readFile(Path, Reference[E.Name]));
    std::remove(Path.c_str());
  }

  std::map<std::string, MergeExperimentInfo> Infos;
  for (const StressExp &E : StressExps)
    Infos[E.Name] = MergeExperimentInfo{E.G, E.Fn};
  MergeReport Report;
  std::string Err = mergeShards(
      Fabric, Out,
      [&Infos](const std::string &Name) -> const MergeExperimentInfo * {
        auto It = Infos.find(Name);
        return It == Infos.end() ? nullptr : &It->second;
      },
      &Report);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Report.ShardCount, N);
  for (const auto &KV : Reference) {
    std::string Merged;
    ASSERT_TRUE(readFile(Out + "/BENCH_" + KV.first + ".json", Merged));
    EXPECT_EQ(Merged, KV.second)
        << "BENCH_" << KV.first << ".json differs from single-process run";
  }

  removeTree(Fabric);
  removeTree(Out);
  ::unsetenv("PBT_CACHE_DIR");
}

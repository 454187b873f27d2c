//===- tests/shard_test.cpp - sharded fabric: partition, merge, identity --===//
//
// The sharded experiment fabric (exp/Shard.h): the seed-free partitioner
// (every unit on exactly one shard for any n, independent of registration
// order), bit-exact unit serialization, the end-to-end proof that merging
// n shards reproduces single-process artifacts byte for byte (including
// the n=1 identity), and the merge validator's distinct diagnostics for
// every way a fabric directory can be incomplete or corrupt.

#include "TestDirs.h"

#include "exp/Harness.h"
#include "exp/Lab.h"
#include "exp/Shard.h"
#include "exp/Sweep.h"
#include "support/Binary.h"
#include "support/Hashing.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <map>
#include <set>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace pbt;
using namespace pbt::exp;

namespace {

//===----------------------------------------------------------------------===//
// Filesystem helpers
//===----------------------------------------------------------------------===//

void removeTree(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return;
  while (const dirent *Entry = ::readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name == "." || Name == "..")
      continue;
    std::remove((Dir + "/" + Name).c_str());
  }
  ::closedir(D);
  ::rmdir(Dir.c_str());
}

/// A fresh (empty) scratch directory under the per-process test root
/// (tests/TestDirs.h), which is removed when the process exits.
std::string freshDir(const std::string &Name) {
  std::string Dir = pbt_test::testTmpRoot() + "/shardtest_" + Name;
  removeTree(Dir);
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

std::string slurp(const std::string &Path) {
  std::string Bytes;
  EXPECT_TRUE(readFile(Path, Bytes)) << "cannot read " << Path;
  return Bytes;
}

std::vector<std::string> listDir(const std::string &Dir) {
  std::vector<std::string> Names;
  DIR *D = ::opendir(Dir.c_str());
  EXPECT_NE(D, nullptr) << Dir;
  if (!D)
    return Names;
  while (const dirent *Entry = ::readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name != "." && Name != "..")
      Names.push_back(Name);
  }
  ::closedir(D);
  std::sort(Names.begin(), Names.end());
  return Names;
}

void copyDir(const std::string &Src, const std::string &Dst) {
  for (const std::string &Name : listDir(Src))
    ASSERT_TRUE(writeFileAtomic(Dst + "/" + Name, slurp(Src + "/" + Name)));
}

//===----------------------------------------------------------------------===//
// Demo experiments (one sweep-cell, one whole)
//===----------------------------------------------------------------------===//

std::vector<Program> demoPrograms() {
  Rng Gen(11);
  std::vector<Program> Programs;
  for (unsigned I = 0; I < 2; ++I) {
    BenchSpec Spec;
    Spec.Name = "shard" + std::to_string(I);
    Spec.TargetSeconds = 0.2 + 0.1 * static_cast<double>(Gen.next() % 4);
    Spec.Alternations = 1 + static_cast<unsigned>(Gen.next() % 20);
    Spec.ColdCodeInsts = 2000 + static_cast<unsigned>(Gen.next() % 8000);
    PhaseSpec Phase;
    Phase.Memory = (Gen.next() & 1) != 0;
    Phase.Share = 1.0;
    Phase.BodyInsts = 40 + static_cast<unsigned>(Gen.next() % 200);
    Spec.Phases.push_back(Phase);
    Programs.push_back(buildBenchmark(Spec));
  }
  return Programs;
}

TechniqueSpec demoTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

SweepGrid demoGrid() {
  SweepGrid G;
  G.Techniques = {TechniqueSpec::baseline(), demoTechnique()};
  G.Workloads = {{4, 20, 21, 16}, {6, 20, 22, 16}};
  G.TypingSeeds = {42, 43};
  return G;
}

/// Sweep-cell demo body: the shape of a real sweep_* experiment — all
/// output derived from one harness sweep, with a table and a note.
int shardSweepBody() {
  ExperimentHarness H("shard_demo", "sharded fabric demo sweep", "none");
  Lab &L = H.customLab(demoPrograms(), MachineConfig::quadAsymmetric());
  SweepResult R = H.sweep(L, demoGrid());
  Table T({"tech", "workload", "seed", "improv %"});
  for (const SweepCell &C : R.Cells)
    T.addRow({std::to_string(C.Technique), std::to_string(C.Workload),
              std::to_string(C.TypingSeed),
              Table::fmt(R.throughputImprovement(C))});
  H.table(T);
  H.note("cells: " + std::to_string(R.Cells.size()));
  return H.finish();
}

/// Whole-granularity demo body: no sweeps, so the shard that owns it
/// emits the full artifact and the merge byte-copies it.
int shardWholeBody() {
  ExperimentHarness H("shard_whole", "sharded fabric demo whole", "none");
  H.note("whole-granularity demo body");
  return H.finish();
}

struct DemoExp {
  const char *Name;
  ShardGranularity G;
  int (*Fn)();
};

const DemoExp Demos[] = {
    {"shard_demo", ShardGranularity::SweepCells, &shardSweepBody},
    {"shard_whole", ShardGranularity::Whole, &shardWholeBody},
};

std::vector<RunSetEntry> demoRunSet() {
  std::vector<RunSetEntry> Set;
  for (const DemoExp &E : Demos)
    Set.push_back({E.Name, E.G});
  return Set;
}

/// Runs shard K of N of the demo registry into \p Dir, exactly as
/// bench/driver does: install runtime, bracket each body, skip
/// non-owned whole experiments, sign off with the manifest.
void runShard(uint32_t K, uint32_t N, const std::string &Dir,
              uint64_t HashSalt = 0) {
  ShardSpec Spec;
  Spec.Index = K;
  Spec.Count = N;
  ShardRuntime RT(ShardRuntime::Mode::Shard, Spec, Dir);
  RT.setRunSetHash(hashRunSet(demoRunSet()) ^ HashSalt);
  std::vector<std::string> WholeNames;
  for (const DemoExp &E : Demos)
    if (E.G == ShardGranularity::Whole)
      WholeNames.push_back(E.Name);
  std::map<std::string, uint32_t> Owner = assignWholeShards(WholeNames, N);
  ShardRuntime::install(&RT);
  for (const DemoExp &E : Demos) {
    if (E.G == ShardGranularity::Whole && Owner[E.Name] != K)
      continue;
    RT.beginExperiment(E.Name, E.G);
    int Code = E.Fn();
    RT.endExperiment(Code);
    EXPECT_EQ(Code, 0) << E.Name << " on shard " << K << "/" << N;
  }
  ShardRuntime::install(nullptr);
  ASSERT_TRUE(RT.writeManifest());
}

/// Merges \p FabricDir into \p OutDir with the demo registry resolver.
std::string mergeDemo(const std::string &FabricDir, const std::string &OutDir,
                      MergeReport *Report = nullptr) {
  std::map<std::string, MergeExperimentInfo> Infos;
  for (const DemoExp &E : Demos)
    Infos[E.Name] = MergeExperimentInfo{E.G, E.Fn};
  return mergeShards(
      FabricDir, OutDir,
      [&Infos](const std::string &Name) -> const MergeExperimentInfo * {
        auto It = Infos.find(Name);
        return It == Infos.end() ? nullptr : &It->second;
      },
      Report);
}

/// Single-process reference artifacts of the demo registry, keyed by
/// experiment name (the bodies write into cwd; files are removed).
const std::map<std::string, std::string> &referenceArtifacts() {
  static std::map<std::string, std::string> Ref;
  if (Ref.empty())
    for (const DemoExp &E : Demos) {
      EXPECT_EQ(E.Fn(), 0);
      std::string Path = std::string("BENCH_") + E.Name + ".json";
      Ref[E.Name] = slurp(Path);
      std::remove(Path.c_str());
    }
  return Ref;
}

/// A complete, valid 2-shard fabric of the demo registry, built once
/// and copied by the diagnostics tests before tampering.
const std::string &fixtureFabric() {
  static std::string Dir;
  if (Dir.empty()) {
    Dir = freshDir("fixture2");
    runShard(1, 2, Dir);
    runShard(2, 2, Dir);
  }
  return Dir;
}

/// Copies the 2-shard fixture into a fresh dir named after the test.
std::string tamperCopy(const std::string &Name) {
  std::string Dst = freshDir("diag_" + Name);
  copyDir(fixtureFabric(), Dst);
  return Dst;
}

/// Asserts the merge of \p FabricDir fails with a diagnostic containing
/// \p Expect, and that no prior test produced the same diagnostic (the
/// "distinct diagnostics" contract — a silently wrong merge would be
/// indistinguishable without it).
void expectMergeDiagnostic(const std::string &FabricDir,
                           const std::string &Expect) {
  static std::set<std::string> Seen;
  std::string Out = freshDir("diag_out");
  std::string Err = mergeDemo(FabricDir, Out);
  ASSERT_FALSE(Err.empty()) << "merge unexpectedly succeeded for " << Expect;
  EXPECT_NE(Err.find(Expect), std::string::npos)
      << "diagnostic \"" << Err << "\" does not mention \"" << Expect << "\"";
  EXPECT_TRUE(Seen.insert(Err).second)
      << "diagnostic \"" << Err << "\" duplicates an earlier failure mode";
  removeTree(Out);
  removeTree(FabricDir);
}

/// Flips one byte of \p Path at \p Offset (from the end when negative).
void flipByte(const std::string &Path, long Offset) {
  std::string Bytes = slurp(Path);
  size_t At = Offset >= 0 ? static_cast<size_t>(Offset)
                          : Bytes.size() - static_cast<size_t>(-Offset);
  ASSERT_LT(At, Bytes.size());
  Bytes[At] = static_cast<char>(Bytes[At] ^ 0x5A);
  ASSERT_TRUE(writeFileAtomic(Path, Bytes));
}

} // namespace

//===----------------------------------------------------------------------===//
// ShardSpec parsing
//===----------------------------------------------------------------------===//

TEST(ShardSpecTest, ParsesValidSpecsAndFormatsLabel) {
  ShardSpec S;
  std::string Err;
  ASSERT_TRUE(ShardSpec::parse("1/1", S, Err)) << Err;
  EXPECT_EQ(S.Index, 1u);
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.label(), "1-of-1");
  ASSERT_TRUE(ShardSpec::parse("2/4", S, Err)) << Err;
  EXPECT_EQ(S.Index, 2u);
  EXPECT_EQ(S.Count, 4u);
  EXPECT_EQ(S.label(), "2-of-4");
  ASSERT_TRUE(ShardSpec::parse("8/8", S, Err)) << Err;
  EXPECT_EQ(S.Index, 8u);
  EXPECT_EQ(S.Count, 8u);
}

TEST(ShardSpecTest, RejectsMalformedSpecsWithDiagnostic) {
  for (const char *Bad : {"", "2", "2/", "/4", "a/b", "0/4", "5/4", "0/0",
                          "2/4x", "x2/4", "2//4", " 2/4", "-1/4",
                          "99999999999/4", "2/99999999999"}) {
    ShardSpec S;
    std::string Err;
    EXPECT_FALSE(ShardSpec::parse(Bad, S, Err)) << "accepted \"" << Bad << "\"";
    EXPECT_FALSE(Err.empty()) << "no diagnostic for \"" << Bad << "\"";
  }
}

// Leading zeros get their own diagnostic: "02/4" would otherwise name
// shard 2/4 under a second spelling.
TEST(ShardSpecTest, RejectsLeadingZerosWithDistinctDiagnostic) {
  for (const char *Bad : {"02/4", "2/04", "00/4", "01/01", "007/8"}) {
    ShardSpec S;
    std::string Err;
    EXPECT_FALSE(ShardSpec::parse(Bad, S, Err)) << "accepted \"" << Bad << "\"";
    EXPECT_NE(Err.find("leading zero"), std::string::npos)
        << "\"" << Bad << "\": " << Err;
  }
  // A lone zero is a number out of range, not a leading zero.
  ShardSpec S;
  std::string Err;
  EXPECT_FALSE(ShardSpec::parse("0/4", S, Err));
  EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
}

namespace {

/// Parses one mutant: an accepted spec must re-format as "Index/Count"
/// to exactly its input bytes, and a rejected one must say why.
void checkSpecMutant(const std::string &Text, uint32_t &Accepted,
                     uint32_t &Rejected) {
  ShardSpec S;
  std::string Err;
  if (ShardSpec::parse(Text, S, Err)) {
    ++Accepted;
    EXPECT_EQ(std::to_string(S.Index) + "/" + std::to_string(S.Count), Text)
        << "accepted spec does not round-trip";
    EXPECT_TRUE(S.Index >= 1 && S.Index <= S.Count) << Text;
  } else {
    ++Rejected;
    EXPECT_FALSE(Err.empty()) << "no diagnostic for \"" << Text << "\"";
  }
}

} // namespace

// Seeded mutations of valid specs — byte flips, replacements from the
// spec alphabet, every truncation, and splices of two specs — never
// yield an accepted spec that names a shard under another spelling, nor
// a silent rejection.
TEST(ShardSpecTest, MutatedSpecsRoundTripOrCarryDiagnostic) {
  const std::vector<std::string> Valid = {
      "1/1",    "2/4",     "8/8",       "3/17",
      "10/10",  "100/100", "123/4096",  "4294967295/4294967295"};
  const std::string Alphabet = "0123456789/+- x";
  Rng Gen(61);
  uint32_t Accepted = 0, Rejected = 0;
  for (uint32_t T = 0; T < 4000 && !::testing::Test::HasFailure(); ++T) {
    std::string Text = Valid[Gen.nextBelow(Valid.size())];
    uint64_t Flips = 1 + Gen.nextBelow(3);
    for (uint64_t F = 0; F < Flips; ++F) {
      char &C = Text[Gen.nextBelow(Text.size())];
      if (Gen.nextBelow(2) == 0)
        C = Alphabet[Gen.nextBelow(Alphabet.size())];
      else
        C = static_cast<char>(C ^ (1 + Gen.nextBelow(255)));
    }
    checkSpecMutant(Text, Accepted, Rejected);
  }
  for (const std::string &Text : Valid)
    for (size_t Len = 0; Len < Text.size(); ++Len)
      checkSpecMutant(Text.substr(0, Len), Accepted, Rejected);
  for (uint32_t T = 0; T < 4000 && !::testing::Test::HasFailure(); ++T) {
    const std::string &A = Valid[Gen.nextBelow(Valid.size())];
    const std::string &B = Valid[Gen.nextBelow(Valid.size())];
    checkSpecMutant(A.substr(0, Gen.nextBelow(A.size() + 1)) +
                        B.substr(Gen.nextBelow(B.size() + 1)),
                    Accepted, Rejected);
  }
  // Both outcomes must actually occur, or the loop proves nothing.
  EXPECT_GT(Accepted, 100u);
  EXPECT_GT(Rejected, 100u);
}

//===----------------------------------------------------------------------===//
// Partitioner properties
//===----------------------------------------------------------------------===//

// Every unit ordinal lands on exactly one shard for any n, and the
// round-robin keeps shard loads within one unit of each other.
TEST(ShardPartitionTest, EveryOrdinalOwnedByExactlyOneShard) {
  const size_t Ordinals = 1000;
  for (uint32_t N = 1; N <= 8; ++N) {
    std::vector<size_t> Owned(N + 1, 0);
    for (size_t Ordinal = 0; Ordinal < Ordinals; ++Ordinal) {
      uint32_t Owner = shardOf(Ordinal, N);
      ASSERT_GE(Owner, 1u);
      ASSERT_LE(Owner, N);
      ++Owned[Owner];
      // Exactly-once: ownership is a function, so it suffices that the
      // owner is unique and stable.
      EXPECT_EQ(Owner, shardOf(Ordinal, N));
    }
    size_t Total = 0;
    for (uint32_t K = 1; K <= N; ++K) {
      Total += Owned[K];
      EXPECT_LE(Ordinals / N, Owned[K]);
      EXPECT_LE(Owned[K], Ordinals / N + 1);
    }
    EXPECT_EQ(Total, Ordinals);
  }
}

// Whole-experiment assignment covers every name exactly once, balances
// within one, and is independent of the order names were registered in.
TEST(ShardPartitionTest, WholeAssignmentIsOrderIndependentAndCovering) {
  std::vector<std::string> Names;
  for (int I = 0; I < 17; ++I)
    Names.push_back("exp_" + std::string(1, static_cast<char>('a' + I)));
  for (uint32_t N = 1; N <= 8; ++N) {
    std::map<std::string, uint32_t> Sorted = assignWholeShards(Names, N);
    ASSERT_EQ(Sorted.size(), Names.size());
    std::vector<size_t> Load(N + 1, 0);
    for (const auto &KV : Sorted) {
      ASSERT_GE(KV.second, 1u);
      ASSERT_LE(KV.second, N);
      ++Load[KV.second];
    }
    for (uint32_t K = 1; K <= N; ++K)
      EXPECT_LE(Load[K], Names.size() / N + 1);
    // Registration order must not matter: reversed and shuffled name
    // lists produce the identical assignment.
    std::vector<std::string> Reversed(Names.rbegin(), Names.rend());
    EXPECT_EQ(assignWholeShards(Reversed, N), Sorted);
    std::vector<std::string> Shuffled = Names;
    Rng Gen(7 * N);
    for (size_t I = Shuffled.size(); I > 1; --I)
      std::swap(Shuffled[I - 1], Shuffled[Gen.next() % I]);
    EXPECT_EQ(assignWholeShards(Shuffled, N), Sorted);
    // Stability: rerunning yields the same map.
    EXPECT_EQ(assignWholeShards(Names, N), Sorted);
  }
}

// The sweep unit walker: unique stable ids in canonical batch order,
// baselines first, baseline-coincident cells folded into their baseline
// job (exactly as runSweep shares the replay).
TEST(ShardPartitionTest, SweepUnitsAreUniqueStableAndExactlyOnce) {
  SweepGrid G = demoGrid();
  SweepUnitList Units = enumerateSweepUnits(G);
  // 2 workload baselines + 2x2x2 cells of which the 4 baseline-technique
  // cells coincide with their baselines.
  ASSERT_EQ(Units.BaselineJobs, 2u);
  ASSERT_EQ(Units.Ids.size(), 6u);
  EXPECT_EQ(Units.Ids[0], "base/w0");
  EXPECT_EQ(Units.Ids[1], "base/w1");
  for (size_t I = Units.BaselineJobs; I < Units.Ids.size(); ++I)
    EXPECT_EQ(Units.Ids[I].compare(0, 7, "cell/t1"), 0) << Units.Ids[I];
  std::set<std::string> Unique(Units.Ids.begin(), Units.Ids.end());
  EXPECT_EQ(Unique.size(), Units.Ids.size());
  // Stable: a second enumeration is identical.
  EXPECT_EQ(enumerateSweepUnits(G).Ids, Units.Ids);
  // Exactly-once across the fabric for any n: the shards' owned sets
  // partition the unit list.
  for (uint32_t N = 1; N <= 8; ++N) {
    std::set<size_t> Covered;
    for (uint32_t K = 1; K <= N; ++K)
      for (size_t Ordinal = 0; Ordinal < Units.Ids.size(); ++Ordinal)
        if (shardOf(Ordinal, N) == K) {
          EXPECT_TRUE(Covered.insert(Ordinal).second);
        }
    EXPECT_EQ(Covered.size(), Units.Ids.size());
  }
}

//===----------------------------------------------------------------------===//
// Unit serialization
//===----------------------------------------------------------------------===//

// RunResults round-trip bit-exactly through the shard payload encoding:
// re-serializing the decoded value reproduces the original bytes.
TEST(ShardSerializationTest, RunResultRoundTripsBitExactly) {
  RunResult R;
  R.Horizon = 400.125;
  R.InstructionsRetired = 123456789012345ull;
  R.CompletedCount = 3;
  for (int I = 0; I < 3; ++I) {
    CompletedJob J;
    J.Bench = static_cast<uint32_t>(I);
    J.Slot = I - 1; // includes a negative slot
    J.Arrival = I * 0.1;
    J.Admitted = I * 0.1 + 1e-9;
    J.Completion = 1.0 / 3.0 * (I + 1);
    J.Isolated = I == 0 ? 0.0 : 5e-324; // denormal min
    J.Stats.InstsRetired = 7u + static_cast<uint64_t>(I);
    J.Stats.BlocksExecuted = 11;
    J.Stats.CyclesConsumed = 1e18;
    J.Stats.CpuSeconds = -0.0; // signed zero must survive
    J.Stats.CoreSwitches = 2;
    J.Stats.MarksFired = 3;
    J.Stats.MonitorSessions = 4;
    J.Stats.CounterWaits = 5;
    J.Stats.OverheadCycles = 0.1 + 0.2; // a value with no short decimal
    R.Completed.push_back(J);
  }
  R.TotalSwitches = 17;
  R.TotalMarks = 19;
  R.CounterWaits = 23;
  R.TotalOverheadCycles = 1.0 / 7.0;
  R.TotalCycles = 3.0e9;
  R.CoreBusy = {0.5, 0.25, 1.0 / 3.0, -0.0};

  BinaryWriter W;
  serializeRunResult(W, R);
  BinaryReader Reader(W.buffer());
  RunResult Decoded;
  ASSERT_TRUE(deserializeRunResult(Reader, Decoded));
  EXPECT_EQ(Reader.remaining(), 0u);
  BinaryWriter W2;
  serializeRunResult(W2, Decoded);
  EXPECT_EQ(W.buffer(), W2.buffer());

  // Truncation at any point is detected, never misread.
  std::string Half = W.buffer().substr(0, W.buffer().size() / 2);
  BinaryReader Truncated(Half);
  RunResult Junk;
  EXPECT_FALSE(deserializeRunResult(Truncated, Junk));
}

//===----------------------------------------------------------------------===//
// End-to-end: shard + merge == single process, byte for byte
//===----------------------------------------------------------------------===//

// The tentpole proof, in-process: for n = 1 (the merge-identity case),
// 2, and 4, running the demo registry sharded and merging the partials
// reproduces the single-process BENCH artifacts byte-identically.
TEST(ShardFabricTest, MergeReproducesSingleProcessArtifactsByteForByte) {
  const std::map<std::string, std::string> &Ref = referenceArtifacts();
  ASSERT_EQ(Ref.size(), 2u);
  for (uint32_t N : {1u, 2u, 4u}) {
    SCOPED_TRACE("fabric n=" + std::to_string(N));
    std::string Fabric = freshDir("fab" + std::to_string(N));
    for (uint32_t K = 1; K <= N; ++K)
      runShard(K, N, Fabric);
    std::string Out = freshDir("out" + std::to_string(N));
    MergeReport Report;
    std::string Err = mergeDemo(Fabric, Out, &Report);
    ASSERT_TRUE(Err.empty()) << Err;
    EXPECT_EQ(Report.ShardCount, N);
    EXPECT_EQ(Report.Copied, std::vector<std::string>{"shard_whole"});
    EXPECT_EQ(Report.Replayed, std::vector<std::string>{"shard_demo"});
    EXPECT_EQ(Report.Units, 6u);
    for (const auto &KV : Ref)
      EXPECT_EQ(slurp(Out + "/BENCH_" + KV.first + ".json"), KV.second)
          << "BENCH_" << KV.first << ".json differs from single-process run";
    EXPECT_FALSE(slurp(Out + "/BENCH_merge.json").empty());
    removeTree(Fabric);
    removeTree(Out);
  }
}

// A shard's partial artifact for a sweep-cell experiment carries the
// shard block and unit counts but none of the reconstructed output
// (tables, notes, cells) — those exist only after the merge.
TEST(ShardFabricTest, PartialArtifactHasShardBlockAndNoTables) {
  std::string Partial =
      slurp(fixtureFabric() + "/BENCH_shard_demo.shard-1-of-2.json");
  EXPECT_NE(Partial.find("\"shard\""), std::string::npos);
  EXPECT_NE(Partial.find("\"granularity\": \"sweep-cells\""),
            std::string::npos);
  EXPECT_NE(Partial.find("\"units_total\": 6"), std::string::npos);
  EXPECT_NE(Partial.find("pbt-bench-v7"), std::string::npos);
  EXPECT_EQ(Partial.find("\"tables\""), std::string::npos);
  EXPECT_EQ(Partial.find("\"notes\""), std::string::npos);
  // The whole-granularity artifact is complete on its owner shard (the
  // merge byte-copies it), so its notes ARE present.
  std::map<std::string, uint32_t> Owner =
      assignWholeShards({"shard_whole"}, 2);
  std::string Whole =
      slurp(fixtureFabric() + "/BENCH_shard_whole.shard-" +
            std::to_string(Owner["shard_whole"]) + "-of-2.json");
  EXPECT_NE(Whole.find("\"notes\""), std::string::npos);
  EXPECT_EQ(Whole.find("\"shard\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Merge validation: distinct diagnostics for every broken fabric
//===----------------------------------------------------------------------===//

TEST(ShardMergeDiagnosticsTest, EmptyDirectoryHasNoManifests) {
  expectMergeDiagnostic(freshDir("diag_empty"), "no shard manifests");
}

TEST(ShardMergeDiagnosticsTest, MissingShardManifest) {
  std::string Dir = tamperCopy("missing");
  std::remove((Dir + "/shard-2-of-2.manifest.pbs").c_str());
  expectMergeDiagnostic(Dir, "missing shard 2-of-2");
}

TEST(ShardMergeDiagnosticsTest, DuplicateShardManifest) {
  std::string Dir = tamperCopy("dup");
  ASSERT_TRUE(writeFileAtomic(Dir + "/shard-1-copy.manifest.pbs",
                              slurp(Dir + "/shard-1-of-2.manifest.pbs")));
  expectMergeDiagnostic(Dir, "duplicate shard 1-of-2");
}

TEST(ShardMergeDiagnosticsTest, MixedShardCounts) {
  std::string Dir = tamperCopy("mixedn");
  // A manifest from a 1-shard fabric of the same registry.
  std::string One = freshDir("diag_one");
  runShard(1, 1, One);
  ASSERT_TRUE(writeFileAtomic(Dir + "/shard-1-of-1.manifest.pbs",
                              slurp(One + "/shard-1-of-1.manifest.pbs")));
  removeTree(One);
  expectMergeDiagnostic(Dir, "shard count mismatch");
}

TEST(ShardMergeDiagnosticsTest, TruncatedManifest) {
  std::string Dir = tamperCopy("truncman");
  std::string Path = Dir + "/shard-1-of-2.manifest.pbs";
  std::string Bytes = slurp(Path);
  ASSERT_TRUE(writeFileAtomic(Path, Bytes.substr(0, Bytes.size() / 2)));
  expectMergeDiagnostic(Dir, "checksum mismatch (truncated or corrupt)");
}

TEST(ShardMergeDiagnosticsTest, CorruptManifestBytes) {
  std::string Dir = tamperCopy("corruptman");
  flipByte(Dir + "/shard-2-of-2.manifest.pbs", 12);
  // Same latch as truncation (the self-checksum catches both), but the
  // file name in the diagnostic pins which manifest is bad.
  std::string Out = freshDir("diag_out2");
  std::string Err = mergeDemo(Dir, Out);
  ASSERT_FALSE(Err.empty());
  EXPECT_NE(Err.find("shard-2-of-2.manifest.pbs"), std::string::npos) << Err;
  EXPECT_NE(Err.find("checksum mismatch"), std::string::npos) << Err;
  removeTree(Out);
  removeTree(Dir);
}

TEST(ShardMergeDiagnosticsTest, UnsupportedManifestVersion) {
  std::string Dir = tamperCopy("version");
  // Patch the version word (offset 4, after the 4-byte magic) and
  // recompute the self-checksum trailer so ONLY the version is wrong —
  // the mixed-schema failure mode, distinct from corruption.
  std::string Path = Dir + "/shard-1-of-2.manifest.pbs";
  std::string Bytes = slurp(Path);
  ASSERT_GT(Bytes.size(), 16u);
  Bytes[4] = 99;
  uint64_t Sum = hashBytes(Bytes.data(), Bytes.size() - 8);
  for (int I = 0; I < 8; ++I)
    Bytes[Bytes.size() - 8 + static_cast<size_t>(I)] =
        static_cast<char>((Sum >> (8 * I)) & 0xFF);
  ASSERT_TRUE(writeFileAtomic(Path, Bytes));
  expectMergeDiagnostic(Dir, "unsupported version 99");
}

TEST(ShardMergeDiagnosticsTest, MismatchedRunSets) {
  std::string Dir = freshDir("diag_runset");
  runShard(1, 2, Dir);
  runShard(2, 2, Dir, /*HashSalt=*/0xDEADBEEF);
  expectMergeDiagnostic(Dir, "run sets differ");
}

TEST(ShardMergeDiagnosticsTest, MissingCellsPartial) {
  std::string Dir = tamperCopy("nopartial");
  std::remove((Dir + "/BENCH_shard_demo.shard-1-of-2.cells.pbs").c_str());
  expectMergeDiagnostic(Dir, "missing partial");
}

TEST(ShardMergeDiagnosticsTest, TruncatedCellsPartial) {
  std::string Dir = tamperCopy("truncpartial");
  std::string Path = Dir + "/BENCH_shard_demo.shard-2-of-2.cells.pbs";
  std::string Bytes = slurp(Path);
  ASSERT_TRUE(writeFileAtomic(Path, Bytes.substr(0, Bytes.size() - 7)));
  expectMergeDiagnostic(Dir, "truncated partial");
}

TEST(ShardMergeDiagnosticsTest, CorruptCellsPartial) {
  std::string Dir = tamperCopy("corruptpartial");
  flipByte(Dir + "/BENCH_shard_demo.shard-1-of-2.cells.pbs", -3);
  expectMergeDiagnostic(Dir, "corrupt partial");
}

TEST(ShardMergeDiagnosticsTest, UnknownExperimentInManifest) {
  std::string Dir = tamperCopy("unknown");
  std::string Out = freshDir("diag_out3");
  std::string Err = mergeShards(
      Dir, Out, [](const std::string &) { return nullptr; }, nullptr);
  ASSERT_FALSE(Err.empty());
  EXPECT_NE(Err.find("unknown experiment"), std::string::npos) << Err;
  removeTree(Out);
  removeTree(Dir);
}

// Whole-granularity experiments go through the same resolver gate as
// sweep-cell ones: a merging binary that does not register the whole
// experiment must refuse rather than byte-copy an artifact it could
// never have produced.
TEST(ShardMergeDiagnosticsTest, WholeExperimentUnknownToMergingBinary) {
  std::string Dir = tamperCopy("unknownwhole");
  std::string Out = freshDir("diag_out4");
  std::map<std::string, MergeExperimentInfo> Infos;
  for (const DemoExp &E : Demos)
    if (E.G == ShardGranularity::SweepCells)
      Infos[E.Name] = MergeExperimentInfo{E.G, E.Fn};
  std::string Err = mergeShards(
      Dir, Out,
      [&Infos](const std::string &Name) -> const MergeExperimentInfo * {
        auto It = Infos.find(Name);
        return It == Infos.end() ? nullptr : &It->second;
      },
      nullptr);
  ASSERT_FALSE(Err.empty());
  EXPECT_NE(Err.find("unknown experiment shard_whole"), std::string::npos)
      << Err;
  removeTree(Out);
  removeTree(Dir);
}

// ...and a binary that registers the experiment under the OTHER
// granularity gets its own diagnostic (distinct from the cross-manifest
// "granularity mismatch" one).
TEST(ShardMergeDiagnosticsTest, GranularityDisagreementWithBinary) {
  std::string Dir = tamperCopy("graindisagree");
  std::string Out = freshDir("diag_out5");
  std::map<std::string, MergeExperimentInfo> Infos;
  for (const DemoExp &E : Demos)
    Infos[E.Name] = MergeExperimentInfo{E.G, E.Fn};
  Infos["shard_whole"].G = ShardGranularity::SweepCells;
  std::string Err = mergeShards(
      Dir, Out,
      [&Infos](const std::string &Name) -> const MergeExperimentInfo * {
        auto It = Infos.find(Name);
        return It == Infos.end() ? nullptr : &It->second;
      },
      nullptr);
  ASSERT_FALSE(Err.empty());
  EXPECT_NE(Err.find("granularity disagreement for shard_whole"),
            std::string::npos)
      << Err;
  removeTree(Out);
  removeTree(Dir);
}

TEST(ShardMergeDiagnosticsTest, FailedExperimentOnShard) {
  std::string Dir = freshDir("diag_failed");
  ShardSpec Spec; // 1/1
  ShardRuntime RT(ShardRuntime::Mode::Shard, Spec, Dir);
  RT.setRunSetHash(hashRunSet({{"shard_whole", ShardGranularity::Whole}}));
  ShardRuntime::install(&RT);
  RT.beginExperiment("shard_whole", ShardGranularity::Whole);
  EXPECT_EQ(shardWholeBody(), 0);
  RT.endExperiment(1); // the body "failed" after writing its artifact
  ShardRuntime::install(nullptr);
  ASSERT_TRUE(RT.writeManifest());
  expectMergeDiagnostic(Dir, "failed on shard");
}

//===----------------------------------------------------------------------===//
// Seeded mutation of the shard manifest (.pbs) framing
//===----------------------------------------------------------------------===//

namespace {

/// Overwrites \p Path in place, without writeFileAtomic's temp file and
/// rename: mutants are throwaway, and thousands of inode creations
/// would dominate.
void writePlain(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  ASSERT_EQ(std::fclose(F), 0);
}

/// Replaces the 8-byte self-checksum trailer so the mutant reaches the
/// decoder instead of the checksum latch. \p Body excludes any trailer.
std::string withTrailer(std::string Body) {
  uint64_t Sum = hashBytes(Body.data(), Body.size());
  for (int I = 0; I < 8; ++I)
    Body.push_back(static_cast<char>((Sum >> (8 * I)) & 0xFF));
  return Body;
}

/// A working copy of the 2-shard fixture whose manifests are mutated in
/// place, one mutant at a time. Every mutant must either be refused with
/// a diagnostic naming the mutated manifest, or merge into experiment
/// artifacts byte-identical to the unmutated merge. BENCH_merge.json is
/// not compared: it reports the manifests' own sketch numbers, so a
/// re-checksummed change there is data, not damage.
struct ManifestMutationRig {
  std::string Dir = freshDir("mutation_fabric");
  std::string Out = freshDir("mutation_out");
  const std::vector<std::string> Manifests = {"shard-1-of-2.manifest.pbs",
                                              "shard-2-of-2.manifest.pbs"};
  std::map<std::string, std::string> Good;     ///< Manifest -> bytes.
  std::map<std::string, std::string> Expected; ///< Merged artifacts.
  size_t Refused = 0;
  size_t Merged = 0;
  std::string Dirty; ///< The manifest currently holding a mutant.

  ManifestMutationRig() {
    copyDir(fixtureFabric(), Dir);
    for (const std::string &M : Manifests)
      Good[M] = slurp(Dir + "/" + M);
    std::string Err = mergeDemo(Dir, Out);
    EXPECT_TRUE(Err.empty()) << Err;
    for (const DemoExp &E : Demos) {
      std::string Name = std::string("BENCH_") + E.Name + ".json";
      Expected[Name] = slurp(Out + "/" + Name);
    }
  }
  ~ManifestMutationRig() {
    removeTree(Dir);
    removeTree(Out);
  }

  /// Merges with \p Mutant in place of manifest \p File (the other
  /// manifest holds its good bytes) and checks the outcome.
  void check(const std::string &File, const std::string &Mutant,
             const std::string &What) {
    if (!Dirty.empty() && Dirty != File)
      writePlain(Dir + "/" + Dirty, Good[Dirty]);
    Dirty = File;
    writePlain(Dir + "/" + File, Mutant);
    for (const auto &KV : Expected)
      std::remove((Out + "/" + KV.first).c_str());
    std::string Err = mergeDemo(Dir, Out);
    if (!Err.empty()) {
      ++Refused;
      EXPECT_NE(Err.find(File), std::string::npos)
          << What << ": diagnostic does not name " << File << ": " << Err;
    } else {
      ++Merged;
      for (const auto &KV : Expected)
        EXPECT_EQ(slurp(Out + "/" + KV.first), KV.second)
            << What << ": accepted mutant changed " << KV.first;
    }
  }
};

} // namespace

// Single-byte flips, raw (the self-checksum must refuse every one) and
// re-checksummed (the decoder and the merge's cross-checks must).
TEST(ShardManifestMutationTest, FlipsAreRefusedOrHarmless) {
  ManifestMutationRig Rig;
  Rng Gen(0x5EED1);
  for (int I = 0; I < 120; ++I) {
    const std::string &File = Rig.Manifests[static_cast<size_t>(I) % 2];
    const std::string &Good = Rig.Good[File];
    size_t At = Gen.nextBelow(Good.size());
    std::string Mutant = Good;
    Mutant[At] = static_cast<char>(Mutant[At] ^ (1 + Gen.nextBelow(255)));
    size_t RefusedBefore = Rig.Refused;
    Rig.check(File, Mutant, "raw flip at " + std::to_string(At));
    EXPECT_EQ(Rig.Refused, RefusedBefore + 1)
        << "raw flip at " << At << " escaped the checksum";

    size_t Body = Good.size() - 8;
    At = Gen.nextBelow(Body);
    Mutant = Good.substr(0, Body);
    Mutant[At] = static_cast<char>(Mutant[At] ^ (1 + Gen.nextBelow(255)));
    Rig.check(File, withTrailer(Mutant),
              "re-checksummed flip at " + std::to_string(At));
  }
  // Both outcomes occur: header and entry fields are refused, sketch
  // payload bytes merge (and leave the experiment artifacts alone).
  EXPECT_GT(Rig.Refused, 120u);
  EXPECT_GT(Rig.Merged, 0u);
}

// Every truncation of every manifest: raw cuts fail the checksum, and
// cuts given a fresh trailer must never decode as a whole manifest.
TEST(ShardManifestMutationTest, EveryTruncationIsRefused) {
  ManifestMutationRig Rig;
  for (const std::string &File : Rig.Manifests) {
    const std::string &Good = Rig.Good[File];
    for (size_t Keep = 0; Keep < Good.size(); ++Keep) {
      Rig.check(File, Good.substr(0, Keep),
                "raw truncation to " + std::to_string(Keep));
      if (Keep < Good.size() - 8)
        Rig.check(File, withTrailer(Good.substr(0, Keep)),
                  "re-checksummed truncation to " + std::to_string(Keep));
    }
  }
  EXPECT_EQ(Rig.Merged, 0u);
}

// Splices: a prefix of one manifest joined to a suffix of another (or of
// itself), re-checksummed. Catches decoders that accept a record
// boundary in the wrong place, and trailing bytes.
TEST(ShardManifestMutationTest, SplicesAreRefusedOrHarmless) {
  ManifestMutationRig Rig;
  Rng Gen(0x5EED2);
  for (int I = 0; I < 200; ++I) {
    const std::string &File = Rig.Manifests[Gen.nextBelow(2)];
    const std::string &Donor = Rig.Good[Rig.Manifests[Gen.nextBelow(2)]];
    std::string Head = Rig.Good[File].substr(0, Rig.Good[File].size() - 8);
    std::string Tail = Donor.substr(0, Donor.size() - 8);
    size_t Cut = Gen.nextBelow(Head.size() + 1);
    size_t From = Gen.nextBelow(Tail.size() + 1);
    Rig.check(File, withTrailer(Head.substr(0, Cut) + Tail.substr(From)),
              "splice " + std::to_string(Cut) + "+" + std::to_string(From));
  }
  // Appending bytes after an intact manifest is refused too.
  for (const std::string &File : Rig.Manifests) {
    const std::string &Good = Rig.Good[File];
    size_t MergedBefore = Rig.Merged;
    Rig.check(File, withTrailer(Good.substr(0, Good.size() - 8) + "x"),
              "trailing byte");
    EXPECT_EQ(Rig.Merged, MergedBefore) << "trailing byte accepted";
  }
  EXPECT_GT(Rig.Refused, 0u);
}

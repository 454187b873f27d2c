//===- tests/program_sharing_test.cpp - one program IR per lab ------------===//
//
// Every prepared image aliases its program in the lab's ProgramSet —
// whether the suite was freshly prepared, loaded from the store,
// assembled per program after a manifest miss, or served from memory —
// and the set's memoized content hashes equal the standalone ones. A
// suite keeps the set alive after its lab is gone, and the shared-set
// preparation path produces the same artifacts as the by-reference one.
//
//===----------------------------------------------------------------------===//

#include "RunIdentity.h"
#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/Lab.h"
#include "ir/ProgramSet.h"
#include "sim/CostModel.h"
#include "sim/FlatImage.h"
#include "support/Binary.h"
#include "workload/Benchmarks.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::testCacheDir;

namespace {

std::vector<Program> namedSuite(std::initializer_list<const char *> Names) {
  std::vector<BenchSpec> Specs = specSuite();
  std::vector<Program> Programs;
  for (const char *Name : Names)
    for (const BenchSpec &S : Specs)
      if (S.Name == Name)
        Programs.push_back(buildBenchmark(S));
  return Programs;
}

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 45;
  return TechniqueSpec::tuned(TC, TunerConfig());
}

/// Every image, and the image under every flat image, reads the lab's
/// own program objects: no copies.
void expectAliasesLab(const PreparedSuite &Suite, const Lab &L,
                      const char *How) {
  ASSERT_EQ(Suite.Images.size(), L.programs().size()) << How;
  for (size_t I = 0; I < Suite.Images.size(); ++I) {
    EXPECT_EQ(&Suite.Images[I]->program(), &L.programs()[I])
        << How << ": program " << I;
    EXPECT_EQ(&Suite.Flats[I]->program(), Suite.Images[I].get())
        << How << ": program " << I;
  }
}

/// A lab over \p Programs whose cache uses \p Store (or none).
std::unique_ptr<Lab> labWith(std::vector<Program> Programs,
                             std::shared_ptr<CacheStore> Store) {
  auto L = std::make_unique<Lab>(std::move(Programs),
                                 MachineConfig::quadAsymmetric());
  L->cache().setStore(std::move(Store));
  return L;
}

/// Field-exact bytes of one prepared program: marks, type count, cost
/// tables and the flat image.
std::string programBytes(const PreparedSuite &S, size_t I) {
  BinaryWriter W;
  const InstrumentedProgram &Img = *S.Images[I];
  W.str(Img.program().Name);
  W.u32(static_cast<uint32_t>(Img.marks().size()));
  for (const PhaseMark &M : Img.marks()) {
    W.u32(M.Proc);
    W.u32(M.Block);
    W.u32(M.SuccIndex);
    W.u8(static_cast<uint8_t>(M.Point));
    W.u32(M.PhaseType);
  }
  W.u32(Img.numTypes());
  S.Costs[I]->serializeTables(W);
  S.Flats[I]->serialize(W);
  return W.buffer();
}

} // namespace

TEST(ProgramSharing, FreshAndMemoryHitSuitesAliasTheLabsPrograms) {
  auto L = labWith(namedSuite({"164.gzip", "179.art", "473.astar"}), nullptr);
  PreparedSuite Fresh = L->suite(loopTechnique());
  EXPECT_EQ(L->cache().prepared(), 1u);
  expectAliasesLab(Fresh, *L, "fresh");

  PreparedSuite Hit = L->suite(loopTechnique());
  EXPECT_EQ(L->cache().hits(), 1u);
  expectAliasesLab(Hit, *L, "memory hit");

  PreparedSuite Base = L->suite(TechniqueSpec::baseline());
  expectAliasesLab(Base, *L, "fresh baseline");
}

TEST(ProgramSharing, StoreLoadedAndIncrementalSuitesAliasTheLabsPrograms) {
  auto Store = std::make_shared<CacheStore>(testCacheDir("sharing.cache"));
  std::vector<Program> Programs =
      namedSuite({"164.gzip", "179.art", "181.mcf", "473.astar"});

  // Fill the store from one lab over the first three programs.
  auto Filler = labWith({Programs[0], Programs[1], Programs[2]}, Store);
  Filler->suite(loopTechnique());
  ASSERT_EQ(Filler->cache().prepared(), 1u);

  // A second lab over the same set: a whole-suite (manifest) hit.
  auto Loaded = labWith({Programs[0], Programs[1], Programs[2]}, Store);
  PreparedSuite FromStore = Loaded->suite(loopTechnique());
  EXPECT_EQ(Loaded->cache().storeHits(), 1u);
  EXPECT_EQ(Loaded->cache().preparedPrograms(), 0u);
  expectAliasesLab(FromStore, *Loaded, "store-loaded");

  // A different set (manifest miss): two programs come from their prog
  // entries, the new one is prepared straight from the set.
  auto Grown = labWith({Programs[2], Programs[3], Programs[0]}, Store);
  PreparedSuite Incremental = Grown->suite(loopTechnique());
  EXPECT_EQ(Grown->cache().programStoreHits(), 2u);
  EXPECT_EQ(Grown->cache().preparedPrograms(), 1u);
  expectAliasesLab(Incremental, *Grown, "incremental");
}

TEST(ProgramSharing, DefaultLabsShareOneProgramSet) {
  Lab A;
  Lab B(MachineConfig::threeCore());
  EXPECT_EQ(A.programSet().get(), B.programSet().get());
  EXPECT_EQ(&A.programs(), &B.programs());
  EXPECT_EQ(A.programs().size(), specSuite().size());
}

TEST(ProgramSharing, SetHashesMatchStandaloneContentHashes) {
  auto Set = std::make_shared<const ProgramSet>(
      namedSuite({"164.gzip", "179.art", "473.astar"}));
  // First use from several threads at once: one computation, one answer.
  std::vector<uint64_t> Seen(4);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Seen.size(); ++T)
    Threads.emplace_back([&, T] { Seen[T] = Set->hash(); });
  for (std::thread &T : Threads)
    T.join();
  for (uint64_t H : Seen)
    EXPECT_EQ(H, contentHash(Set->programs()));
  std::vector<uint64_t> Expected;
  for (const Program &Prog : Set->programs())
    Expected.push_back(contentHash(Prog));
  EXPECT_EQ(Set->programHashes(), Expected);
  EXPECT_EQ(&Set->programHashes(), &Set->programHashes()); // Memoized.
  EXPECT_NE(Set->hash(), Set->programHashes()[0]);
}

// An image keeps the whole set alive: a suite taken from a lab replays
// bit-identically after the lab (and its cache) are destroyed. Under
// the sanitizer jobs this also proves no image reads freed IR.
TEST(ProgramSharing, SuiteOutlivesItsLab) {
  auto L = labWith(namedSuite({"164.gzip", "179.art", "473.astar"}), nullptr);
  PreparedSuite Suite = L->suite(loopTechnique());
  std::vector<double> Iso = L->isolated();
  MachineConfig MC = L->machine();
  SimConfig Sim = L->sim();
  Workload W = L->workload(4, 11);
  std::weak_ptr<const ProgramSet> Set = L->programSet();

  RunResult WhileAlive = runWorkload(Suite, W, MC, Sim, 20, Iso);
  L.reset();
  EXPECT_FALSE(Set.expired()) << "the suite's images hold the set";
  RunResult AfterLab = runWorkload(Suite, W, MC, Sim, 20, Iso);
  expectRunsIdentical(WhileAlive, AfterLab);
  EXPECT_GT(AfterLab.Completed.size(), 0u);

  Suite = PreparedSuite();
  EXPECT_TRUE(Set.expired()) << "nothing else holds the set";
}

// The shared-set and by-reference preparation paths are the same
// pipeline; only program ownership differs. Every paper-suite program's
// marks, cost tables and flat image must match byte for byte.
TEST(ProgramSharing, SharedAndByReferencePreparationAgree) {
  auto Set = std::make_shared<const ProgramSet>(buildSuite());
  MachineConfig MC = MachineConfig::quadAsymmetric();
  TechniqueSpec Static = loopTechnique();
  Static.UseStaticTyping = true;
  TechniqueSpec Err = loopTechnique();
  Err.TypingError = 0.1;
  for (const TechniqueSpec &Tech :
       {TechniqueSpec::baseline(), loopTechnique(), Static, Err}) {
    PreparedSuite Shared = prepareSuite(Set, MC, Tech, 42);
    PreparedSuite ByRef = prepareSuite(Set->programs(), MC, Tech, 42);
    ASSERT_EQ(Shared.Images.size(), Set->size());
    ASSERT_EQ(ByRef.Images.size(), Set->size());
    EXPECT_EQ(Shared.Names, ByRef.Names);
    for (size_t I = 0; I < Set->size(); ++I) {
      EXPECT_EQ(&Shared.Images[I]->program(), &(*Set)[I]);
      EXPECT_NE(&ByRef.Images[I]->program(), &(*Set)[I]);
      EXPECT_EQ(programBytes(Shared, I), programBytes(ByRef, I))
          << Tech.label() << " program " << (*Set)[I].Name;
    }
  }
}

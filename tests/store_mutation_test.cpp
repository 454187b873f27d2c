//===- tests/store_mutation_test.cpp - pbt-prog-v3 decoder robustness -----===//
//
// A seeded mutation loop over `pbt-prog-v3` store entries: byte flips,
// truncations, and splices of another entry's header or payload. Every
// mutated entry must end in a miss, quarantined under the reason the
// format assigns to that damage, without crashing (the sanitizer jobs
// run this suite). Mutations re-checksummed past the header reach the
// payload decoder itself. Alongside: the proof that a store-served
// suite equals prepareSuite whatever the thread count that decodes it.

#include "TestDirs.h"

#include "exp/CacheStore.h"
#include "exp/SuiteCache.h"
#include "support/Binary.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <vector>

using namespace pbt;
using namespace pbt::exp;
using pbt_test::testCacheDir;

namespace {

constexpr size_t HeaderBytes = 64;
constexpr size_t PayloadSizeAt = 48; ///< Header offset of the length.
constexpr size_t ChecksumAt = 56;    ///< Header offset of the checksum.

std::vector<Program> namedSuite(std::initializer_list<const char *> Names) {
  auto Specs = specSuite();
  std::vector<Program> Programs;
  for (const char *Name : Names)
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

/// Plain (non-durable) write: the mutation loop rewrites one entry
/// hundreds of times and needs no crash safety.
void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_TRUE(F != nullptr) << Path;
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::fclose(F);
}

void putU64(std::string &Bytes, size_t At, uint64_t Value) {
  for (int Byte = 0; Byte < 8; ++Byte)
    Bytes[At + Byte] = static_cast<char>((Value >> (8 * Byte)) & 0xFF);
}

/// Patches the header's payload length and checksum to match the bytes,
/// so the mutation gets past the header into the payload decoder.
std::string rechecksum(std::string Bytes) {
  putU64(Bytes, PayloadSizeAt, Bytes.size() - HeaderBytes);
  putU64(Bytes, ChecksumAt,
         CacheStore::checksum(Bytes.data() + HeaderBytes,
                              Bytes.size() - HeaderBytes));
  return Bytes;
}

/// The quarantine reason a single flipped byte at \p Offset must earn:
/// each header field has its own check, and any payload flip breaks the
/// checksum.
const char *flipReason(size_t Offset) {
  if (Offset < 4)
    return "magic";
  if (Offset < 8)
    return "version";
  if (Offset < PayloadSizeAt)
    return "key";
  if (Offset < ChecksumAt)
    return "truncated";
  return "checksum";
}

/// The quarantine reason for an entry cut down to \p Size bytes.
const char *truncationReason(size_t Size) {
  if (Size < 4)
    return "magic";
  if (Size < 8)
    return "version";
  return "truncated";
}

/// Two programs of different shapes saved under two techniques, so the
/// store holds four prog entries to mutate and splice.
struct MutationRig {
  explicit MutationRig(const std::string &DirName)
      : Store(testCacheDir(DirName)),
        Set(std::make_shared<const ProgramSet>(
            namedSuite({"164.gzip", "179.art"}))),
        Programs(Set->programs()),
        First(std::make_shared<const ProgramSet>(
            std::vector<Program>{Programs[0]})),
        MC(MachineConfig::quadAsymmetric()), Tech(loopTechnique(45)),
        OtherTech(loopTechnique(15)),
        Hashes(Set->programHashes()) {
    EXPECT_TRUE(Store.save(Hashes, MC, Tech, 42,
                           prepareSuite(Programs, MC, Tech, 42)));
    EXPECT_TRUE(Store.save(Hashes, MC, OtherTech, 42,
                           prepareSuite(Programs, MC, OtherTech, 42)));
  }

  std::string progPath(size_t I, const TechniqueSpec &T) const {
    return Store.progPathFor(CacheStore::progKey(Hashes[I], MC, T, 42));
  }
  std::string bytes(size_t I, const TechniqueSpec &T) const {
    std::string Out;
    EXPECT_TRUE(readFile(progPath(I, T), Out));
    return Out;
  }

  /// Loads program 0 under Tech, through a one-program set or (when
  /// \p WholeSuite) as part of the two-program set's parallel batch
  /// load. True when it was served.
  bool loadFirst(bool WholeSuite) {
    return Store.load(WholeSuite ? Set : First, MC, Tech, 42)[0].Image !=
           nullptr;
  }

  CacheStore Store;
  std::shared_ptr<const ProgramSet> Set;
  const std::vector<Program> &Programs;
  std::shared_ptr<const ProgramSet> First; ///< Program 0 alone.
  MachineConfig MC;
  TechniqueSpec Tech;
  TechniqueSpec OtherTech;
  std::vector<uint64_t> Hashes;
};

/// Plants \p Mutant at program 0's entry and requires a miss, exactly
/// one new reject and quarantine, under \p Reason, with the entry moved
/// aside; then restores the pristine entry.
void expectQuarantined(MutationRig &Rig, const std::string &Mutant,
                       const char *Reason, bool WholeSuite,
                       const std::string &Label) {
  SCOPED_TRACE(Label + " (expect " + Reason + ")");
  const std::string Path = Rig.progPath(0, Rig.Tech);
  const std::string Good = Rig.bytes(0, Rig.Tech);
  uint64_t Rejects = Rig.Store.rejects();
  uint64_t Quarantines = Rig.Store.quarantines();
  writeBytes(Path, Mutant);

  EXPECT_FALSE(Rig.loadFirst(WholeSuite));
  EXPECT_EQ(Rig.Store.rejects(), Rejects + 1);
  EXPECT_EQ(Rig.Store.quarantines(), Quarantines + 1);
  EXPECT_FALSE(fileExists(Path));
  std::string Aside = Rig.Store.progQuarantinePathFor(
      CacheStore::progKey(Rig.Hashes[0], Rig.MC, Rig.Tech, 42), Reason);
  EXPECT_TRUE(fileExists(Aside));

  std::remove(Aside.c_str());
  writeBytes(Path, Good);
}

} // namespace

//===----------------------------------------------------------------------===//
// Damage the header and checksum catch
//===----------------------------------------------------------------------===//

TEST(StoreMutationTest, FlippedBytesQuarantineUnderTheirReason) {
  MutationRig Rig("mutation_flips.cache");
  const std::string Good = Rig.bytes(0, Rig.Tech);
  ASSERT_GT(Good.size(), HeaderBytes);
  ASSERT_TRUE(Rig.loadFirst(false));

  Rng Gen(0x5EED0001);
  // Every header byte once, then random payload bytes.
  std::vector<size_t> Offsets;
  for (size_t At = 0; At < HeaderBytes; ++At)
    Offsets.push_back(At);
  for (int I = 0; I < 64; ++I)
    Offsets.push_back(HeaderBytes + Gen.nextBelow(Good.size() - HeaderBytes));
  for (size_t I = 0; I < Offsets.size(); ++I) {
    std::string Mutant = Good;
    Mutant[Offsets[I]] ^= static_cast<char>(1 + Gen.nextBelow(255));
    expectQuarantined(Rig, Mutant, flipReason(Offsets[I]), I % 2 == 1,
                      "flip at " + std::to_string(Offsets[I]));
  }
  EXPECT_TRUE(Rig.loadFirst(true)) << "pristine entry serves again";
}

TEST(StoreMutationTest, TruncationsQuarantineUnderTheirReason) {
  MutationRig Rig("mutation_truncations.cache");
  const std::string Good = Rig.bytes(0, Rig.Tech);
  Rng Gen(0x5EED0002);
  std::vector<size_t> Sizes = {0, 3, 4, 7, 8, HeaderBytes - 1, HeaderBytes,
                               Good.size() - 1};
  for (int I = 0; I < 24; ++I)
    Sizes.push_back(Gen.nextBelow(Good.size()));
  for (size_t I = 0; I < Sizes.size(); ++I)
    expectQuarantined(Rig, Good.substr(0, Sizes[I]),
                      truncationReason(Sizes[I]), I % 2 == 0,
                      "truncated to " + std::to_string(Sizes[I]));
  // Padding is damage too: the recorded length no longer matches.
  expectQuarantined(Rig, Good + "pad", "truncated", false, "padded");
}

TEST(StoreMutationTest, SplicedEntriesQuarantineUnderTheirReason) {
  MutationRig Rig("mutation_splices.cache");
  const std::string Good = Rig.bytes(0, Rig.Tech);
  const std::string Donors[] = {Rig.bytes(1, Rig.Tech),
                                Rig.bytes(0, Rig.OtherTech),
                                Rig.bytes(1, Rig.OtherTech)};
  for (size_t D = 0; D < 3; ++D) {
    const std::string &Donor = Donors[D];
    std::string Tag = "donor " + std::to_string(D);
    ASSERT_NE(Donor.substr(HeaderBytes), Good.substr(HeaderBytes)) << Tag;
    // A whole entry filed under the wrong key, and another entry's
    // header over this payload: the key components disagree.
    expectQuarantined(Rig, Donor, "key", D % 2 == 0, Tag + " whole");
    expectQuarantined(Rig,
                      Donor.substr(0, HeaderBytes) + Good.substr(HeaderBytes),
                      "key", D % 2 == 1, Tag + " header");
    // This header over another payload: its length or checksum is off.
    std::string Payload = Donor.substr(HeaderBytes);
    const char *Why = Payload.size() + HeaderBytes == Good.size()
                          ? "checksum"
                          : "truncated";
    expectQuarantined(Rig, Good.substr(0, HeaderBytes) + Payload, Why,
                      D % 2 == 0, Tag + " payload");
  }
  // Program 1's payload under program 0's header, re-checksummed: the
  // header passes, and the decoder must notice the marks and cost
  // tables describe another program.
  std::string Foreign =
      Good.substr(0, HeaderBytes) + Donors[0].substr(HeaderBytes);
  expectQuarantined(Rig, rechecksum(Foreign), "payload", true,
                    "foreign payload re-checksummed");
}

// A `pbt-prog-v2` entry, checksummed with FNV-1a as that format was,
// planted where the current key points is rejected as "version" before
// its checksum is looked at: an older store is never misread, and
// cleanMismatchedVersions deletes such entries wherever they sit.
TEST(StoreMutationTest, PreviousFormatEntryRejectedAsVersion) {
  MutationRig Rig("mutation_v2.cache");
  std::string Old = Rig.bytes(0, Rig.Tech);
  ASSERT_GT(Old.size(), HeaderBytes);
  for (int Byte = 0; Byte < 4; ++Byte) // Format version 2 (LE).
    Old[4 + Byte] = static_cast<char>(Byte == 0 ? 2 : 0);
  uint64_t Fnv = 0xCBF29CE484222325ULL;
  for (size_t I = HeaderBytes; I < Old.size(); ++I) {
    Fnv ^= static_cast<unsigned char>(Old[I]);
    Fnv *= 0x100000001B3ULL;
  }
  putU64(Old, ChecksumAt, Fnv);
  expectQuarantined(Rig, Old, "version", false, "pbt-prog-v2 entry");
  expectQuarantined(Rig, Old, "version", true, "pbt-prog-v2 entry, batch");

  writeBytes(Rig.Store.dir() + "/prog-00000000000000f2.pbt", Old);
  EXPECT_EQ(Rig.Store.cleanMismatchedVersions(), 1u);
  EXPECT_FALSE(fileExists(Rig.Store.dir() + "/prog-00000000000000f2.pbt"));
  EXPECT_TRUE(Rig.loadFirst(true));
}

//===----------------------------------------------------------------------===//
// Damage only the payload decoder can catch
//===----------------------------------------------------------------------===//

// Re-checksummed truncations always cut into the cost tables at the end
// of the payload: the decoder must reject every one.
TEST(StoreMutationTest, RechecksummedTruncationsFailTheDecoder) {
  MutationRig Rig("mutation_cuts.cache");
  const std::string Good = Rig.bytes(0, Rig.Tech);
  Rng Gen(0x5EED0003);
  for (int I = 0; I < 24; ++I) {
    size_t Size = HeaderBytes + Gen.nextBelow(Good.size() - HeaderBytes);
    expectQuarantined(Rig, rechecksum(Good.substr(0, Size)), "payload",
                      I % 2 == 0,
                      "re-checksummed cut at " + std::to_string(Size));
  }
  expectQuarantined(Rig, rechecksum(Good + std::string(8, '\0')), "payload",
                    false, "re-checksummed trailing bytes");
}

// Re-checksummed flips reach the decoder with arbitrary values. A flip
// in a cost-table double is indistinguishable from a real table and may
// be served; a flip in a count, index, type or cost word must be
// rejected. Either way nothing may crash, a served entry must be
// structurally sound, and a rejected one is quarantined as "payload".
TEST(StoreMutationTest, RechecksummedFlipsNeverCrashTheDecoder) {
  MutationRig Rig("mutation_decoder.cache");
  const std::string Path = Rig.progPath(0, Rig.Tech);
  const std::string Good = Rig.bytes(0, Rig.Tech);
  const size_t Blocks = Rig.Programs[0].blockCount();
  Rng Gen(0x5EED0004);
  size_t Rejected = 0;
  for (int I = 0; I < 200; ++I) {
    std::string Mutant = Good;
    size_t At = HeaderBytes + Gen.nextBelow(Good.size() - HeaderBytes);
    Mutant[At] ^= static_cast<char>(1 + Gen.nextBelow(255));
    writeBytes(Path, rechecksum(Mutant));
    uint64_t Rejects = Rig.Store.rejects();
    PreparedProgram Loaded =
        Rig.Store.load(Rig.First, Rig.MC, Rig.Tech, 42)[0];
    if (Loaded.Image) {
      EXPECT_EQ(Loaded.Flat->numBlocks(), Blocks) << "flip at " << At;
      EXPECT_EQ(Rig.Store.rejects(), Rejects) << "flip at " << At;
      continue;
    }
    ++Rejected;
    EXPECT_EQ(Rig.Store.rejects(), Rejects + 1) << "flip at " << At;
    std::string Aside = Rig.Store.progQuarantinePathFor(
        CacheStore::progKey(Rig.Hashes[0], Rig.MC, Rig.Tech, 42), "payload");
    EXPECT_TRUE(fileExists(Aside)) << "flip at " << At;
    std::remove(Aside.c_str());
  }
  // The marks and the table counts are a real share of the payload.
  EXPECT_GT(Rejected, 0u);
  writeBytes(Path, Good);
  EXPECT_TRUE(Rig.loadFirst(true));
}

//===----------------------------------------------------------------------===//
// Store-served == prepared, at any decode parallelism
//===----------------------------------------------------------------------===//

namespace {

/// Field-exact bytes of one prepared program: name, marks, type count,
/// cost tables and the flat image.
std::string programDigest(const PreparedSuite &S, size_t I) {
  BinaryWriter W;
  const InstrumentedProgram &Img = *S.Images[I];
  W.str(S.Names[I]);
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

/// Runs in a re-executed child whose PBT_THREADS is \p Threads, so the
/// global pool that decodes store entries really has that many threads.
/// Fills a store cold, serves every suite from it warm through fresh
/// caches, and exits 0 only when every program matches prepareSuite
/// byte for byte.
void servedMatchesPrepared(unsigned Threads) {
  bool Ok = ThreadPool::global().size() == Threads;
  auto Set = std::make_shared<const ProgramSet>(namedSuite(
      {"164.gzip", "179.art", "181.mcf", "183.equake", "188.ammp"}));
  const std::vector<Program> &Programs = Set->programs();
  TechniqueSpec Static = loopTechnique(45);
  Static.UseStaticTyping = true;
  TechniqueSpec Err = loopTechnique(30);
  Err.TypingError = 0.1;
  std::string Dir =
      testCacheDir("served_t" + std::to_string(Threads) + ".cache");
  for (const MachineConfig &MC :
       {MachineConfig::quadAsymmetric(), MachineConfig::threeCore()}) {
    for (const TechniqueSpec &Tech :
         {TechniqueSpec::baseline(), loopTechnique(45), Static, Err}) {
      SuiteCache Cold;
      Cold.setStore(std::make_shared<CacheStore>(Dir));
      Cold.get(Set, MC, Tech, 7);
      SuiteCache Warm;
      Warm.setStore(std::make_shared<CacheStore>(Dir));
      PreparedSuite Served = Warm.get(Set, MC, Tech, 7);
      Ok = Ok && Warm.storeHits() == 1 && Warm.preparedPrograms() == 0;
      PreparedSuite Fresh = prepareSuite(Programs, MC, Tech, 7);
      Ok = Ok && Served.Images.size() == Fresh.Images.size();
      for (size_t I = 0; Ok && I < Fresh.Images.size(); ++I)
        Ok = programDigest(Served, I) == programDigest(Fresh, I);
    }
  }
  std::exit(Ok ? 0 : 1);
}

} // namespace

TEST(StoreMutationDeathTest, StoreServedSuiteEqualsPreparedAtAnyThreadCount) {
  // "threadsafe" re-executes the test binary for the statement, so the
  // child's global pool is created fresh under the PBT_THREADS set here.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char *Saved = std::getenv("PBT_THREADS");
  std::string Restore = Saved ? Saved : "";
  for (unsigned Threads : {1u, 4u}) {
    ::setenv("PBT_THREADS", std::to_string(Threads).c_str(), 1);
    EXPECT_EXIT(servedMatchesPrepared(Threads), testing::ExitedWithCode(0),
                "")
        << "PBT_THREADS=" << Threads;
  }
  if (Saved)
    ::setenv("PBT_THREADS", Restore.c_str(), 1);
  else
    ::unsetenv("PBT_THREADS");
}

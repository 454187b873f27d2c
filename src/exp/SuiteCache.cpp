//===- exp/SuiteCache.cpp - Content-addressed prepared-suite cache --------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/SuiteCache.h"

#include "analysis/PassManager.h"
#include "exp/CacheStore.h"
#include "obs/Span.h"
#include "support/Hashing.h"

#include <stdexcept>

using namespace pbt;
using namespace pbt::exp;

void SuiteCache::setStore(std::shared_ptr<CacheStore> StoreIn) {
  Store = std::move(StoreIn);
}

PreparedSuite SuiteCache::get(const std::shared_ptr<const ProgramSet> &Set,
                              const MachineConfig &Machine,
                              const TechniqueSpec &Tech,
                              uint64_t TypingSeed) {
  uint64_t Key = hashCombine(Tech.preparationHash(), hashValue(Machine));
  Key = hashCombine(Key, TypingSeed);

  std::vector<Entry> &Bucket = Buckets[Key];
  for (const Entry &E : Bucket) {
    if (E.TypingSeed == TypingSeed && E.Tech.samePreparation(Tech) &&
        E.Machine == Machine) {
      ++Hits;
      PreparedSuite Suite = *E.Suite; // Shares the immutable images.
      Suite.Tuner = Tech.Tuner;
      return Suite;
    }
  }

  ++Misses;
  // Load-through: a memory miss probes the persistent tier per program,
  // runs the static pipeline only over the programs it cannot serve,
  // and writes those back — adding one benchmark to an otherwise-cached
  // suite prepares exactly that benchmark, and programs shared with
  // other suites (or labs) are reused whichever suite wrote them.
  std::vector<PreparedProgram> Parts =
      Store ? Store->load(Set, Machine, Tech, TypingSeed)
            : std::vector<PreparedProgram>(Set->size());
  std::vector<size_t> Missing;
  for (size_t I = 0; I < Parts.size(); ++I)
    if (!Parts[I].Image)
      Missing.push_back(I);
  const size_t FromDisk = Parts.size() - Missing.size();
  ProgramStoreHits += FromDisk;

  if (Store && Missing.empty()) {
    ++StoreHits; // Every program served from disk.
  } else {
    obs::Span Prep("suite_cache.prepare");
    std::vector<PreparedProgram> Fresh =
        preparePrograms(Set, Missing, Machine, Tech, TypingSeed);
    for (size_t J = 0; J < Missing.size(); ++J)
      Parts[Missing[J]] = std::move(Fresh[J]);
    ++Prepared;
    PreparedPrograms += Missing.size();
  }

  Entry E;
  E.Tech = Tech;
  E.Machine = Machine;
  E.TypingSeed = TypingSeed;
  E.Suite = std::make_shared<const PreparedSuite>(
      assembleSuite(Set->programs(), std::move(Parts), Tech));
  if (Store && !Missing.empty())
    Store->save(Set->programHashes(), Machine, Tech, TypingSeed, *E.Suite);

  // Freshly prepared programs are verified inside the pipeline when
  // verify-IR is on; store-served artifacts get the same static audit
  // here, so a corrupt or stale disk entry can never reach a
  // simulation unchecked.
  if (FromDisk > 0 && verifyIREnabled()) {
    std::string Error;
    if (!verifyPrepared(*E.Suite, Machine, &Error))
      throw std::runtime_error("verify-ir: store-served suite failed: " +
                               Error);
  }

  Bucket.push_back(E);
  PreparedSuite Suite = *E.Suite;
  Suite.Tuner = Tech.Tuner;
  return Suite;
}

size_t SuiteCache::size() const {
  size_t N = 0;
  for (const auto &KV : Buckets)
    N += KV.second.size();
  return N;
}

void SuiteCache::clear() {
  Buckets.clear();
  Hits = 0;
  Misses = 0;
  StoreHits = 0;
  Prepared = 0;
  PreparedPrograms = 0;
  ProgramStoreHits = 0;
}

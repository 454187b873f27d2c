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
  Entry E;
  E.Tech = Tech;
  E.Machine = Machine;
  E.TypingSeed = TypingSeed;

  // Load-through: a memory miss consults the persistent tier before
  // running the static pipeline; a fresh preparation is written back so
  // later processes (or labs over the same programs) skip it.
  uint64_t StoreKey = 0;
  if (Store) {
    StoreKey = CacheStore::suiteKey(Set->hash(), Machine, Tech, TypingSeed);
    E.Suite = Store->load(StoreKey, Set, Machine, Tech, TypingSeed);
    if (E.Suite)
      ++StoreHits;
  }

  if (!E.Suite && Store) {
    // Manifest miss: assemble the suite incrementally. Probe the store
    // per program and run the pipeline only over the programs it cannot
    // serve — adding one benchmark to an otherwise-cached suite
    // prepares exactly that benchmark, and programs shared with other
    // suites are reused regardless of which suite wrote them.
    std::vector<PreparedProgram> Parts =
        Store->loadPrograms(Set, Machine, Tech, TypingSeed);
    std::vector<size_t> MissingIdx;
    for (size_t I = 0; I < Set->size(); ++I)
      if (!Parts[I].Image)
        MissingIdx.push_back(I);
    ProgramStoreHits += Set->size() - MissingIdx.size();

    if (!MissingIdx.empty()) {
      obs::Span Prep("suite_cache.prepare");
      std::vector<PreparedProgram> Fresh =
          preparePrograms(Set, MissingIdx, Machine, Tech, TypingSeed);
      for (size_t J = 0; J < MissingIdx.size(); ++J)
        Parts[MissingIdx[J]] = std::move(Fresh[J]);
      ++Prepared;
      PreparedPrograms += MissingIdx.size();
    } else {
      // Every program was already on disk (cross-suite dedupe); only
      // the manifest is new. Served from the store, nothing prepared.
      ++StoreHits;
    }

    auto Assembled = std::make_shared<PreparedSuite>();
    for (size_t I = 0; I < Set->size(); ++I) {
      Assembled->Names.push_back((*Set)[I].Name);
      Assembled->Images.push_back(std::move(Parts[I].Image));
      Assembled->Costs.push_back(std::move(Parts[I].Cost));
      Assembled->Flats.push_back(std::move(Parts[I].Flat));
    }
    E.Suite = Assembled;
    // Writes the prog entries the store was missing plus the manifest
    // that makes the next load a whole-suite hit.
    Store->save(StoreKey, Set->hash(), Set->programHashes(), Machine, Tech,
                TypingSeed, *E.Suite);
  }

  // Freshly prepared programs are verified inside the pipeline when
  // verify-IR is on; store-served artifacts get the same static audit
  // here, so a corrupt or stale disk entry can never reach a
  // simulation unchecked.
  if (E.Suite && verifyIREnabled()) {
    std::string Error;
    if (!verifyPrepared(*E.Suite, Machine, &Error))
      throw std::runtime_error("verify-ir: store-served suite failed: " +
                               Error);
  }

  if (!E.Suite) {
    ++Prepared;
    PreparedPrograms += Set->size();
    obs::Span Prep("suite_cache.prepare");
    E.Suite = std::make_shared<const PreparedSuite>(
        prepareSuite(Set, Machine, Tech, TypingSeed));
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

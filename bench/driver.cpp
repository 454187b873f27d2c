//===- bench/driver.cpp - One-process experiment driver -------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs every registered experiment (all 17 fig/table/sweep/ablation
// grids) in ONE process over shared per-machine Labs:
//
//  - suite preparation is deduplicated across experiments through the
//    shared labs' SuiteCaches (e.g. the 18 paper variants are prepared
//    once for fig3/fig4/fig8/table2 together, not once per binary);
//  - with PBT_CACHE_DIR set, prepared suites persist on disk, so a
//    second driver run replays the whole matrix with zero preparations;
//  - every BENCH_<name>.json is emitted in one run, byte-identical to
//    the standalone binaries' output (locked in by tests and CI);
//  - the whole run is planned before it runs (exp/ReplayMemo.h): a
//    plan pass records every selected body's sweeps, one prefetch
//    batch replays them longest first with repeated jobs and horizon
//    prefixes merged, and the experiments are then served from that
//    in-memory memo. --shard, --merge and --trace bypass it and replay
//    sweep by sweep.
//
// Usage:
//   driver [--list] [--only=name1,name2] [--verify-ir] [--clean-cache]
//          [--gc-cache] [--max-cache-bytes=N] [--max-cache-age-days=D]
//          [--shard=k/n] [--merge=dir] [--trace=dir] [--report]
//
// --trace=dir (or PBT_TRACE=dir; the flag wins) turns on the
// deterministic simulated-time trace plane: every replay unit writes a
// TRACE_*.json Chrome-trace file into dir (docs/OBSERVABILITY.md).
// Traces are timestamped in simulated cycles, so they are
// byte-identical across engines, thread counts, and cache temperature;
// BENCH_*.json artifacts are unaffected either way.
//
// --report prints a human-readable run report (per-experiment table,
// pipeline pass stats, cache and observability counters) after the
// summary line.
//
// --verify-ir (or PBT_VERIFY_IR=1) turns on the self-verifying IR: the
// VerifyPass static analysis runs after every pipeline pass during
// preparation, and every store-served suite is re-audited against the
// same invariants before it reaches a simulation. A violation fails
// that experiment (the guard records it); the artifacts themselves are
// unchanged — verification only reads.
//
// --shard=k/n (or PBT_SHARD=k/n; the flag wins) runs this process as
// shard k of an n-shard fabric: whole experiments are round-robined
// over the sorted registry (non-owned ones report status
// "other-shard"), sweep experiments replay only their owned cells, and
// the run emits BENCH_*.shard-k-of-n.json partials, cells payloads,
// and a shard-k-of-n.manifest.pbs inventory instead of the final
// artifacts (exp/Shard.h).
//
// --merge=dir recombines the shard partials found in dir into the
// working directory: after validating every manifest and checksum it
// byte-copies whole artifacts and re-runs sweep bodies over the
// recombined bit-exact units, producing BENCH_*.json files
// byte-identical to a single-process run, plus BENCH_merge.json with
// the shards' merged metric sketches. Any inconsistency (missing or
// duplicate shard, mixed n, corrupt partial, ...) is a distinct
// diagnostic and a nonzero exit.
//
// --clean-cache deletes PBT_CACHE_DIR entries written by other format
// versions and legacy suite manifests (they can never load again) and
// exits.
//
// --gc-cache garbage-collects PBT_CACHE_DIR by recency and exits:
// entries older than --max-cache-age-days are evicted, then the
// least-recently-used entries (file mtime, refreshed on every cache
// hit) until the store fits in --max-cache-bytes. With neither bound
// given, a default 512 MiB size budget applies.
//
// Every experiment runs once, inline, behind exp::runGuarded: a failing
// or throwing experiment never stops the batch — the driver records it,
// runs everything else, and exits nonzero at the end. Bodies are
// deterministic, so there is no retry, and there is no in-process
// timeout: bound a run's wall clock from outside, e.g.
// `timeout 600 driver --only=table2_fairness`.
//
// Environment: PBT_BENCH_SCALE scales horizons, PBT_CACHE_DIR enables
// the persistent suite store, PBT_THREADS sizes the replay pool,
// PBT_FAULTS arms fault injection (support/FaultInjection).
//
// Writes BENCH_driver.json (schema pbt-driver-v7, docs/BENCH_SCHEMA.md)
// with per-experiment status/duration, a failure summary, and
// suite-cache statistics, plus PROFILE_driver.json (pbt-profile-v2) —
// the full observability counter registry; exits non-zero when any
// experiment failed.
// Per-experiment BENCH_*.json files are unaffected by the guard and
// stay byte-identical to the standalone binaries' output.
//
//===----------------------------------------------------------------------===//

#include "Registry.h"

#include "analysis/PassManager.h"
#include "exp/CacheStore.h"
#include "exp/Guard.h"
#include "exp/Harness.h"
#include "exp/ReplayMemo.h"
#include "exp/Shard.h"
#include "obs/Counters.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

using namespace pbt;
using namespace pbt::bench;

namespace {

/// Splits the comma-separated --only list.
std::vector<std::string> splitList(const char *Csv) {
  std::vector<std::string> Out;
  std::string Cur;
  for (const char *P = Csv;; ++P) {
    if (*P == ',' || *P == '\0') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
      if (*P == '\0')
        break;
    } else {
      Cur.push_back(*P);
    }
  }
  return Out;
}

/// The plan pass: runs each selected body once while \p Memo records.
/// Bodies see placeholder sweeps and stop at their first real lab work,
/// so the pass prepares and simulates nothing; stdout is discarded for
/// its duration (bodies may print directly), and any exception is
/// swallowed — the guarded serve pass runs every body again and reports
/// real failures.
void planReplays(const std::vector<const Experiment *> &Selected,
                 exp::ReplayMemo &Memo) {
  obs::Span Plan("driver.plan");
  std::fflush(stdout);
  int Saved = ::dup(STDOUT_FILENO);
  int Null = ::open("/dev/null", O_WRONLY);
  bool Redirected = Saved >= 0 && Null >= 0 &&
                    ::dup2(Null, STDOUT_FILENO) >= 0;
  Memo.setPlanning(true);
  for (const Experiment *E : Selected) {
    try {
      E->Fn();
    } catch (...) {
    }
  }
  Memo.setPlanning(false);
  std::fflush(stdout);
  if (Redirected)
    ::dup2(Saved, STDOUT_FILENO);
  if (Saved >= 0)
    ::close(Saved);
  if (Null >= 0)
    ::close(Null);
}

} // namespace

int main(int Argc, char **Argv) {
  // Parse PBT_FAULTS up front: a typo'd spec exits 2 with the parse
  // error here, instead of surfacing only when some store op first
  // touches the seam mid-run.
  FaultInjection::instance();

  bool ListOnly = false;
  bool CleanCache = false;
  bool GcCache = false;
  bool SawMaxBytes = false;
  bool SawMaxAge = false;
  uint64_t MaxCacheBytes = 0;
  double MaxCacheAgeDays = 0;
  bool SawShardFlag = false;
  exp::ShardSpec Shard; // 1/1 unless --shard or PBT_SHARD says otherwise.
  std::string MergeDir;
  bool Report = false;
  std::vector<std::string> Only;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--list") == 0) {
      ListOnly = true;
    } else if (std::strcmp(Arg, "--verify-ir") == 0) {
      setVerifyIR(true);
    } else if (std::strcmp(Arg, "--clean-cache") == 0) {
      CleanCache = true;
    } else if (std::strcmp(Arg, "--gc-cache") == 0) {
      GcCache = true;
    } else if (std::strncmp(Arg, "--max-cache-bytes=", 18) == 0) {
      // Digits only: strtoull alone would take "-1" as 2^64-1.
      const char *Digits = Arg + 18;
      errno = 0;
      MaxCacheBytes = std::strtoull(Digits, nullptr, 10);
      if (*Digits == '\0' ||
          std::strspn(Digits, "0123456789") != std::strlen(Digits) ||
          errno == ERANGE) {
        std::fprintf(stderr, "driver: --max-cache-bytes wants a plain byte "
                             "count (digits only, below 2^64), got '%s'\n",
                     Digits);
        return 2;
      }
      SawMaxBytes = true;
    } else if (std::strncmp(Arg, "--max-cache-age-days=", 21) == 0) {
      char *End = nullptr;
      MaxCacheAgeDays = std::strtod(Arg + 21, &End);
      // NaN or a negative age would silently disable the age bound.
      if (End == Arg + 21 || *End != '\0' ||
          !std::isfinite(MaxCacheAgeDays) || MaxCacheAgeDays < 0) {
        std::fprintf(stderr, "driver: --max-cache-age-days wants a "
                             "finite number of days >= 0, got '%s'\n",
                     Arg + 21);
        return 2;
      }
      SawMaxAge = true;
    } else if (std::strncmp(Arg, "--only=", 7) == 0) {
      Only = splitList(Arg + 7);
      // An empty list would filter nothing out and run every experiment.
      if (Only.empty()) {
        std::fprintf(stderr, "driver: --only wants at least one "
                             "experiment name (see --list)\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--shard=", 8) == 0) {
      std::string Error;
      if (!exp::ShardSpec::parse(Arg + 8, Shard, Error)) {
        std::fprintf(stderr, "driver: %s\n", Error.c_str());
        return 2;
      }
      SawShardFlag = true;
    } else if (std::strncmp(Arg, "--merge=", 8) == 0) {
      MergeDir = Arg + 8;
      if (MergeDir.empty()) {
        std::fprintf(stderr, "driver: --merge wants a shard directory\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--trace=", 8) == 0) {
      if (Arg[8] == '\0') {
        std::fprintf(stderr, "driver: --trace wants a directory\n");
        return 2;
      }
      obs::setTraceDir(Arg + 8);
    } else if (std::strcmp(Arg, "--report") == 0) {
      Report = true;
    } else {
      std::fprintf(stderr,
                   "driver: unknown flag '%s'\n"
                   "usage: driver [--list] [--only=name1,name2] "
                   "[--verify-ir] [--clean-cache] [--gc-cache] "
                   "[--max-cache-bytes=N] [--max-cache-age-days=D] "
                   "[--shard=k/n] [--merge=dir] [--trace=dir] "
                   "[--report]\n",
                   Arg);
      return 2;
    }
  }
  // PBT_TRACE needs no handling here: obs seeds the trace directory
  // from the environment for every binary, and the --trace flag above
  // overwrites it — the flag wins, mirroring --shard/PBT_SHARD.
  // The flag wins over the environment; the environment only applies
  // when no flag was given (so wrapper scripts can export PBT_SHARD and
  // still be overridden per invocation).
  if (!SawShardFlag) {
    if (const char *Env = envString("PBT_SHARD")) {
      std::string Error;
      if (!exp::ShardSpec::parse(Env, Shard, Error)) {
        std::fprintf(stderr, "driver: PBT_SHARD: %s\n", Error.c_str());
        return 2;
      }
      SawShardFlag = true;
    }
  }
  bool ShardMode = SawShardFlag;
  if (ShardMode && !MergeDir.empty()) {
    std::fprintf(stderr,
                 "driver: --shard and --merge are mutually exclusive\n");
    return 2;
  }
  if (!MergeDir.empty() && !Only.empty()) {
    std::fprintf(stderr, "driver: --merge recombines whatever the shard "
                         "manifests list; it cannot be combined with "
                         "--only\n");
    return 2;
  }
  // A GC bound without --gc-cache would be silently ignored and the
  // whole experiment matrix would run instead; refuse the ambiguity.
  if ((SawMaxBytes || SawMaxAge) && !GcCache) {
    std::fprintf(stderr, "driver: --max-cache-bytes/--max-cache-age-days "
                         "require --gc-cache\n");
    return 2;
  }

  if (CleanCache) {
    std::shared_ptr<exp::CacheStore> Store = exp::CacheStore::fromEnv();
    if (!Store) {
      std::fprintf(stderr,
                   "driver: --clean-cache needs PBT_CACHE_DIR set\n");
      return 2;
    }
    size_t Removed = Store->cleanMismatchedVersions();
    std::printf("cleaned %s: removed %zu version-mismatched entr%s "
                "(current format v%u)\n",
                Store->dir().c_str(), Removed, Removed == 1 ? "y" : "ies",
                exp::CacheStore::ProgFormatVersion);
    return 0;
  }

  if (GcCache) {
    std::shared_ptr<exp::CacheStore> Store = exp::CacheStore::fromEnv();
    if (!Store) {
      std::fprintf(stderr, "driver: --gc-cache needs PBT_CACHE_DIR set\n");
      return 2;
    }
    // Without ANY explicit bound, keep the store under a conservative
    // default budget so a bare --gc-cache always does something
    // useful. An explicit --max-cache-bytes=0 means "no size bound"
    // (CacheStore::gc's documented semantics) and is honored as given.
    if (!SawMaxBytes && !SawMaxAge)
      MaxCacheBytes = 512ull << 20;
    exp::CacheStore::GcStats Stats =
        Store->gc(MaxCacheBytes, MaxCacheAgeDays * 86400.0);
    std::printf("gc %s: scanned %zu entr%s (%llu bytes), evicted %zu "
                "(%llu bytes reclaimed)\n",
                Store->dir().c_str(), Stats.Scanned,
                Stats.Scanned == 1 ? "y" : "ies",
                static_cast<unsigned long long>(Stats.BytesScanned),
                Stats.Evicted,
                static_cast<unsigned long long>(Stats.BytesEvicted));
    return 0;
  }

  // Deterministic execution order regardless of link order.
  std::vector<Experiment> Sorted = experiments();
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Experiment &A, const Experiment &B) {
              return std::strcmp(A.Name, B.Name) < 0;
            });

  if (ListOnly) {
    for (const Experiment &E : Sorted)
      std::printf("%s\n", E.Name);
    return 0;
  }

  for (const std::string &Name : Only) {
    bool Known = std::any_of(Sorted.begin(), Sorted.end(),
                             [&](const Experiment &E) {
                               return Name == E.Name;
                             });
    if (!Known) {
      std::fprintf(stderr, "driver: unknown experiment '%s' "
                           "(see --list)\n",
                   Name.c_str());
      return 2;
    }
  }

  if (!MergeDir.empty()) {
    // Merge mode: recombine shard partials into final artifacts. Sweep
    // replays resolve through a shared lab pool like a normal run (the
    // labs only serve machine configs and isolated-runtime oracles —
    // no simulation happens; every replay is fed from the recombined
    // units).
    std::map<std::string, exp::MergeExperimentInfo> Infos;
    for (const Experiment &E : Sorted) {
      exp::MergeExperimentInfo Info;
      Info.G = E.Granularity;
      Info.Run = E.Fn;
      Infos[E.Name] = std::move(Info);
    }
    exp::LabPool Pool;
    exp::ExperimentHarness::setSharedLabPool(&Pool);
    std::printf("== experiment driver: merging shards from %s ==\n",
                MergeDir.c_str());
    exp::MergeReport Report;
    std::string Err = exp::mergeShards(
        MergeDir, ".",
        [&](const std::string &Name) -> const exp::MergeExperimentInfo * {
          auto It = Infos.find(Name);
          return It == Infos.end() ? nullptr : &It->second;
        },
        &Report);
    exp::ExperimentHarness::setSharedLabPool(nullptr);
    if (!Err.empty()) {
      std::fprintf(stderr, "driver: merge failed: %s\n", Err.c_str());
      return 1;
    }
    std::printf("\n== merge summary: %u shards, %zu artifacts copied, "
                "%zu sweep experiments replayed from %llu units ==\n"
                "wrote BENCH_merge.json\n",
                Report.ShardCount, Report.Copied.size(),
                Report.Replayed.size(),
                static_cast<unsigned long long>(Report.Units));
    return 0;
  }

  // The run set, in registry order.
  std::vector<const Experiment *> Selected;
  for (const Experiment &E : Sorted)
    if (Only.empty() ||
        std::find(Only.begin(), Only.end(), E.Name) != Only.end())
      Selected.push_back(&E);

  // One pool of per-machine labs for the whole run: every harness
  // constructed by the experiment bodies resolves lab() through it, so
  // isolated runtimes are measured once per machine and the suite
  // caches deduplicate preparation across experiments.
  exp::LabPool Pool;
  exp::ExperimentHarness::setSharedLabPool(&Pool);
  std::shared_ptr<exp::CacheStore> Store = exp::CacheStore::fromEnv();

  // Shard mode: install the process-global runtime the harness routes
  // through, hash the run set (the merge refuses to combine shards
  // launched over different sets), and assign whole experiments.
  exp::ShardRuntime RT(exp::ShardRuntime::Mode::Shard, Shard, ".");
  std::map<std::string, uint32_t> WholeOwner;
  if (ShardMode) {
    std::vector<exp::RunSetEntry> RunSet;
    std::vector<std::string> WholeNames;
    for (const Experiment *E : Selected) {
      RunSet.emplace_back(E->Name, E->Granularity);
      if (E->Granularity == exp::ShardGranularity::Whole)
        WholeNames.push_back(E->Name);
    }
    RT.setRunSetHash(exp::hashRunSet(RunSet));
    WholeOwner = exp::assignWholeShards(WholeNames, Shard.Count);
    exp::ShardRuntime::install(&RT);
  }

  std::printf("== experiment driver: %zu experiments, one process%s%s ==\n",
              Selected.size(),
              ShardMode ? ", shard " : "",
              ShardMode ? Shard.label().c_str() : "");
  if (Store)
    std::printf("persistent suite cache: %s\n", Store->dir().c_str());
  if (verifyIREnabled())
    std::printf("self-verifying IR: on (VerifyPass after every pipeline "
                "pass + store-served suite audits)\n");

  // Plan the whole run, then replay it as one batch (exp/ReplayMemo.h):
  // the plan pass records every selected body's sweeps, the prefetch
  // replays them longest-first with duplicates and horizon prefixes
  // merged, and the guarded pass below is served from the memo. Modes
  // that must see every replay happen inside its sweep skip it and run
  // exactly as without a memo.
  exp::ReplayMemo Memo;
  if (exp::replayPrefetchAllowed(ShardMode, obs::traceEnabled())) {
    exp::ReplayMemo::install(&Memo);
    planReplays(Selected, Memo);
    obs::Span Prefetch("driver.prefetch");
    exp::prefetchSweeps(Memo);
  }

  Json Runs = Json::array();
  Json Failures = Json::array();
  // Rows for the optional --report table, mirroring the "experiments"
  // array of BENCH_driver.json (Json has no member iteration, so the
  // table renders from this source-of-truth copy).
  struct ReportRow {
    std::string Name;
    std::string Status;
    double Seconds = 0;
  };
  std::vector<ReportRow> Rows;
  size_t Failed = 0;
  {
    // The serve pass: every selected body once, behind the guard.
    obs::Span Serve("driver.serve");
    for (const Experiment *EP : Selected) {
      const Experiment &E = *EP;
      Json Run = Json::object();
      Run["name"] = E.Name;
      if (ShardMode && E.Granularity == exp::ShardGranularity::Whole &&
          WholeOwner[E.Name] != Shard.Index) {
        // Another shard owns this whole experiment; recording it as
        // "other-shard" (not failed) keeps the summary an honest
        // inventory of the fabric's division of labor.
        Run["status"] = "other-shard";
        Run["exit_code"] = 0;
        Run["duration_seconds"] = 0.0;
        Run["owner_shard"] = WholeOwner[E.Name];
        Runs.push(std::move(Run));
        Rows.push_back(ReportRow{E.Name, "other-shard", 0.0});
        continue;
      }
      std::printf("\n---- %s ----\n", E.Name);
      // The guard is the driver's fault boundary: a throwing or failing
      // experiment becomes a recorded failure, and the batch moves on to
      // the next experiment.
      if (ShardMode)
        RT.beginExperiment(E.Name, E.Granularity);
      exp::GuardedResult R = exp::runGuarded(E.Fn);
      if (ShardMode)
        RT.endExperiment(R.ExitCode); // Nonzero unless ok (-1 if it threw).
      if (!R.ok()) {
        ++Failed;
        Failures.push(Json(E.Name));
        std::fprintf(stderr, "driver: %s %s (%.1fs)%s%s\n", E.Name,
                     R.statusName(), R.DurationSeconds,
                     R.Error.empty() ? "" : ": ", R.Error.c_str());
      }
      Run["status"] = R.statusName();
      Run["exit_code"] = R.ExitCode;
      Run["duration_seconds"] = R.DurationSeconds;
      if (!R.Error.empty())
        Run["error"] = R.Error;
      Runs.push(std::move(Run));
      Rows.push_back(ReportRow{E.Name, R.statusName(), R.DurationSeconds});
    }
  }
  exp::ExperimentHarness::setSharedLabPool(nullptr);
  exp::ReplayMemo::install(nullptr);
  if (ShardMode)
    exp::ShardRuntime::install(nullptr);

  // The manifest is the shard's sign-off, written after the pass over
  // the whole run set; it marks each failed experiment, and the merge
  // refuses a fabric with any failed entry instead of silently
  // combining incomplete partials.
  bool ManifestOk = true;
  if (ShardMode)
    ManifestOk = RT.writeManifest();

  // Aggregate suite-cache statistics over the shared labs. store_hits
  // counts preparations served from PBT_CACHE_DIR: a warm second run
  // reports prepared == 0 and store_hits > 0 (asserted in CI).
  uint64_t MemoryHits = 0;
  uint64_t StoreHits = 0;
  uint64_t PreparedCount = 0;
  uint64_t PreparedProgramCount = 0;
  uint64_t ProgramStoreHits = 0;
  for (exp::Lab *L : Pool.labs()) {
    MemoryHits += L->cache().hits();
    StoreHits += L->cache().storeHits();
    PreparedCount += L->cache().prepared();
    PreparedProgramCount += L->cache().preparedPrograms();
    ProgramStoreHits += L->cache().programStoreHits();
  }

  Json Root = Json::object();
  // v7: one attempt per experiment, so timeout_seconds, max_attempts,
  // the per-experiment "attempts" and the "skipped"/"timeout" statuses
  // are gone; v6 dropped the store's lock_timeouts; v5: the store holds
  // only per-program entries, so store.hits / misses / rejects / writes
  // count entries, store.prog_* is gone, and program_store_hits counts
  // every program served from disk; v4 added the "pipeline" per-pass
  // stats block, module-granular suite_cache counters and "verify_ir";
  // v3 added the optional "shard" block and the "other-shard" status;
  // v2 added suite_cache store counters — see docs/BENCH_SCHEMA.md.
  Root["schema"] = "pbt-driver-v7";
  Root["verify_ir"] = verifyIREnabled();
  if (ShardMode) {
    Json ShardBlock = Json::object();
    ShardBlock["index"] = Shard.Index;
    ShardBlock["count"] = Shard.Count;
    ShardBlock["label"] = Shard.label();
    ShardBlock["manifest"] = "shard-" + Shard.label() + ".manifest.pbs";
    Root["shard"] = std::move(ShardBlock);
  }
  Root["scale"] = envScale();
  Root["cache_dir"] = Store ? Json(Store->dir()) : Json();
  Root["experiments"] = std::move(Runs);
  Root["failed"] = static_cast<uint64_t>(Failed);
  Root["failures"] = std::move(Failures);
  Json CacheStats = Json::object();
  CacheStats["memory_hits"] = MemoryHits;
  CacheStats["store_hits"] = StoreHits;
  CacheStats["prepared"] = PreparedCount;
  CacheStats["prepared_programs"] = PreparedProgramCount;
  CacheStats["program_store_hits"] = ProgramStoreHits;
  if (Store) {
    Json StoreStats = Json::object();
    StoreStats["hits"] = Store->hits();
    StoreStats["misses"] = Store->misses();
    StoreStats["rejects"] = Store->rejects();
    StoreStats["writes"] = Store->writes();
    StoreStats["quarantines"] = Store->quarantines();
    CacheStats["store"] = std::move(StoreStats);
  }
  Root["suite_cache"] = std::move(CacheStats);

  // Per-pass pipeline stats, cumulative over every preparation this
  // process ran. Seconds is wall time — BENCH_driver.json is excluded
  // from all byte-identity checks, so it is the one artifact allowed
  // to carry it.
  PipelineStats Pipe = cumulativePipelineStats();
  Json Passes = Json::array();
  for (const PassStats &P : Pipe.Passes) {
    Json Pass = Json::object();
    Pass["name"] = P.Name;
    Pass["invocations"] = P.Invocations;
    Pass["programs_changed"] = P.ProgramsChanged;
    Pass["seconds"] = P.Seconds;
    Passes.push(std::move(Pass));
  }
  Json Pipeline = Json::object();
  Pipeline["passes"] = std::move(Passes);
  Root["pipeline"] = std::move(Pipeline);

  // Import the dump-time statistics into the observability registry so
  // PROFILE_driver.json is a one-stop snapshot of the run's Plane-2
  // state (docs/OBSERVABILITY.md).
  obs::CounterRegistry &Reg = obs::CounterRegistry::global();
  Reg.set("suite_cache.memory_hits", MemoryHits);
  Reg.set("suite_cache.store_hits", StoreHits);
  Reg.set("suite_cache.prepared", PreparedCount);
  Reg.set("suite_cache.prepared_programs", PreparedProgramCount);
  Reg.set("suite_cache.program_store_hits", ProgramStoreHits);
  if (Store) {
    Reg.set("store.hits", Store->hits());
    Reg.set("store.misses", Store->misses());
    Reg.set("store.rejects", Store->rejects());
    Reg.set("store.writes", Store->writes());
    Reg.set("store.quarantines", Store->quarantines());
  }
  for (const PassStats &P : Pipe.Passes) {
    Reg.set("pipeline." + P.Name + ".invocations", P.Invocations);
    Reg.set("pipeline." + P.Name + ".programs_changed", P.ProgramsChanged);
    Reg.setMetric("pipeline." + P.Name + ".seconds", P.Seconds);
  }
  Reg.set("driver.experiments_failed", Failed);

  std::printf("\n== driver summary: memory_hits=%llu store_hits=%llu "
              "prepared=%llu prepared_programs=%llu "
              "program_store_hits=%llu failed=%zu ==\n",
              static_cast<unsigned long long>(MemoryHits),
              static_cast<unsigned long long>(StoreHits),
              static_cast<unsigned long long>(PreparedCount),
              static_cast<unsigned long long>(PreparedProgramCount),
              static_cast<unsigned long long>(ProgramStoreHits), Failed);
  for (const PassStats &P : Pipe.Passes)
    std::printf("   pass %-12s invocations=%llu changed=%llu %.3fs\n",
                P.Name.c_str(), static_cast<unsigned long long>(P.Invocations),
                static_cast<unsigned long long>(P.ProgramsChanged),
                P.Seconds);
  int Exit = Failed == 0 && ManifestOk ? 0 : 1;
  // The summary is shard-suffixed in shard mode so n shards can share
  // one output directory without clobbering each other.
  std::string SummaryPath =
      ShardMode ? "BENCH_driver.shard-" + Shard.label() + ".json"
                : "BENCH_driver.json";
  if (!writeJsonFile(SummaryPath, Root)) {
    std::perror(SummaryPath.c_str());
    Exit = 1;
  } else {
    std::printf("wrote %s\n", SummaryPath.c_str());
  }

  // Plane-2 self-profile: the full counter registry, always written.
  // Wall-clock-tainted by design and excluded from every byte-identity
  // check, like BENCH_driver.json.
  {
    Json Profile = Json::object();
    Profile["schema"] = "pbt-profile-v2";
    Profile["registry"] = Reg.snapshotJson();
    std::string ProfilePath =
        ShardMode ? "PROFILE_driver.shard-" + Shard.label() + ".json"
                  : "PROFILE_driver.json";
    if (!writeJsonFile(ProfilePath, Profile)) {
      std::perror(ProfilePath.c_str());
      Exit = 1;
    } else {
      std::printf("wrote %s\n", ProfilePath.c_str());
    }
  }

  if (Report) {
    std::printf("\n== run report ==\n");
    std::printf("%-28s %-12s %10s\n", "experiment", "status", "seconds");
    for (const ReportRow &Row : Rows)
      std::printf("%-28s %-12s %10.2f\n", Row.Name.c_str(),
                  Row.Status.c_str(), Row.Seconds);
    std::vector<std::pair<std::string, uint64_t>> Cs = Reg.counterValues();
    std::vector<std::pair<std::string, double>> Ms = Reg.metricValues();
    if (!Cs.empty()) {
      std::printf("\n-- counters --\n");
      for (const auto &KV : Cs)
        std::printf("%-44s %12llu\n", KV.first.c_str(),
                    static_cast<unsigned long long>(KV.second));
    }
    if (!Ms.empty()) {
      std::printf("\n-- metrics --\n");
      for (const auto &KV : Ms)
        std::printf("%-44s %12.4f\n", KV.first.c_str(), KV.second);
    }
  }

  return Exit;
}

//===- perfbench/perfbench.cpp - Timed library workloads -------------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The in-process half of the repository benchmark (perfbench/run.py
// builds and drives it). Two workloads, each driven through the
// library's public entry points and timed from outside them:
//
//   replay_batch   closed 18-slot Loop[45] batches on the Flat and
//                  FastReplay engines plus saturating Poisson streams
//                  fed into streaming accumulators, then a metric fold
//                  and a shard-codec round trip over every result;
//   prepare_store  the paper's preparation matrix: a cold store fill in
//                  set-up, then timed recompute (prepareSuite), warm
//                  store and in-memory hit phases (fresh Labs over the
//                  filled store directory).
//
// Usage:
//   pbt_perfbench <replay_batch|prepare_store> --seed N --seconds S
//                 --trace 0|1 --tmp DIR
//
// The timed phase repeats until S seconds have passed (at least
// MinIterations times); every metric is the median over iterations.
// With --trace 1, iterations alternate between untimed-layer and
// per-layer-timed runs, so the tracing overhead is measured in the same
// process. Simulated results repeat exactly, so every output is checked
// against an exact reference; a mismatch counts as a failed output.
// Progress goes to stderr; the last stdout line is one JSON object:
//   {"attempted": N, "failed": N, "selfchecks": {...}, "metrics": {...}}
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/PassManager.h"
#include "exp/CacheStore.h"
#include "exp/Lab.h"
#include "exp/Shard.h"
#include "metrics/Fairness.h"
#include "metrics/Latency.h"
#include "support/Binary.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "workload/Drift.h"
#include "workload/Runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace pbt;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int MinIterations = 3;
constexpr int MinTracedIterations = 2; ///< Of each kind, in a traced run.

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// User + system CPU seconds and peak resident MiB of this process.
struct Usage {
  double CpuSeconds = 0;
  double PeakMiB = 0;
};

Usage usage() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  Usage U;
  U.CpuSeconds = RU.ru_utime.tv_sec + RU.ru_utime.tv_usec * 1e-6 +
                 RU.ru_stime.tv_sec + RU.ru_stime.tv_usec * 1e-6;
  U.PeakMiB = RU.ru_maxrss / 1024.0; // Linux reports KiB.
  return U;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Per-name samples, one per iteration, reduced to medians at the end.
using Samples = std::map<std::string, std::vector<double>>;

/// What one workload run reports back to run.py.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Negative self-checks: name -> whether the comparator rejected the
  /// deliberately perturbed output (true is the intended outcome).
  std::vector<std::pair<std::string, bool>> SelfChecks;
  std::map<std::string, double> Metrics;

  /// Counts one output; \p Ok false makes it a failed one.
  void output(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: wrong output: %s\n", What.c_str());
    }
  }

  void medians(const Samples &S) {
    for (const auto &KV : S)
      Metrics[KV.first] = median(KV.second);
  }

  void print() const {
    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"selfchecks\": {",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    for (size_t I = 0; I < SelfChecks.size(); ++I)
      std::printf("%s\"%s\": %s", I ? ", " : "", SelfChecks[I].first.c_str(),
                  SelfChecks[I].second ? "true" : "false");
    std::printf("}, \"metrics\": {");
    bool First = true;
    for (const auto &KV : Metrics) {
      std::printf("%s\"%s\": %.17g", First ? "" : ", ", KV.first.c_str(),
                  KV.second);
      First = false;
    }
    std::printf("}}\n");
  }
};

/// Drives the timed loop: Body(Traced) runs until \p Seconds elapsed and
/// at least MinIterations ran. Untraced runs never time layers; traced
/// runs alternate untraced and traced iterations (starting untraced) so
/// both wall times come from the same process and inputs.
template <typename BodyFn>
void timedLoop(double Seconds, bool Trace, BodyFn Body) {
  Clock::time_point Start = Clock::now();
  int MinRuns = Trace ? 2 * MinTracedIterations : MinIterations;
  for (int I = 0; I < MinRuns || secondsSince(Start) < Seconds; ++I)
    Body(Trace && I % 2 == 1);
}

/// End-to-end samples of one iteration, filed by whether it was traced.
void recordIteration(Samples &Untraced, Samples &Traced, bool IsTraced,
                     double Wall, double Cpu) {
  Samples &S = IsTraced ? Traced : Untraced;
  S["wall_s"].push_back(Wall);
  S["cpu_s"].push_back(Cpu);
}

/// Fills the metrics every workload reports. End-to-end values always
/// come from untraced iterations; a traced run adds the per-layer
/// medians and the tracing overhead (traced over untraced wall time).
void finishReport(Report &Rep, const Samples &Untraced, const Samples &Traced,
                  bool Trace, double PeakMiB) {
  double Wall = median(Untraced.at("wall_s"));
  if (Trace) {
    Rep.medians(Traced);
    Rep.Metrics["trace.overhead_frac"] =
        median(Traced.at("wall_s")) / Wall - 1.0;
  }
  Rep.medians(Untraced);
  Rep.Metrics["peak_rss_mb"] = PeakMiB;
  Rep.Metrics["pool.cpu_util"] =
      Rep.Metrics["cpu_s"] / (Wall * ThreadPool::global().size());
}

/// Flips the lowest mantissa bit of \p V: the smallest possible
/// perturbation of a simulated double.
double flipLowBit(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(Bits));
  Bits ^= 1;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

std::string runBytes(const RunResult &R) {
  BinaryWriter W;
  exp::serializeRunResult(W, R);
  return W.buffer();
}

//===----------------------------------------------------------------------===//
// replay_batch
//===----------------------------------------------------------------------===//

constexpr uint32_t ReplaySlots = 18;
constexpr uint32_t ReplaySeeds = 4;
constexpr double ClosedHorizon = 200;
constexpr uint32_t OpenStreams = 4;
constexpr double OpenRate = 8;
constexpr double OpenHorizon = 300;
constexpr uint32_t ReferenceChecks = 2;
constexpr double DriftBound = 1e-9;
/// Set-up samples taken before each timed iteration. Set-up is cheap, so
/// its samples can cover the same stretch of time as the timed ones.
constexpr int ReplaySetupsPerIteration = 2;

/// One iteration's results, kept for the output checks.
struct ReplayOutput {
  std::vector<RunResult> Closed; ///< Flat jobs, then their FastReplay twins.
  std::vector<RunResult> Open;
  std::vector<LatencyAccumulator> Lat;
  std::vector<FairnessAccumulator> Fair;
  std::vector<std::string> Bytes; ///< Codec output, Closed then Open.
  std::vector<RunResult> Decoded;
  bool DecodeOk = true;
};

void runReplayBatch(uint64_t Seed, double Seconds, bool Trace, Report &Rep) {
  // Set-up: build the suite, prepare Loop[45] and the baseline, measure
  // the isolated-runtime oracle. Each call is one set-up sample; the lab
  // of the first one is the one replayed.
  Samples Setup;
  std::unique_ptr<exp::Lab> L;
  PreparedSuite Tuned;
  std::vector<double> Iso;
  auto setUp = [&] {
    Clock::time_point T0 = Clock::now();
    auto Fresh = std::make_unique<exp::Lab>(MachineConfig::quadAsymmetric());
    Clock::time_point T1 = Clock::now();
    PreparedSuite FreshTuned = Fresh->suite(bench::loop45());
    Fresh->suite(TechniqueSpec::baseline());
    Clock::time_point T2 = Clock::now();
    const std::vector<double> &FreshIso = Fresh->isolated();
    Setup["setup_s"].push_back(secondsSince(T0));
    Setup["prepare.s"].push_back(
        std::chrono::duration<double>(T2 - T1).count());
    Setup["isolated.s"].push_back(secondsSince(T2));
    if (!L) {
      Tuned = FreshTuned;
      Iso = FreshIso;
      L = std::move(Fresh);
    }
  };
  setUp();

  Rng SeedRng(Seed);
  std::vector<Workload> Ws;
  for (uint32_t S = 0; S < ReplaySeeds; ++S)
    Ws.push_back(L->workload(ReplaySlots, SeedRng.nextBelow(1u << 30)));
  const std::vector<SchedulerSpec> Scheds = {SchedulerSpec::oblivious(),
                                             SchedulerSpec::fastestFirst(),
                                             SchedulerSpec::ipcSampling()};
  auto closedJobs = [&](ExecEngine Engine) {
    std::vector<WorkloadJob> Jobs;
    for (const Workload &W : Ws)
      for (const SchedulerSpec &Sched : Scheds) {
        WorkloadJob J;
        J.Suite = &Tuned;
        J.W = &W;
        J.Machine = &L->machine();
        J.Sim = L->sim();
        J.Sim.Engine = Engine;
        J.Horizon = ClosedHorizon;
        J.Isolated = &Iso;
        J.Sched = Sched;
        Jobs.push_back(J);
      }
    return Jobs;
  };
  const std::vector<WorkloadJob> FlatJobs = closedJobs(ExecEngine::Flat);
  const std::vector<WorkloadJob> FastJobs = closedJobs(ExecEngine::FastReplay);
  std::vector<WorkloadJob> ClosedJobs = FlatJobs;
  ClosedJobs.insert(ClosedJobs.end(), FastJobs.begin(), FastJobs.end());
  const size_t NumFlat = FlatJobs.size();
  std::vector<ScenarioSpec> Streams;
  for (uint32_t S = 0; S < OpenStreams; ++S)
    Streams.push_back(ScenarioSpec::poisson(OpenRate,
                                            SeedRng.nextBelow(1u << 30))
                          .withMaxInFlight(ReplaySlots));

  // The open streams are sink-fed, which runWorkloads (buffered by
  // design) cannot do, so they fan out over the same global pool.
  auto runOpen = [&](ReplayOutput &Out) {
    Out.Open.assign(Streams.size(), RunResult());
    Out.Lat.assign(Streams.size(), LatencyAccumulator());
    Out.Fair.assign(Streams.size(), FairnessAccumulator());
    ThreadPool::global().parallelFor(Streams.size(), [&](size_t I) {
      LatencyAccumulator &Lat = Out.Lat[I];
      FairnessAccumulator &Fair = Out.Fair[I];
      Out.Open[I] = runWorkload(
          Tuned, Ws[0], L->machine(), L->sim(), OpenHorizon, Iso,
          SchedulerSpec::oblivious(), Streams[I],
          [&](const CompletedJob &Job) {
            Lat.add(Job);
            Fair.add(Job);
          });
    });
  };

  Samples Untraced, Traced;
  std::vector<std::string> RefBytes; // Iteration 0's codec output.
  std::vector<RunResult> RefClosed;
  double FoldSink = 0;
  int Iteration = 0;
  timedLoop(Seconds, Trace, [&](bool IsTraced) {
    for (int I = 0; I < ReplaySetupsPerIteration; ++I)
      setUp();
    ReplayOutput Out;
    Usage U0 = usage();
    Clock::time_point T0 = Clock::now();
    double FlatS = 0, FastS = 0, OpenS = 0;
    if (IsTraced) {
      // Three batches so each engine group is timed on its own.
      Clock::time_point T = Clock::now();
      Out.Closed = runWorkloads(FlatJobs);
      FlatS = secondsSince(T);
      T = Clock::now();
      std::vector<RunResult> Fast = runWorkloads(FastJobs);
      FastS = secondsSince(T);
      for (RunResult &R : Fast)
        Out.Closed.push_back(std::move(R));
      T = Clock::now();
      runOpen(Out);
      OpenS = secondsSince(T);
    } else {
      Out.Closed = runWorkloads(ClosedJobs);
      runOpen(Out);
    }

    Clock::time_point TFold = Clock::now();
    uint64_t StreamJobs = 0;
    for (const RunResult &R : Out.Closed) {
      FairnessMetrics F = computeFairness(R.Completed);
      LatencyMetrics Lm = computeLatency(R, L->machine());
      FoldSink += F.MaxStretch + Lm.P99Turnaround;
    }
    for (size_t I = 0; I < Out.Open.size(); ++I) {
      LatencyMetrics Lm = Out.Lat[I].finish(Out.Open[I].Horizon, L->machine());
      FoldSink += Out.Fair[I].finish().MaxFlow + Lm.P95Slowdown;
      StreamJobs += Out.Lat[I].jobs();
    }
    double FoldS = secondsSince(TFold);

    Clock::time_point TCodec = Clock::now();
    uint64_t CodecBytes = 0;
    for (const std::vector<RunResult> *Group : {&Out.Closed, &Out.Open})
      for (const RunResult &R : *Group)
        Out.Bytes.push_back(runBytes(R));
    for (const std::string &B : Out.Bytes) {
      BinaryReader Rd(B);
      Out.Decoded.emplace_back();
      Out.DecodeOk &= exp::deserializeRunResult(Rd, Out.Decoded.back());
      CodecBytes += B.size();
    }
    double CodecS = secondsSince(TCodec);
    double Wall = secondsSince(T0);
    Usage U1 = usage();

    uint64_t FlatInsts = 0, FastInsts = 0, OpenInsts = 0;
    for (size_t I = 0; I < Out.Closed.size(); ++I)
      (I < NumFlat ? FlatInsts : FastInsts) +=
          Out.Closed[I].InstructionsRetired;
    for (const RunResult &R : Out.Open)
      OpenInsts += R.InstructionsRetired;
    double MInst = (FlatInsts + FastInsts + OpenInsts) / 1e6;

    recordIteration(Untraced, Traced, IsTraced, Wall,
                    U1.CpuSeconds - U0.CpuSeconds);
    (IsTraced ? Traced : Untraced)["sim_minst_per_s"].push_back(MInst / Wall);
    if (IsTraced) {
      double FlatRate = FlatInsts / 1e6 / FlatS;
      double FastRate = FastInsts / 1e6 / FastS;
      Traced["replay.flat.s"].push_back(FlatS);
      Traced["replay.flat.minst_per_s"].push_back(FlatRate);
      Traced["replay.fast_replay.s"].push_back(FastS);
      Traced["replay.fast_replay.minst_per_s"].push_back(FastRate);
      Traced["replay.fast_over_flat"].push_back(FastRate / FlatRate);
      Traced["replay.open.s"].push_back(OpenS);
      Traced["metrics.fold_s"].push_back(FoldS);
      Traced["metrics.stream_jobs"].push_back(StreamJobs);
      Traced["shard.codec_s"].push_back(CodecS);
      Traced["shard.codec_bytes"].push_back(CodecBytes);
    }

    // Output checks (untimed). Every unit must decode back to the bytes
    // it encoded from and repeat iteration 0 bit for bit; FastReplay
    // twins must stay within the drift bound; streams must have fed
    // every completed job to both accumulators.
    if (Iteration == 0) {
      RefBytes = Out.Bytes;
      RefClosed = Out.Closed;
    }
    for (size_t I = 0; I < Out.Bytes.size(); ++I) {
      bool Ok = Out.DecodeOk && runBytes(Out.Decoded[I]) == Out.Bytes[I] &&
                Out.Bytes[I] == RefBytes[I];
      std::string What = "replay unit " + std::to_string(I);
      if (I >= NumFlat && I < Out.Closed.size()) {
        DriftReport D;
        D.merge(Out.Closed[I - NumFlat], Out.Closed[I]);
        Ok &= D.withinBound(DriftBound);
        What += " (fast_replay twin)";
      } else if (I >= Out.Closed.size()) {
        size_t S = I - Out.Closed.size();
        const RunResult &R = Out.Open[S];
        Ok &= R.Completed.empty() && R.CompletedCount > 0 &&
              Out.Lat[S].jobs() == R.CompletedCount &&
              Out.Fair[S].jobs() == R.CompletedCount;
        What += " (open stream)";
      }
      Rep.output(Ok, What);
    }
    ++Iteration;
  });
  std::fprintf(stderr, "perfbench: replay_batch %d iterations (fold %g)\n",
               Iteration, FoldSink);
  Rep.medians(Setup);
  finishReport(Rep, Untraced, Traced, Trace, usage().PeakMiB);

  // Seeded Flat units re-run on the Reference interpreter (untimed)
  // must be bit-identical.
  for (uint32_t C = 0; C < ReferenceChecks; ++C) {
    size_t I = SeedRng.nextBelow(NumFlat);
    WorkloadJob J = FlatJobs[I];
    J.Sim.Engine = ExecEngine::Reference;
    std::vector<RunResult> Ref = runWorkloads({J});
    Rep.output(runBytes(Ref[0]) == RefBytes[I],
               "replay unit " + std::to_string(I) + " vs reference engine");
  }

  // Negative self-checks: each comparator must reject a perturbed copy.
  {
    RunResult Flipped = RefClosed[0];
    if (Flipped.Completed.empty())
      Flipped.TotalCycles = flipLowBit(Flipped.TotalCycles);
    else {
      CompletedJob &Job =
          Flipped.Completed[SeedRng.nextBelow(Flipped.Completed.size())];
      Job.Completion = flipLowBit(Job.Completion);
    }
    Rep.SelfChecks.emplace_back("replay_flipped_double",
                                runBytes(Flipped) != RefBytes[0]);

    RunResult Dropped = RefClosed[NumFlat];
    bool Rejected = false;
    if (!Dropped.Completed.empty()) {
      Dropped.Completed.erase(Dropped.Completed.begin() +
                              SeedRng.nextBelow(Dropped.Completed.size()));
      --Dropped.CompletedCount;
      DriftReport D;
      D.merge(RefClosed[0], Dropped);
      Rejected = !D.withinBound(DriftBound);
    }
    Rep.SelfChecks.emplace_back("replay_dropped_job", Rejected);
  }
}

//===----------------------------------------------------------------------===//
// prepare_store
//===----------------------------------------------------------------------===//

/// The preparation matrix's techniques: the baseline, the paper's 18
/// variants, and one static-typing and one typing-error variant.
std::vector<TechniqueSpec> matrixTechniques() {
  std::vector<TechniqueSpec> Techs = {TechniqueSpec::baseline()};
  for (const TechniqueSpec &T : bench::paperTechniques())
    Techs.push_back(T);
  TechniqueSpec Static = bench::loop45();
  Static.UseStaticTyping = true;
  Techs.push_back(Static);
  TransitionConfig BB15;
  BB15.Strat = Strategy::BasicBlock;
  BB15.MinSize = 15;
  TechniqueSpec Err = TechniqueSpec::tuned(BB15, bench::defaultTuner());
  Err.TypingError = 0.10;
  Techs.push_back(Err);
  return Techs;
}

/// Cold store fills in set-up; setup_s is their median.
constexpr int PrepareSetups = 2;

struct PrepRequest {
  TechniqueSpec Tech;
  uint64_t TypingSeed = 0;
};

/// The serialized prepared program: name, marks, cost tables, then the
/// flat image (whose bytes start at \p FlatOffset when requested).
std::string programBytes(const PreparedSuite &S, size_t I,
                         size_t *FlatOffset = nullptr) {
  BinaryWriter W;
  const InstrumentedProgram &Img = *S.Images[I];
  W.str(S.Names[I]);
  W.u32(static_cast<uint32_t>(Img.marks().size()));
  for (const PhaseMark &M : Img.marks()) {
    W.u32(M.Proc);
    W.u32(M.Block);
    W.u32(M.SuccIndex);
    W.u8(static_cast<uint8_t>(M.Point));
    W.u32(M.PhaseType);
  }
  S.Costs[I]->serializeTables(W);
  if (FlatOffset)
    *FlatOffset = W.buffer().size();
  S.Flats[I]->serialize(W);
  return W.buffer();
}

std::vector<uint64_t> suiteDigests(const PreparedSuite &S) {
  std::vector<uint64_t> D;
  for (size_t I = 0; I < S.Images.size(); ++I)
    D.push_back(hashString(programBytes(S, I)));
  return D;
}

void diskUsage(const fs::path &Dir, double &Bytes, double &Files) {
  Bytes = Files = 0;
  for (const fs::directory_entry &E : fs::recursive_directory_iterator(Dir))
    if (E.is_regular_file()) {
      Bytes += static_cast<double>(E.file_size());
      Files += 1;
    }
}

void runPrepareStore(uint64_t Seed, double Seconds, bool Trace,
                     const fs::path &Tmp, Report &Rep) {
  const std::vector<MachineConfig> Machines = {
      MachineConfig::quadAsymmetric(), MachineConfig::threeCore()};
  Rng SeedRng(Seed);
  const uint64_t TypingSeeds[2] = {SeedRng.nextBelow(1u << 30),
                                   SeedRng.nextBelow(1u << 30)};
  std::vector<PrepRequest> Requests; // Per machine.
  for (const TechniqueSpec &T : matrixTechniques())
    for (uint64_t TS : TypingSeeds)
      Requests.push_back({T, TS});

  // The reference every phase is compared against: one plain recompute,
  // untimed. Labs share one program set, as the driver's labs do.
  const std::vector<Program> Programs = buildSuite();
  std::vector<std::vector<std::vector<uint64_t>>> RefDigests(Machines.size());
  for (size_t M = 0; M < Machines.size(); ++M)
    for (const PrepRequest &R : Requests)
      RefDigests[M].push_back(suiteDigests(
          prepareSuite(Programs, Machines[M], R.Tech, R.TypingSeed)));

  auto freshLab = [&](const MachineConfig &M, const fs::path &StoreDir) {
    auto L = std::make_unique<exp::Lab>(Programs, M);
    L->cache().setStore(std::make_shared<exp::CacheStore>(StoreDir));
    return L;
  };
  auto serveAll = [&](exp::Lab &L) {
    std::vector<PreparedSuite> Out;
    for (const PrepRequest &R : Requests)
      Out.push_back(L.suite(R.Tech, R.TypingSeed));
    return Out;
  };
  auto checkPhase = [&](const std::vector<PreparedSuite> &Suites, size_t M,
                        const char *Phase) {
    for (size_t R = 0; R < Suites.size(); ++R)
      Rep.output(suiteDigests(Suites[R]) == RefDigests[M][R],
                 std::string(Phase) + " suite " + std::to_string(R) +
                     " on machine " + std::to_string(M));
  };

  // Set-up: build the programs, then fill an empty store cold (pipeline
  // runs plus store writes). The fill is fsync-bound, so it sits in
  // set-up, where disk-latency swings cannot blur the timed phase. The
  // first filled store serves the warm phases.
  Samples Setup;
  fs::path WarmDir;
  double StoreBytes = 0, StoreFiles = 0;
  uint64_t ColdPrepared = 0, ColdStoreHits = 0;
  for (int Sample = 0; Sample < PrepareSetups; ++Sample) {
    fs::path Dir = Tmp / ("store-" + std::to_string(Sample));
    fs::create_directories(Dir);
    Clock::time_point T0 = Clock::now();
    std::vector<Program> Built = buildSuite();
    double SetupS = secondsSince(T0);
    double ColdS = 0;
    ColdPrepared = ColdStoreHits = 0;
    // Machines one after the other, so only one lab's suites are alive.
    for (size_t M = 0; M < Machines.size(); ++M) {
      auto L = freshLab(Machines[M], Dir);
      Clock::time_point T1 = Clock::now();
      std::vector<PreparedSuite> Suites = serveAll(*L);
      ColdS += secondsSince(T1);
      checkPhase(Suites, M, "cold");
      ColdPrepared += L->cache().preparedPrograms();
      ColdStoreHits += L->cache().programStoreHits();
    }
    Setup["setup_s"].push_back(SetupS + ColdS);
    Setup["prep.cold_s"].push_back(ColdS);
    if (WarmDir.empty()) {
      WarmDir = Dir;
      diskUsage(Dir, StoreBytes, StoreFiles);
    } else {
      fs::remove_all(Dir);
    }
  }
  Rep.medians(Setup);
  Rep.Metrics["store.bytes"] = StoreBytes;
  Rep.Metrics["store.files"] = StoreFiles;
  Rep.Metrics["suite_cache.prepared_programs"] = ColdPrepared;
  Rep.Metrics["suite_cache.program_store_hits"] = ColdStoreHits;

  // Timed phase: recompute, then fresh labs on the filled store (warm
  // reads), then the same labs again (memory hits).
  const double ProgramRequests =
      3.0 * Machines.size() * Requests.size() * Programs.size();
  Samples Untraced, Traced;
  timedLoop(Seconds, Trace, [&](bool IsTraced) {
    double Wall = 0, Cpu = 0;
    double PhaseS[3] = {0, 0, 0};
    auto timed = [&](int Phase, auto &&Fn) {
      Usage U0 = usage();
      Clock::time_point T0 = Clock::now();
      auto Result = Fn();
      double S = secondsSince(T0);
      PhaseS[Phase] += S;
      Wall += S;
      Cpu += usage().CpuSeconds - U0.CpuSeconds;
      return Result;
    };
    PipelineStats PassesBefore = cumulativePipelineStats();
    for (size_t M = 0; M < Machines.size(); ++M) {
      checkPhase(timed(0,
                       [&] {
                         std::vector<PreparedSuite> Out;
                         for (const PrepRequest &R : Requests)
                           Out.push_back(prepareSuite(Programs, Machines[M],
                                                      R.Tech, R.TypingSeed));
                         return Out;
                       }),
                 M, "recompute");
      auto L = freshLab(Machines[M], WarmDir);
      checkPhase(timed(1, [&] { return serveAll(*L); }), M, "warm");
      checkPhase(timed(2, [&] { return serveAll(*L); }), M, "memory-hit");
    }
    PipelineStats PassesAfter = cumulativePipelineStats();

    recordIteration(Untraced, Traced, IsTraced, Wall, Cpu);
    (IsTraced ? Traced : Untraced)["programs_per_s"].push_back(
        ProgramRequests / Wall);
    if (IsTraced) {
      Traced["prep.recompute_s"].push_back(PhaseS[0]);
      Traced["prep.warm_s"].push_back(PhaseS[1]);
      Traced["prep.memory_hit_s"].push_back(PhaseS[2]);
      Traced["prep.warm_over_recompute"].push_back(PhaseS[1] / PhaseS[0]);
      for (const PassStats &After : PassesAfter.Passes) {
        PassStats Before;
        for (const PassStats &P : PassesBefore.Passes)
          if (P.Name == After.Name)
            Before = P;
        std::string Key = "prep.pass." + After.Name;
        Traced[Key + ".invocations"].push_back(After.Invocations -
                                               Before.Invocations);
        Traced[Key + ".programs_changed"].push_back(After.ProgramsChanged -
                                                    Before.ProgramsChanged);
        Traced[Key + ".s"].push_back(After.Seconds - Before.Seconds);
      }
    }
  });
  fs::remove_all(WarmDir);
  finishReport(Rep, Untraced, Traced, Trace, usage().PeakMiB);

  // Negative self-check: one changed flat-image byte must change the
  // prepared-program digest the phase comparator uses.
  PreparedSuite Suite = prepareSuite(Programs, Machines[0], Requests[0].Tech,
                                     Requests[0].TypingSeed);
  size_t FlatOffset = 0;
  std::string Bytes =
      programBytes(Suite, SeedRng.nextBelow(Programs.size()), &FlatOffset);
  std::string Perturbed = Bytes;
  Perturbed[FlatOffset + SeedRng.nextBelow(Bytes.size() - FlatOffset)] ^= 0x01;
  Rep.SelfChecks.emplace_back("prepare_flat_image_byte",
                              hashString(Perturbed) != hashString(Bytes));
}

int usageError() {
  std::fprintf(stderr,
               "usage: pbt_perfbench <replay_batch|prepare_store> --seed N "
               "--seconds S --trace 0|1 --tmp DIR\n"
               "       pbt_perfbench --conditions\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::strcmp(Argv[1], "--conditions") == 0) {
    std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                PBT_PERFBENCH_COMPILER, PBT_PERFBENCH_BUILD_TYPE);
    return 0;
  }
  if (Argc != 10)
    return usageError();
  std::string Workload = Argv[1];
  uint64_t Seed = 0;
  double Seconds = -1;
  int Trace = -1;
  std::string Tmp;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    if (Flag == "--seed")
      Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      Trace = std::atoi(Value);
    else if (Flag == "--tmp")
      Tmp = Value;
    else
      return usageError();
  }
  if (Seconds <= 0 || (Trace != 0 && Trace != 1) || Tmp.empty() ||
      !fs::is_directory(Tmp))
    return usageError();
  // Stores are attached explicitly; a Lab must never pick one up from
  // the environment.
  unsetenv("PBT_CACHE_DIR");

  Report Rep;
  if (Workload == "replay_batch")
    runReplayBatch(Seed, Seconds, Trace == 1, Rep);
  else if (Workload == "prepare_store")
    runPrepareStore(Seed, Seconds, Trace == 1, fs::path(Tmp), Rep);
  else
    return usageError();
  std::fflush(stderr);
  Rep.print();
  return 0;
}

//===- bench/micro_interpreter.cpp - execution-engine microbenchmark ------===//
//
// Measures the simulator's inner loop: interpreted blocks/sec and
// simulated cycles/sec for all three execution engines — the
// block-at-a-time reference interpreter, the exact flat-image engine,
// and the validated fast-replay engine — on three images: the suite's
// heaviest workload (410.bwaves) plain and Loop[45]-instrumented, plus
// a chain-heavy synthetic (long mark-free jump chains inside a
// high-trip-count loop) that isolates the fused-chain fast path.
//
// Alongside raw throughput the artifact carries a DriftReport: the
// fast-replay engine replays a small mixed workload against its exact
// twin, and the report records whether integer stats and completion
// order were identical and how far cycle totals drifted — the
// promotion contract docs/ARCHITECTURE.md documents and
// tests/fastreplay_test.cpp enforces.
//
// Emits BENCH_interpreter.json alongside the human-readable table so the
// interpreter's performance trajectory is tracked across PRs.
// Each engine x image cell takes PBT_INTERP_REPS samples (default 5) of
// at least 100 ms each and reports the median and interquartile range
// of blocks/sec; PBT_BENCH_SCALE scales the chain-heavy trip count.
// PBT_INTERP_MIN_FAST_SPEEDUP, when set > 0, is a hard floor on the
// fast-replay-vs-flat blocks/sec ratio on the chain-heavy image, and
// PBT_INTERP_MIN_FLAT_SPEEDUP one on the flat-vs-reference ratio on the
// plain image (where the self-loop kernel does nearly all the work):
// the benchmark exits nonzero below either (the CI perf-smoke gates).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/IRBuilder.h"
#include "workload/Drift.h"

#include <algorithm>
#include <chrono>
#include <memory>

using namespace pbt;
using namespace pbt::bench;

namespace {

/// Minimum wall time of one sample: a sample replays the benchmark as
/// many times as it takes to fill this, so even a fast engine on a short
/// image is timed over many timer ticks.
constexpr double MinSampleSec = 0.1;

struct EngineResult {
  /// Blocks and simulated cycles of one run (deterministic).
  uint64_t Blocks = 0;
  double Cycles = 0;
  /// Runs over all samples.
  uint64_t Runs = 0;
  /// Blocks/sec across the samples.
  BoxSummary BlocksPerSec;
  /// Wall seconds of one run at the median rate.
  double wallSec() const {
    return BlocksPerSec.Median > 0 ? Blocks / BlocksPerSec.Median : 0;
  }
  double cyclesPerSec() const {
    return wallSec() > 0 ? Cycles / wallSec() : 0;
  }
};

/// Runs benchmark \p Bench of \p Suite alone to completion under \p SC,
/// back to back until MinSampleSec has passed, and records the sample's
/// blocks/sec (machine setup excluded); \p Samples such samples give the
/// median and quartiles.
EngineResult measure(const PreparedSuite &Suite, uint32_t Bench,
                     const MachineConfig &MC, const SimConfig &SC,
                     int Samples) {
  EngineResult R;
  std::vector<double> Rates;
  for (int Sample = 0; Sample < Samples; ++Sample) {
    double Wall = 0;
    uint64_t Blocks = 0;
    while (Wall < MinSampleSec) {
      Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
      uint32_t Pid =
          M.spawn(Suite.Images[Bench], Suite.Costs[Bench], Suite.Tuner,
                  /*Seed=*/1, /*Slot=*/-1, /*InitialAffinity=*/0,
                  Suite.Flats[Bench]);
      auto Start = std::chrono::steady_clock::now();
      while (M.process(Pid).CompletionTime < 0)
        M.run(M.now() + 64);
      Wall += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
      const Process &P = M.process(Pid);
      Blocks += P.Stats.BlocksExecuted;
      R.Blocks = P.Stats.BlocksExecuted;
      R.Cycles = P.Stats.CyclesConsumed;
      ++R.Runs;
    }
    Rates.push_back(Blocks / Wall);
  }
  R.BlocksPerSec = summarize(std::move(Rates));
  return R;
}

Json engineJson(const EngineResult &R) {
  Json J = Json::object();
  J["wall_s"] = R.wallSec();
  J["blocks"] = R.Blocks;
  J["cycles"] = R.Cycles;
  J["runs"] = R.Runs;
  J["blocks_per_sec"] = R.BlocksPerSec.Median;
  J["blocks_per_sec_q1"] = R.BlocksPerSec.Q1;
  J["blocks_per_sec_q3"] = R.BlocksPerSec.Q3;
  J["blocks_per_sec_iqr"] = R.BlocksPerSec.Q3 - R.BlocksPerSec.Q1;
  J["cycles_per_sec"] = R.cyclesPerSec();
  return J;
}

/// The fused-chain fast path's best case, shaped like the inner loop of
/// a straight-line kernel: \p ChainLen mark-free Jump blocks in a row
/// inside a loop latch with \p Trips iterations. Uninstrumented, every
/// body block lowers to FlatOp::Chain, so the fast-replay engine
/// retires the whole body as one fused charge per iteration while the
/// exact engines step all ChainLen blocks.
Program buildChainHeavy(uint32_t ChainLen, uint32_t Trips) {
  IRBuilder B("chain_heavy", /*Seed=*/7);
  uint32_t Main = B.createProc("main");
  uint32_t Entry = B.addBlock(Main);

  std::vector<uint32_t> Body;
  for (uint32_t I = 0; I < ChainLen; ++I) {
    uint32_t Blk = B.addBlock(Main);
    B.appendMix(Main, Blk, InstMix::compute(/*Count=*/12));
    Body.push_back(Blk);
  }
  B.setJump(Main, Entry, Body.front());
  for (uint32_t I = 0; I + 1 < ChainLen; ++I)
    B.setJump(Main, Body[I], Body[I + 1]);

  uint32_t Latch = B.addBlock(Main);
  B.appendMix(Main, Latch, InstMix::compute(/*Count=*/4));
  B.setJump(Main, Body.back(), Latch);
  uint32_t Exit = B.addBlock(Main);
  B.setRet(Main, Exit);
  B.setLoop(Main, Latch, Body.front(), Exit, Trips);
  return B.take();
}

} // namespace

int main() {
  ExperimentHarness H("interpreter", "Micro: execution-engine throughput",
                      "interpreter perf tracking (no paper figure)");

  const char *WorkloadName = "410.bwaves";
  Program Prog;
  for (const BenchSpec &S : specSuite())
    if (S.Name == WorkloadName)
      Prog = buildBenchmark(S);
  std::vector<Program> Programs;
  Programs.push_back(std::move(Prog));
  // Scale the chain-heavy trip count with the bench scale, but keep a
  // floor: the CI gate reads this row's speedup, so even a smoke run
  // must execute enough blocks for the ratio to be signal, not timer
  // noise.
  uint32_t Trips = static_cast<uint32_t>(
      std::max(10000.0, 20000 * H.scale()));
  Programs.push_back(buildChainHeavy(/*ChainLen=*/48, Trips));

  Lab &L = H.customLab(std::move(Programs),
                       MachineConfig::quadAsymmetric());
  PreparedSuite Plain = L.suite(TechniqueSpec::baseline());
  PreparedSuite Marked = L.suite(loop45());

  int Reps = static_cast<int>(
      std::max<int64_t>(1, envInt("PBT_INTERP_REPS", 5)));

  SimConfig Reference;
  Reference.Engine = ExecEngine::Reference;
  SimConfig Flat;
  Flat.Engine = ExecEngine::Flat;
  SimConfig Fast;
  Fast.Engine = ExecEngine::FastReplay;
  const SimConfig *Sims[3] = {&Reference, &Flat, &Fast};

  struct Row {
    const char *Image;
    const char *Key;
    uint32_t Bench;
    const PreparedSuite *Suite;
    const SimConfig *Sim;
    EngineResult R;
  };
  std::vector<Row> Rows;
  struct ImageSpec {
    const char *Name;
    uint32_t Bench;
    const PreparedSuite *Suite;
  };
  const ImageSpec Images[3] = {{"plain", 0, &Plain},
                               {"instrumented", 0, &Marked},
                               {"chain_heavy", 1, &Plain}};
  for (const ImageSpec &Img : Images)
    for (const SimConfig *SC : Sims)
      Rows.push_back({Img.Name, engineName(SC->Engine), Img.Bench,
                      Img.Suite, SC, {}});
  for (Row &Entry : Rows)
    Entry.R = measure(*Entry.Suite, Entry.Bench, L.machine(), *Entry.Sim,
                      Reps);

  Table T({"image", "engine", "wall s", "Mblocks/s", "IQR", "Mcycles/s",
           "vs reference"});
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &Entry = Rows[I];
    const BoxSummary &Rate = Entry.R.BlocksPerSec;
    double Ref = Rows[I - I % 3].R.BlocksPerSec.Median;
    T.addRow({Entry.Image, Entry.Key, Table::fmt(Entry.R.wallSec(), 4),
              Table::fmt(Rate.Median / 1e6, 2),
              Table::fmt((Rate.Q3 - Rate.Q1) / 1e6, 2),
              Table::fmt(Entry.R.cyclesPerSec() / 1e6, 1),
              Ref > 0 ? Table::fmt(Rate.Median / Ref, 2) + "x"
                      : "-"});
  }
  H.table(T);

  const FlatImage &FI = *Plain.Flats[1];
  std::printf("\nchain-heavy flat image: %u blocks, %u chain records "
              "(%.0f%%), %u configs/block\n",
              FI.numBlocks(), FI.chainRecordCount(),
              100.0 * FI.chainRecordCount() / FI.numBlocks(),
              FI.configStride());

  // Per-image fast-replay-vs-flat ratios (rows are image-major:
  // reference, flat, fast_replay).
  double Speedups[3];
  for (int Img = 0; Img < 3; ++Img) {
    double FlatBps = Rows[Img * 3 + 1].R.BlocksPerSec.Median;
    Speedups[Img] =
        FlatBps > 0 ? Rows[Img * 3 + 2].R.BlocksPerSec.Median / FlatBps : 0;
  }
  std::printf("fast-replay-vs-flat speedup: %.2fx plain, %.2fx "
              "instrumented, %.2fx chain-heavy (acceptance: >= 1.5x "
              "chain-heavy)\n",
              Speedups[0], Speedups[1], Speedups[2]);

  // Validation twin-run: the same mixed workload over both images,
  // replayed exactly and fast, folded into the promotion checker.
  DriftReport Drift;
  {
    Workload W = Workload::random(/*NumSlots=*/4, /*JobsPerSlot=*/16,
                                  /*NumBenchmarks=*/2, /*Seed=*/21);
    // Deliberately unscaled: even a smoke run (tiny PBT_BENCH_SCALE)
    // must compare a meaningful number of completed jobs for the
    // promotion check to mean anything.
    double Horizon = 120;
    RunResult Exact = runWorkload(Plain, W, L.machine(), Flat, Horizon);
    RunResult FastRun = runWorkload(Plain, W, L.machine(), Fast, Horizon);
    Drift.merge(Exact, FastRun);
  }
  std::printf("drift report: %zu jobs, integer stats %s, order %s, max "
              "rel cycle drift %.2e\n",
              Drift.Jobs, Drift.IntegerStatsIdentical ? "identical" : "DIVERGED",
              Drift.CompletionOrderIdentical ? "identical" : "DIVERGED",
              Drift.MaxRelCycleDrift);

  Json &Extra = H.json();
  Extra["workload"] = WorkloadName;
  Extra["repetitions"] = Reps;
  Extra["min_sample_s"] = MinSampleSec;
  for (const Row &Entry : Rows)
    Extra[Entry.Image][Entry.Key] = engineJson(Entry.R);
  Extra["speedup_fast_plain"] = Speedups[0];
  Extra["speedup_fast_instrumented"] = Speedups[1];
  Extra["speedup_fast_chain_heavy"] = Speedups[2];
  // Kept under their historical names so trajectory tooling keeps
  // working: flat-vs-reference on the bwaves image.
  double RefPlain = Rows[0].R.BlocksPerSec.Median;
  double RefMarked = Rows[3].R.BlocksPerSec.Median;
  double FlatPlain =
      RefPlain > 0 ? Rows[1].R.BlocksPerSec.Median / RefPlain : 0;
  Extra["speedup_flat_plain"] = FlatPlain;
  Extra["speedup_flat_instrumented"] =
      RefMarked > 0 ? Rows[4].R.BlocksPerSec.Median / RefMarked : 0;
  Json D = Json::object();
  D["runs"] = Drift.Runs;
  D["jobs"] = Drift.Jobs;
  D["integer_stats_identical"] = Drift.IntegerStatsIdentical;
  D["completion_order_identical"] = Drift.CompletionOrderIdentical;
  D["max_rel_cycle_drift"] = Drift.MaxRelCycleDrift;
  D["max_rel_completion_drift"] = Drift.MaxRelCompletionDrift;
  D["max_rel_total_cycle_drift"] = Drift.MaxRelTotalCycleDrift;
  Extra["fast_replay_drift"] = std::move(D);

  int Rc = H.finish();

  // CI perf-smoke gate: a fast-replay regression that loses the fused
  // chain win fails the build, not just the dashboard. The drift
  // contract is enforced whenever the gate is armed, too.
  double Floor = envDouble("PBT_INTERP_MIN_FAST_SPEEDUP", 0);
  if (Floor > 0) {
    if (Speedups[2] < Floor) {
      std::fprintf(stderr,
                   "FAIL: fast-replay chain-heavy speedup %.2fx below "
                   "PBT_INTERP_MIN_FAST_SPEEDUP=%.2fx\n",
                   Speedups[2], Floor);
      return 1;
    }
    if (!Drift.withinBound(1e-9)) {
      std::fprintf(stderr, "FAIL: fast-replay drift outside the "
                           "promotion bound (see drift report above)\n");
      return 1;
    }
  }
  // Same idiom for the exact engine: losing the self-loop kernel (or its
  // closed form and reach memo) drops plain-image flat throughput to a
  // few times reference's.
  double FlatFloor = envDouble("PBT_INTERP_MIN_FLAT_SPEEDUP", 0);
  if (FlatFloor > 0 && FlatPlain < FlatFloor) {
    std::fprintf(stderr,
                 "FAIL: flat plain-image speedup %.2fx below "
                 "PBT_INTERP_MIN_FLAT_SPEEDUP=%.2fx\n",
                 FlatPlain, FlatFloor);
    return 1;
  }
  return Rc;
}

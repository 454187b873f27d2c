//===- workload/Benchmarks.cpp - SPEC-like synthetic suite ----------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/Benchmarks.h"

#include "ir/IRBuilder.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;

namespace {

/// Rough fast-core CPI of a phase body, used only for trip-count
/// calibration (the simulator computes exact costs later).
double estimateCpi(const PhaseSpec &Phase, double FastFrequency) {
  if (!Phase.Memory)
    return 0.255 + 0.2 * Phase.FpShare;
  double MissPenalty = FastFrequency * 8.3e-6; // Matches MachineConfig.
  return 0.265 + 0.5 * Phase.ColdFrac * MissPenalty;
}

InstMix phaseMix(const PhaseSpec &Phase) {
  if (Phase.Memory)
    return InstMix::memory(Phase.BodyInsts, Phase.ColdLines, Phase.ColdFrac);
  return InstMix::compute(Phase.BodyInsts, Phase.FpShare);
}

/// Small filler mix matching a phase's flavour, for entry/join/latch
/// blocks, so single-flavour benchmarks stay uniformly typed.
InstMix fillerMix(const PhaseSpec &Flavor, unsigned Count = 12) {
  if (Flavor.Memory) {
    InstMix Mix = InstMix::memory(Count, Flavor.ColdLines, Flavor.ColdFrac);
    return Mix;
  }
  return InstMix::compute(Count, Flavor.FpShare);
}

/// Small "noise" loop sizes cycled through between phases; sized to
/// straddle the paper's minimum-size thresholds (10..60).
constexpr unsigned NoiseSizes[] = {12, 18, 26, 34, 42, 52};

} // namespace

Program pbt::buildBenchmark(const BenchSpec &Spec, double FastFrequency) {
  assert(!Spec.Phases.empty() && "benchmark needs at least one phase");
  uint64_t Seed = 0xB5;
  for (char C : Spec.Name)
    Seed = Seed * 131 + static_cast<unsigned char>(C);
  IRBuilder B(Spec.Name, Seed);

  uint32_t Main = B.createProc("main");
  const PhaseSpec &Flavor0 = Spec.Phases.front();

  uint32_t Entry = B.addBlock(Main);
  B.appendMix(Main, Entry, fillerMix(Flavor0, 20));

  // Open block awaiting its terminator; each construction step chains on.
  uint32_t Cur = Entry;
  uint32_t OuterHead = UINT32_MAX;
  if (Spec.Alternations > 1) {
    OuterHead = B.addBlock(Main);
    B.appendMix(Main, OuterHead, fillerMix(Flavor0, 8));
    B.setJump(Main, Entry, OuterHead);
    Cur = OuterHead;
  }

  double CyclesPerActivation = Spec.TargetSeconds * FastFrequency /
                               static_cast<double>(Spec.Alternations);

  unsigned NoiseCursor = Seed % 6;
  for (size_t PhaseIndex = 0; PhaseIndex < Spec.Phases.size();
       ++PhaseIndex) {
    const PhaseSpec &Phase = Spec.Phases[PhaseIndex];
    double Cpi = estimateCpi(Phase, FastFrequency);
    double Trips = Phase.Share * CyclesPerActivation /
                   (static_cast<double>(Phase.BodyInsts) * Cpi);
    uint32_t TripCount =
        static_cast<uint32_t>(std::max(1.0, std::round(Trips)));

    if (Phase.InCallee) {
      // Helper procedure holding the phase loop.
      uint32_t Callee =
          B.createProc(Spec.Name + "_f" + std::to_string(PhaseIndex));
      uint32_t CalleeEntry = B.addBlock(Callee);
      B.appendMix(Callee, CalleeEntry, fillerMix(Phase, 8));
      uint32_t Body = B.addBlock(Callee);
      B.appendMix(Callee, Body, phaseMix(Phase));
      uint32_t CalleeExit = B.addBlock(Callee);
      B.appendMix(Callee, CalleeExit, fillerMix(Phase, 6));
      B.setJump(Callee, CalleeEntry, Body);
      B.setLoop(Callee, Body, Body, CalleeExit, TripCount);
      B.setRet(Callee, CalleeExit);

      uint32_t CallBlock = B.addBlock(Main);
      B.appendMix(Main, CallBlock, fillerMix(Flavor0, 6));
      B.appendCall(Main, CallBlock, Callee);
      B.setJump(Main, Cur, CallBlock);
      uint32_t Join = B.addBlock(Main);
      B.appendMix(Main, Join, fillerMix(Flavor0, 6));
      B.setJump(Main, CallBlock, Join);
      Cur = Join;
    } else {
      uint32_t Body = B.addBlock(Main);
      B.appendMix(Main, Body, phaseMix(Phase));
      B.setJump(Main, Cur, Body);
      uint32_t Join = B.addBlock(Main);
      B.appendMix(Main, Join, fillerMix(Flavor0, 6));
      B.setLoop(Main, Body, Body, Join, TripCount);
      Cur = Join;
    }

    // A tiny opposite-typed noise loop after each phase but the last:
    // too small to be a section under larger minimum sizes, marked (and
    // costly) under small ones — this is what differentiates the
    // BB[10..20] / Int and Loop minimum-size variants.
    if (PhaseIndex + 1 < Spec.Phases.size()) {
      PhaseSpec Noise;
      Noise.Memory = !Phase.Memory;
      Noise.ColdFrac = 0.08;
      Noise.ColdLines = 131072;
      Noise.FpShare = 0.3;
      unsigned Size = NoiseSizes[NoiseCursor++ % 6];
      uint32_t NoiseBody = B.addBlock(Main);
      B.appendMix(Main, NoiseBody, fillerMix(Noise, Size));
      B.setJump(Main, Cur, NoiseBody);
      uint32_t Join = B.addBlock(Main);
      B.appendMix(Main, Join, fillerMix(Flavor0, 6));
      B.setLoop(Main, NoiseBody, NoiseBody, Join, 3 + NoiseCursor % 3);
      Cur = Join;
    }
  }

  if (Spec.Alternations > 1) {
    // Conditional diamond before the latch (branch-outcome coverage);
    // both arms share the benchmark's base flavour.
    uint32_t Left = B.addBlock(Main);
    uint32_t Right = B.addBlock(Main);
    uint32_t Latch = B.addBlock(Main);
    B.appendMix(Main, Left, fillerMix(Flavor0, 10));
    B.appendMix(Main, Right, fillerMix(Flavor0, 14));
    B.appendMix(Main, Latch, fillerMix(Flavor0, 6));
    B.setCond(Main, Cur, Left, Right, 0.5);
    B.setJump(Main, Left, Latch);
    B.setJump(Main, Right, Latch);
    uint32_t Exit = B.addBlock(Main);
    B.appendMix(Main, Exit, fillerMix(Flavor0, 6));
    B.setLoop(Main, Latch, OuterHead, Exit, Spec.Alternations);
    Cur = Exit;
  }

  B.setRet(Main, Cur);

  // Cold code: never-executed procedures padding the binary like the
  // utility/error paths of a real executable. About a third are
  // mixed-flavour (they contain phase transitions the static marker will
  // instrument, contributing space overhead but never dynamic cost).
  Rng ColdGen(Seed ^ 0xC01DC0DEULL);
  // Straight-line block sizes straddle the BB minimum sizes (10/15/20);
  // loop-block sizes straddle the section minimum sizes (30/45/60), so
  // every variant of the paper's grid filters a different subset.
  constexpr unsigned StraightSizes[] = {12, 18, 26, 60, 140, 220};
  constexpr unsigned LoopSizes[] = {12, 24, 38, 52, 68};
  unsigned Remaining = Spec.ColdCodeInsts;
  unsigned ColdIndex = 0;
  while (Remaining > 300) {
    uint32_t Proc =
        B.createProc(Spec.Name + "_cold" + std::to_string(ColdIndex));
    bool Mixed = ColdIndex % 8 == 4;
    bool MemFlavor = ColdIndex % 2 == 1;
    unsigned NumBlocks = 3 + static_cast<unsigned>(ColdGen.nextBelow(4));
    unsigned Emitted = 0;
    uint32_t Prev = UINT32_MAX;
    for (unsigned BlockIndex = 0; BlockIndex < NumBlocks; ++BlockIndex) {
      uint32_t Block = B.addBlock(Proc);
      bool WillLoop = Prev != UINT32_MAX && BlockIndex % 2 == 1;
      unsigned Size = WillLoop ? LoopSizes[ColdGen.nextBelow(5)]
                               : StraightSizes[ColdGen.nextBelow(6)];
      bool ThisMem = Mixed ? (BlockIndex % 2 == 1) : MemFlavor;
      InstMix Mix = ThisMem ? InstMix::memory(Size, 131072, 0.08)
                            : InstMix::compute(Size, 0.35);
      B.appendMix(Proc, Block, Mix);
      Emitted += Size;
      if (Prev != UINT32_MAX) {
        // Chain; make every other block a small self-loop so the loop
        // and interval analyses see structure in cold code too.
        if (BlockIndex % 2 == 1) {
          uint32_t Join = B.addBlock(Proc);
          B.appendMix(Proc, Join, InstMix::compute(4, 0.0));
          B.setJump(Proc, Prev, Block);
          B.setLoop(Proc, Block, Block, Join, 2);
          Prev = Join;
          Emitted += 4;
          continue;
        }
        B.setJump(Proc, Prev, Block);
      }
      Prev = Block;
    }
    B.setRet(Proc, Prev);
    Remaining = Remaining > Emitted ? Remaining - Emitted : 0;
    ++ColdIndex;
  }
  return B.take();
}

std::vector<BenchSpec> pbt::specSuite() {
  auto C = [](double Share, double Fp = 0.4) {
    PhaseSpec P;
    P.Memory = false;
    P.Share = Share;
    P.FpShare = Fp;
    return P;
  };
  auto M = [](double Share, double ColdFrac = 0.05,
              unsigned ColdLines = 131072) {
    PhaseSpec P;
    P.Memory = true;
    P.Share = Share;
    P.ColdFrac = ColdFrac;
    P.ColdLines = ColdLines;
    return P;
  };
  auto InCallee = [](PhaseSpec P) {
    P.InCallee = true;
    return P;
  };

  // Names, target runtimes (log-compressed from the paper's Table 1
  // isolated runtimes), alternation counts (calibrated to Table 1 switch
  // counts: switches ~ 2 * alternations), and phase structures. Cold
  // fractions keep L2 miss-per-instruction rates in the few-percent range
  // of real SPEC codes, which places the slow-vs-fast IPC gap of
  // memory-bound phases near 0.22-0.28 (above the paper's delta of
  // 0.15-0.2) while compute phases sit near 0.
  // Alternation counts are the paper's Table 1 switch counts divided by
  // ~100 (the simulation's time-scale factor), preserving the per-
  // benchmark ordering while keeping every phase long enough to amortize
  // the 1000-cycle switch, as on the real machine.
  // Phase shares are chosen so the suite's aggregate memory-phase time
  // (~0.4 of total) matches the slow cores' capacity share of the quad
  // machine (2x1.6 / (2x2.4 + 2x1.6) = 0.4): phase-based tuning can then
  // keep both core types saturated, as in the paper's workloads.
  std::vector<BenchSpec> Suite;
  Suite.push_back({"164.gzip", 1.5, 2,
                   {C(0.4), M(0.3, 0.10, 70000), C(0.3)}, 13000});
  Suite.push_back({"179.art", 2.2, 2,
                   {C(0.25), M(0.5, 0.12), C(0.25)}, 15000});
  Suite.push_back({"175.vpr", 2.2, 2,
                   {C(0.3), M(0.2, 0.10, 40000), C(0.3), M(0.2, 0.08)},
                   16000});
  Suite.push_back({"473.astar", 2.2, 1, {C(1.0)}, 14000});
  Suite.push_back({"181.mcf", 2.3, 2,
                   {C(0.2), M(0.3, 0.12), C(0.2), M(0.3, 0.10)}, 15000});
  Suite.push_back({"183.equake", 2.3, 76,
                   {C(0.5), InCallee(M(0.5, 0.10, 65536))}, 15000});
  Suite.push_back({"188.ammp", 2.4, 2,
                   {C(0.5), M(0.1, 0.10), C(0.4)}, 17000});
  Suite.push_back({"172.mgrid", 3.7, 20,
                   {C(0.55), M(0.45, 0.09, 100000)}, 16000});
  Suite.push_back({"401.bzip2", 5.2, 48,
                   {InCallee(C(0.55)), M(0.45, 0.10, 90000)}, 18000});
  Suite.push_back({"429.mcf", 7.7, 2,
                   {C(0.15), M(0.25, 0.3, 250000), C(0.15), M(0.25, 0.12),
                    C(0.05), M(0.15, 0.10, 80000)},
                   20000});
  Suite.push_back({"470.lbm", 8.6, 8,
                   {M(0.45, 0.12, 150000), C(0.55)}, 17000});
  Suite.push_back({"459.GemsFDTD", 12.0, 1,
                   {InCallee(M(1.0, 0.10))}, 22000});
  Suite.push_back({"173.applu", 14.2, 12,
                   {C(0.55), InCallee(M(0.45, 0.09, 120000))}, 21000});
  Suite.push_back({"171.swim", 18.0, 32,
                   {M(0.35, 0.10, 180000), C(0.65)}, 19000});
  Suite.push_back({"410.bwaves", 40.0, 12,
                   {M(0.3, 0.09, 260000), C(0.7)}, 26000});
  return Suite;
}

std::vector<Program> pbt::buildSuite(double FastFrequency) {
  std::vector<BenchSpec> Specs = specSuite();
  std::vector<Program> Programs(Specs.size());
  ThreadPool::global().parallelFor(Specs.size(), [&](size_t I) {
    Programs[I] = buildBenchmark(Specs[I], FastFrequency);
  });
  return Programs;
}

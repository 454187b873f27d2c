//===- tests/obs_test.cpp - Two-plane observability contracts -------------===//
//
// Plane 1 (obs/Trace.h): TRACE_*.json files are a pure function of the
// replay — byte-identical across all three execution engines, across
// serial and pooled execution, and unperturbed observers (a traced run's
// RunResult is bit-identical to the untraced run). The streaming writer
// holds bounded memory however long the run is. Plane 2 (obs/Counters.h,
// obs/Span.h): registry semantics, snapshot shape, span accounting.
//
//===----------------------------------------------------------------------===//

#include "TestDirs.h"

#include "ir/IRBuilder.h"
#include "obs/Clock.h"
#include "obs/Counters.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/Rng.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace pbt;

namespace {

/// Same generator family as tests/fastreplay_test.cpp: random but
/// guaranteed-terminating programs that exercise monitoring and
/// migration.
Program randomProgram(uint64_t Seed) {
  Rng Gen(Seed);
  IRBuilder B("random_" + std::to_string(Seed), Seed);
  uint32_t NumProcs = 2 + static_cast<uint32_t>(Gen.nextBelow(3));
  std::vector<uint32_t> BlockCounts;
  for (uint32_t P = 0; P < NumProcs; ++P) {
    B.createProc(P == 0 ? "main" : "helper" + std::to_string(P));
    BlockCounts.push_back(6 + static_cast<uint32_t>(Gen.nextBelow(10)));
  }
  for (uint32_t P = 0; P < NumProcs; ++P) {
    uint32_t N = BlockCounts[P];
    for (uint32_t I = 0; I < N; ++I)
      B.addBlock(P);
    for (uint32_t I = 0; I < N; ++I) {
      bool Memory = Gen.nextBool(0.4);
      unsigned Count = 8 + static_cast<unsigned>(Gen.nextBelow(120));
      InstMix Mix =
          Memory
              ? InstMix::memory(
                    Count,
                    1u << (15 + static_cast<unsigned>(Gen.nextBelow(4))),
                    0.1 + 0.4 * Gen.nextDouble())
              : InstMix::compute(Count, 0.85 * Gen.nextDouble());
      B.appendMix(P, I, Mix);

      if (I == N - 1) {
        B.setRet(P, I);
        continue;
      }
      double Roll = Gen.nextDouble();
      if (Roll < 0.3) {
        B.setJump(P, I, I + 1);
      } else if (Roll < 0.5) {
        uint32_t Other =
            I + 1 + static_cast<uint32_t>(Gen.nextBelow(N - I - 1));
        B.setCond(P, I, I + 1, Other, 0.1 + 0.8 * Gen.nextDouble());
      } else if (Roll < 0.8) {
        B.setLoop(P, I, I, I + 1,
                  20 + static_cast<uint32_t>(Gen.nextBelow(700)));
      } else if (Roll < 0.95 && P + 1 < NumProcs) {
        uint32_t Callee =
            P + 1 + static_cast<uint32_t>(Gen.nextBelow(NumProcs - P - 1));
        B.appendCall(P, I, Callee);
        B.setJump(P, I, I + 1);
      } else if (I >= 2) {
        B.setRet(P, I);
      } else {
        B.setJump(P, I, I + 1);
      }
    }
  }
  return B.take();
}

TechniqueSpec loopTechnique() {
  TransitionConfig TC;
  TC.Strat = Strategy::Loop;
  TC.MinSize = 30;
  TunerConfig TU;
  TU.IpcDelta = 0.2;
  return TechniqueSpec::tuned(TC, TU);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Traced replay of (suite, workload) under \p Engine into \p Path;
/// returns the RunResult.
RunResult tracedRun(const PreparedSuite &Suite, const Workload &W,
                    const MachineConfig &MC, ExecEngine Engine,
                    const std::string &Path,
                    const ScenarioSpec &Scenario = ScenarioSpec(),
                    const SchedulerSpec &Sched = SchedulerSpec(),
                    size_t *PeakOut = nullptr) {
  SimConfig SC;
  SC.Engine = Engine;
  std::unique_ptr<obs::TraceSink> Sink = obs::TraceSink::openAt(Path);
  RunResult R = runWorkload(Suite, W, MC, SC, 25, {}, Sched, Scenario,
                            nullptr, Sink.get());
  if (PeakOut)
    *PeakOut = Sink ? Sink->peakBufferBytes() : 0;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plane 1: trace determinism
//===----------------------------------------------------------------------===//

TEST(Trace, ByteIdenticalAcrossAllThreeEngines) {
  // The tentpole invariant: timestamps derive only from the quantized
  // simulated clock, config constants, and integer instruction counts,
  // so even FastReplay — whose cycle accumulators drift by ulps — emits
  // the exact same bytes as the exact engines.
  std::vector<Program> Programs;
  for (uint64_t Seed : {21ull, 22ull, 23ull})
    Programs.push_back(randomProgram(Seed));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Workload W = Workload::random(6, 64, Programs.size(), 9);

  std::string Flat = pbt_test::testCacheDir("obs_flat.trace.json");
  std::string Ref = pbt_test::testCacheDir("obs_ref.trace.json");
  std::string Fast = pbt_test::testCacheDir("obs_fast.trace.json");
  RunResult A = tracedRun(Suite, W, MC, ExecEngine::Flat, Flat);
  RunResult B = tracedRun(Suite, W, MC, ExecEngine::Reference, Ref);
  RunResult C = tracedRun(Suite, W, MC, ExecEngine::FastReplay, Fast);
  ASSERT_GT(A.CompletedCount, 0u);
  EXPECT_EQ(A.CompletedCount, B.CompletedCount);
  EXPECT_EQ(A.CompletedCount, C.CompletedCount);

  std::string FlatBytes = slurp(Flat);
  ASSERT_GT(FlatBytes.size(), 0u);
  EXPECT_EQ(FlatBytes, slurp(Ref));
  EXPECT_EQ(FlatBytes, slurp(Fast));
  // Well-formed envelope (tools/trace_check.py goes deeper in CI).
  EXPECT_EQ(FlatBytes.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_EQ(FlatBytes.substr(FlatBytes.size() - 4), "\n]}\n");
}

TEST(Trace, SchedulerAndScenarioEventsAreEngineInvariant) {
  // The richer event families — IPC-sampling reassignments (whose
  // evidence is a rounded FP), open-scenario arrivals/admissions, the
  // run_end accounting — must survive the engine swap too.
  std::vector<Program> Programs;
  for (uint64_t Seed : {31ull, 32ull})
    Programs.push_back(randomProgram(Seed));
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, TechniqueSpec::baseline());
  Workload W = Workload::random(4, 32, Programs.size(), 11);
  // The 25-second traced horizon bounds the stream (about 50 jobs).
  ScenarioSpec Scenario = ScenarioSpec::poisson(2.0).withMaxInFlight(6);
  SchedulerSpec Sched = SchedulerSpec::ipcSampling();

  std::string PathA = pbt_test::testCacheDir("obs_sched_flat.trace.json");
  std::string PathB = pbt_test::testCacheDir("obs_sched_fast.trace.json");
  RunResult A =
      tracedRun(Suite, W, MC, ExecEngine::Flat, PathA, Scenario, Sched);
  RunResult B =
      tracedRun(Suite, W, MC, ExecEngine::FastReplay, PathB, Scenario, Sched);
  ASSERT_GT(A.CompletedCount, 0u);
  EXPECT_EQ(A.CompletedCount, B.CompletedCount);
  std::string Bytes = slurp(PathA);
  EXPECT_EQ(Bytes, slurp(PathB));
  // The run actually exercised the families this test is about.
  EXPECT_NE(Bytes.find("\"arrival\""), std::string::npos);
  EXPECT_NE(Bytes.find("\"admit\""), std::string::npos);
  EXPECT_NE(Bytes.find("\"complete\""), std::string::npos);
  EXPECT_NE(Bytes.find("\"run_end\""), std::string::npos);
}

TEST(Trace, TracingDoesNotPerturbTheSimulation) {
  // An observer only: the traced run's RunResult is bit-identical to
  // the untraced run's (doubles compared with ==).
  std::vector<Program> Programs = {randomProgram(41), randomProgram(42)};
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  Workload W = Workload::random(5, 48, Programs.size(), 13);
  SimConfig SC;

  RunResult Plain = runWorkload(Suite, W, MC, SC, 25);
  RunResult Traced = tracedRun(
      Suite, W, MC, SC.Engine,
      pbt_test::testCacheDir("obs_perturb.trace.json"));

  EXPECT_EQ(Plain.InstructionsRetired, Traced.InstructionsRetired);
  EXPECT_EQ(Plain.TotalCycles, Traced.TotalCycles);
  EXPECT_EQ(Plain.TotalSwitches, Traced.TotalSwitches);
  EXPECT_EQ(Plain.TotalMarks, Traced.TotalMarks);
  EXPECT_EQ(Plain.Horizon, Traced.Horizon);
  ASSERT_EQ(Plain.Completed.size(), Traced.Completed.size());
  for (size_t I = 0; I < Plain.Completed.size(); ++I) {
    EXPECT_EQ(Plain.Completed[I].Completion, Traced.Completed[I].Completion);
    EXPECT_EQ(Plain.Completed[I].Stats.CyclesConsumed,
              Traced.Completed[I].Stats.CyclesConsumed);
  }
  ASSERT_EQ(Plain.InstsByType.size(), Traced.InstsByType.size());
  for (size_t I = 0; I < Plain.InstsByType.size(); ++I) {
    EXPECT_EQ(Plain.InstsByType[I], Traced.InstsByType[I]);
    EXPECT_EQ(Plain.CyclesByType[I], Traced.CyclesByType[I]);
  }
}

TEST(Trace, PooledRunnerEmitsSameBytesAsSerialRun) {
  // runWorkloads opens one sink per unit on whatever pool thread runs
  // it; the bytes must match a serial replay of the same job exactly
  // (this is what makes driver traces thread-count invariant).
  std::vector<Program> Programs = {randomProgram(51), randomProgram(52)};
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, loopTechnique());
  std::vector<Workload> Ws;
  for (uint64_t Seed : {3ull, 4ull, 5ull, 6ull})
    Ws.push_back(Workload::random(4, 32, Programs.size(), Seed));

  std::string Dir = pbt_test::testCacheDir("obs_pool_traces");
  obs::setTraceDir(Dir);
  obs::setTraceExperiment("obstest");
  uint64_t Group = obs::beginTraceGroup();
  std::vector<WorkloadJob> Jobs;
  for (size_t I = 0; I < Ws.size(); ++I) {
    WorkloadJob J;
    J.Suite = &Suite;
    J.W = &Ws[I];
    J.Machine = &MC;
    J.Horizon = 25;
    J.TraceUnit = "unit" + std::to_string(I);
    J.TraceGroup = Group;
    Jobs.push_back(std::move(J));
  }
  std::vector<RunResult> Pooled = runWorkloads(Jobs);
  obs::setTraceDir(""); // Leave the process state clean for other tests.
  ASSERT_EQ(Pooled.size(), Ws.size());

  for (size_t I = 0; I < Ws.size(); ++I) {
    std::string Serial = pbt_test::testCacheDir(
        "obs_serial" + std::to_string(I) + ".trace.json");
    RunResult R = tracedRun(Suite, Ws[I], MC, ExecEngine::Flat, Serial);
    EXPECT_EQ(R.CompletedCount, Pooled[I].CompletedCount);
    std::string PoolPath =
        Dir + "/TRACE_obstest.g0.unit" + std::to_string(I) + ".json";
    std::string PoolBytes = slurp(PoolPath);
    ASSERT_GT(PoolBytes.size(), 0u) << PoolPath;
    EXPECT_EQ(PoolBytes, slurp(Serial)) << "unit " << I;
  }
}

TEST(Trace, StreamingWriterHoldsBoundedMemoryOnLongRuns) {
  // A long open-scenario run emits far more event bytes than the flush
  // threshold; the writer must stream them through its fixed buffer,
  // never accumulate.
  std::vector<Program> Programs = {randomProgram(61)};
  MachineConfig MC = MachineConfig::quadAsymmetric();
  PreparedSuite Suite = prepareSuite(Programs, MC, TechniqueSpec::baseline());
  Workload W = Workload::random(4, 32, Programs.size(), 15);
  ScenarioSpec Scenario = ScenarioSpec::poisson(6.0).withMaxInFlight(8);

  std::string Path = pbt_test::testCacheDir("obs_bounded.trace.json");
  size_t Peak = 0;
  RunResult R = tracedRun(Suite, W, MC, ExecEngine::FastReplay, Path,
                          Scenario, SchedulerSpec(), &Peak);
  ASSERT_GT(R.CompletedCount, 0u);
  std::string Bytes = slurp(Path);
  // The run is big enough to have forced many flushes...
  ASSERT_GT(Bytes.size(), 4 * obs::TraceSink::bufferCapacity());
  // ...yet the buffer never held more than the threshold plus one
  // event (events are < 1 KiB).
  EXPECT_LE(Peak, obs::TraceSink::bufferCapacity() + 1024);
  EXPECT_GT(Peak, 0u);
}

TEST(Trace, DisabledProcessConfigOpensNoSinks) {
  obs::setTraceDir("");
  EXPECT_FALSE(obs::traceEnabled());
  EXPECT_EQ(obs::TraceSink::openForUnit("base/w0", 0), nullptr);
  obs::setTraceDir(pbt_test::testCacheDir("obs_enable_check"));
  EXPECT_TRUE(obs::traceEnabled());
  obs::setTraceDir("");
  EXPECT_FALSE(obs::traceEnabled());
}

//===----------------------------------------------------------------------===//
// Plane 2: counter registry and spans
//===----------------------------------------------------------------------===//

TEST(CounterRegistry, AddSetValueAndMetrics) {
  obs::CounterRegistry R; // Local instance: no global state in the test.
  EXPECT_EQ(R.value("x"), 0u);
  R.add("x");
  R.add("x", 41);
  EXPECT_EQ(R.value("x"), 42u);
  R.set("x", 7);
  EXPECT_EQ(R.value("x"), 7u);
  EXPECT_EQ(R.metric("m"), 0.0);
  R.addMetric("m", 1.5);
  R.addMetric("m", 0.25);
  EXPECT_EQ(R.metric("m"), 1.75);
  R.setMetric("m", 3.0);
  EXPECT_EQ(R.metric("m"), 3.0);
  // Stable addresses: the reference survives later insertions.
  std::atomic<uint64_t> &X = R.counter("x");
  for (int I = 0; I < 100; ++I)
    R.add("filler" + std::to_string(I));
  X.fetch_add(1);
  EXPECT_EQ(R.value("x"), 8u);
}

TEST(CounterRegistry, SnapshotSortedAndReportViewsMatch) {
  obs::CounterRegistry R;
  R.add("b.two", 2);
  R.add("a.one", 1);
  R.setMetric("z.sec", 0.5);
  std::vector<std::pair<std::string, uint64_t>> Cs = R.counterValues();
  ASSERT_EQ(Cs.size(), 2u);
  EXPECT_EQ(Cs[0].first, "a.one"); // std::map order = sorted.
  EXPECT_EQ(Cs[0].second, 1u);
  EXPECT_EQ(Cs[1].first, "b.two");
  std::vector<std::pair<std::string, double>> Ms = R.metricValues();
  ASSERT_EQ(Ms.size(), 1u);
  EXPECT_EQ(Ms[0].first, "z.sec");
  std::string Dump = R.snapshotJson().dump(0);
  EXPECT_EQ(Dump,
            "{\"counters\":{\"a.one\":1,\"b.two\":2},"
            "\"metrics\":{\"z.sec\":0.5}}");
  R.reset();
  EXPECT_TRUE(R.counterValues().empty());
  EXPECT_TRUE(R.metricValues().empty());
}

TEST(Span, RecordsCallsAndNonNegativeSeconds) {
  obs::CounterRegistry &G = obs::CounterRegistry::global();
  uint64_t CallsBefore = G.value("obs_test.span.calls");
  double SecondsBefore = G.metric("obs_test.span.seconds");
  {
    obs::Span S("obs_test.span");
    volatile double Sink = 0;
    for (int I = 0; I < 1000; ++I)
      Sink = Sink + I;
  }
  EXPECT_EQ(G.value("obs_test.span.calls"), CallsBefore + 1);
  EXPECT_GE(G.metric("obs_test.span.seconds"), SecondsBefore);
}

TEST(Clock, MonotonicSecondsAdvances) {
  double A = obs::monotonicSeconds();
  double B = obs::monotonicSeconds();
  EXPECT_GE(B, A);
}

//===- tests/property_test.cpp - parameterized invariant sweeps -----------===//
//
// Property-style checks swept over the whole benchmark suite and every
// marking-strategy variant via TEST_P.
//
//===----------------------------------------------------------------------===//

#include "core/Instrument.h"
#include "core/Transitions.h"
#include "sim/CostModel.h"
#include "sim/Machine.h"
#include "workload/Benchmarks.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

using namespace pbt;

namespace {

struct VariantParam {
  Strategy Strat;
  uint32_t MinSize;
  uint32_t Lookahead;
};

std::string variantName(const testing::TestParamInfo<VariantParam> &Info) {
  TransitionConfig C;
  C.Strat = Info.param.Strat;
  C.MinSize = Info.param.MinSize;
  C.Lookahead = Info.param.Lookahead;
  std::string Label = C.label();
  for (char &Ch : Label)
    if (!isalnum(static_cast<unsigned char>(Ch)))
      Ch = '_';
  return Label;
}

const Program &suiteProgram(size_t Index) {
  static std::vector<Program> Suite = buildSuite();
  return Suite[Index % Suite.size()];
}

} // namespace

class MarkingVariant : public testing::TestWithParam<VariantParam> {
protected:
  TransitionConfig config() const {
    TransitionConfig C;
    C.Strat = GetParam().Strat;
    C.MinSize = GetParam().MinSize;
    C.Lookahead = GetParam().Lookahead;
    return C;
  }
};

/// Invariant: every mark anchors on an existing edge or call block, and
/// its phase type is within range.
TEST_P(MarkingVariant, MarksAnchorOnRealProgramPoints) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  for (size_t B = 0; B < 15; ++B) {
    const Program &Prog = suiteProgram(B);
    CostModel Cost(Prog, MC);
    ProgramTyping Typing = computeOracleTyping(Prog, Cost);
    MarkingResult R = computeTransitions(Prog, Typing, config());
    for (const PhaseMark &M : R.Marks) {
      ASSERT_LT(M.Proc, Prog.Procs.size());
      const Procedure &P = Prog.Procs[M.Proc];
      ASSERT_LT(M.Block, P.Blocks.size());
      EXPECT_LT(M.PhaseType, Typing.NumTypes);
      if (M.Point == MarkPoint::Edge) {
        ASSERT_LT(M.SuccIndex, P.Blocks[M.Block].Succs.size());
      } else {
        EXPECT_GE(P.Blocks[M.Block].calleeOrNone(), 0);
      }
    }
  }
}

/// Invariant: a mark's phase type equals the effective region type of the
/// section it enters (edge marks only; the region map is the contract).
TEST_P(MarkingVariant, EdgeMarksMatchRegionTypes) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  for (size_t B = 0; B < 15; ++B) {
    const Program &Prog = suiteProgram(B);
    CostModel Cost(Prog, MC);
    ProgramTyping Typing = computeOracleTyping(Prog, Cost);
    MarkingResult R = computeTransitions(Prog, Typing, config());
    for (const PhaseMark &M : R.Marks) {
      if (M.Point != MarkPoint::Edge)
        continue;
      const Procedure &P = Prog.Procs[M.Proc];
      uint32_t Target = P.Blocks[M.Block].Succs[M.SuccIndex];
      // The BB strategy marks with the target's own type; region-based
      // strategies mark with the target's region type. In all cases the
      // mark must agree with the analysis' own region map for the
      // target, except BB lookahead filtering which may suppress but
      // never relabel.
      if (config().Strat != Strategy::BasicBlock) {
        EXPECT_EQ(M.PhaseType, R.RegionType[M.Proc][Target]);
      }
    }
  }
}

/// Invariant: instrumentation grows the binary by exactly
/// marks * MarkBytes + stub.
TEST_P(MarkingVariant, SpaceAccountingExact) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  for (size_t B = 0; B < 15; B += 3) {
    const Program &Prog = suiteProgram(B);
    CostModel Cost(Prog, MC);
    ProgramTyping Typing = computeOracleTyping(Prog, Cost);
    MarkingResult R = computeTransitions(Prog, Typing, config());
    size_t NumMarks = R.Marks.size();
    InstrumentedProgram Image(Prog, std::move(R));
    EXPECT_EQ(Image.instrumentedByteSize(),
              Prog.byteSize() + NumMarks * Image.cost().MarkBytes +
                  Image.cost().RuntimeStubBytes);
    EXPECT_GE(Image.spaceOverheadPercent(), 0.0);
  }
}

/// Invariant: the mark lookup tables agree with the mark list.
TEST_P(MarkingVariant, LookupRoundTrips) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  const Program &Prog = suiteProgram(5); // equake: marks guaranteed.
  CostModel Cost(Prog, MC);
  ProgramTyping Typing = computeOracleTyping(Prog, Cost);
  InstrumentedProgram Image(Prog,
                            computeTransitions(Prog, Typing, config()));
  for (const PhaseMark &M : Image.marks()) {
    const PhaseMark *Found =
        M.Point == MarkPoint::Edge
            ? Image.edgeMark(M.Proc, M.Block, M.SuccIndex)
            : Image.callMark(M.Proc, M.Block);
    ASSERT_NE(Found, nullptr);
    EXPECT_EQ(Found->PhaseType, M.PhaseType);
  }
}

/// Invariant: instrumentation never changes program semantics — the
/// instrumented run retires exactly the same program instructions as the
/// uninstrumented run under the same branch seed.
TEST_P(MarkingVariant, InstrumentationPreservesSemantics) {
  MachineConfig MC = MachineConfig::quadAsymmetric();
  SimConfig SC;
  const Program &Prog = suiteProgram(GetParam().MinSize % 15);
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  ProgramTyping Typing = computeOracleTyping(Prog, *Cost);

  MarkingResult Empty;
  Empty.NumTypes = 2;
  Empty.RegionType.resize(Prog.Procs.size());
  auto Plain = std::make_shared<const InstrumentedProgram>(
      Prog, std::move(Empty));
  auto Marked = std::make_shared<const InstrumentedProgram>(
      Prog, computeTransitions(Prog, Typing, config()));

  uint64_t Insts[2];
  int Index = 0;
  for (const auto &Image : {Plain, Marked}) {
    Machine M(MC, SC, std::make_unique<ObliviousScheduler>());
    uint32_t Pid = M.spawn(Image, Cost, TunerConfig(), 1234);
    while (M.process(Pid).CompletionTime < 0)
      M.run(M.now() + 64);
    Insts[Index++] = M.process(Pid).Stats.InstsRetired;
  }
  EXPECT_EQ(Insts[0], Insts[1]);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, MarkingVariant,
    testing::Values(VariantParam{Strategy::BasicBlock, 10, 0},
                    VariantParam{Strategy::BasicBlock, 10, 2},
                    VariantParam{Strategy::BasicBlock, 15, 0},
                    VariantParam{Strategy::BasicBlock, 15, 1},
                    VariantParam{Strategy::BasicBlock, 15, 3},
                    VariantParam{Strategy::BasicBlock, 20, 2},
                    VariantParam{Strategy::Interval, 30, 0},
                    VariantParam{Strategy::Interval, 45, 0},
                    VariantParam{Strategy::Interval, 60, 0},
                    VariantParam{Strategy::Loop, 30, 0},
                    VariantParam{Strategy::Loop, 45, 0},
                    VariantParam{Strategy::Loop, 60, 0}),
    variantName);

// --- Whole-suite sweeps over benchmarks (parameterized by index) -------

class SuiteBenchmark : public testing::TestWithParam<int> {};

TEST_P(SuiteBenchmark, OracleTypingFindsBothTypesWhenPhasesMixed) {
  const Program &Prog = suiteProgram(GetParam());
  MachineConfig MC = MachineConfig::quadAsymmetric();
  CostModel Cost(Prog, MC);
  ProgramTyping Typing = computeOracleTyping(Prog, Cost);
  ASSERT_EQ(Typing.NumTypes, 2u);
  // Every suite program contains cold code of both flavours, so both
  // types must appear somewhere.
  bool Saw0 = false, Saw1 = false;
  for (const auto &Proc : Typing.TypeOf)
    for (uint32_t T : Proc) {
      Saw0 |= T == 0;
      Saw1 |= T == 1;
    }
  EXPECT_TRUE(Saw0);
  EXPECT_TRUE(Saw1);
}

TEST_P(SuiteBenchmark, StaticTypingAgreesReasonablyWithOracle) {
  // Paper Sec. II-A3: the proof-of-concept static typing misclassifies
  // about 15% of loops. Allow a generous bound per benchmark.
  const Program &Prog = suiteProgram(GetParam());
  MachineConfig MC = MachineConfig::quadAsymmetric();
  CostModel Cost(Prog, MC);
  ProgramTyping Oracle = computeOracleTyping(Prog, Cost);
  ProgramTyping Static = computeStaticTyping(Prog, TypingConfig());
  EXPECT_LT(Static.disagreement(Oracle), 0.35) << Prog.Name;
}

TEST_P(SuiteBenchmark, EngineTerminatesUninstrumented) {
  const Program &Prog = suiteProgram(GetParam());
  MachineConfig MC = MachineConfig::quadAsymmetric();
  auto Cost = std::make_shared<const CostModel>(Prog, MC);
  MarkingResult Empty;
  Empty.NumTypes = 1;
  Empty.RegionType.resize(Prog.Procs.size());
  auto Image =
      std::make_shared<const InstrumentedProgram>(Prog, std::move(Empty));
  Machine M(MC, SimConfig(), std::make_unique<ObliviousScheduler>());
  uint32_t Pid = M.spawn(Image, Cost, TunerConfig(), 42);
  M.run(200);
  if (!M.process(Pid).Finished)
    M.run(1200); // The longest benchmark needs more wall time.
  EXPECT_TRUE(M.process(Pid).Finished) << Prog.Name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteBenchmark,
                         testing::Range(0, 15));

//===- analysis/PassManager.h - Static preparation pipeline ----*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static preparation pipeline: six named stages — cost-model
/// binding, typing, error injection, transition marking,
/// instrumentation, flat-image fusion — each a function over one
/// program's ProgramPrep. runPreparationPipeline runs every stage once,
/// in that order, over every program. No stage needs facts from another
/// program, so one forward sweep is the whole pipeline, the paper's
/// shape: type blocks, find transitions, insert marks. Stages are
/// idempotent (each reports a change only when it computed something
/// that was not there yet), so rerunning on a prepared context changes
/// nothing.
///
/// Per-program steps are independent and fan out over the global
/// ThreadPool with by-index writes, so pipeline output is bit-identical
/// to the serial loop — and to the pre-pass-manager monolithic
/// prepareSuite, which is the promotion contract
/// tests/passmanager_test.cpp enforces;
/// prepareSuiteMonolithic stays as that independent reference.
///
/// The pipeline finishes with self-verification: VerifyPass is a static
/// analysis of our *own* IR and derived images that checks structural
/// invariants — Program::verify, CFG/dominator/loop consistency, typing
/// shape, mark-placement legality, flat-image global-block-id
/// contiguity, cost-table binding, and superblock-chain summaries
/// re-walked against the exact block walk. Under the verify-IR toggle
/// (driver `--verify-ir` or env `PBT_VERIFY_IR`) the pipeline reruns the
/// verification sweep after every pass, so a pass that corrupts state
/// is caught at the pass boundary that broke it.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ANALYSIS_PASSMANAGER_H
#define PBT_ANALYSIS_PASSMANAGER_H

#include "analysis/BlockTyping.h"
#include "core/Transitions.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pbt {

class CostModel;
class FlatImage;
class InstrumentedProgram;
class ProgramSet;
struct MachineConfig;
struct PreparedSuite;
struct TechniqueSpec;

/// The evolving prepared state of one program as it moves through the
/// pipeline. Stages fill their slot and leave the rest alone; the
/// "present" flags (and null tests on the shared_ptrs) are what makes
/// every pass idempotent.
struct ProgramPrep {
  /// The source program; owned by the caller, outlives the run.
  const Program *Prog = nullptr;
  /// Shared ownership of *Prog when the caller's programs live in a
  /// ProgramSet: the instrument pass aliases it, so the image shares the
  /// set's IR. Null on the by-reference path, where the instrument pass
  /// copies the program into the image (on the pool, one program per
  /// task).
  std::shared_ptr<const Program> Shared;
  /// Cost-model binding of Prog to the machine (cost-model pass).
  std::shared_ptr<const CostModel> Cost;
  /// Phase-type assignment (typing pass; absent for the baseline).
  ProgramTyping Typing;
  bool Typed = false;
  /// Whether the clustering-error pass already perturbed Typing.
  bool ErrorInjected = false;
  /// Transition analysis output (transitions pass). Moved into the
  /// image by the instrument pass, after which Image carries the marks.
  MarkingResult Marking;
  bool Marked = false;
  /// Instrumented program (instrument pass).
  std::shared_ptr<const InstrumentedProgram> Image;
  /// Fused flat execution image (flatten pass).
  std::shared_ptr<const FlatImage> Flat;
};

/// Everything a pipeline run sees: the preparation request plus one
/// ProgramPrep per program. Pointees are owned by the caller.
struct PipelineContext {
  const MachineConfig *Machine = nullptr;
  const TechniqueSpec *Tech = nullptr;
  uint64_t TypingSeed = 42;
  /// Run the verification sweep after every pass (see VerifyPass).
  bool VerifyIR = false;
  std::vector<ProgramPrep> Programs;
};

/// Per-pass counters of one pipeline run (or the process-wide
/// cumulative view). ProgramsChanged and Invocations are deterministic;
/// Seconds is wall time and must never feed a byte-compared artifact
/// (the driver surfaces it only in BENCH_driver.json, which is excluded
/// from every byte-identity check).
struct PassStats {
  std::string Name;
  /// Per-program calls: one per program per pipeline run.
  uint64_t Invocations = 0;
  /// Calls that reported a change.
  uint64_t ProgramsChanged = 0;
  /// Wall time of the pass's sweeps.
  double Seconds = 0;
};

/// Outcome of one runPreparationPipeline call.
struct PipelineStats {
  std::vector<PassStats> Passes;
};

/// Runs the preparation pipeline on \p Ctx: cost-model, typing,
/// error-inject, transitions, instrument, flatten, each once over every
/// program, with Passes in that order. When Ctx.VerifyIR is set, a
/// verification sweep runs after every pass (throwing std::runtime_error
/// naming the pass, program, and broken invariant on failure) and its
/// stats follow as a "verify" entry. Stats are also accumulated into
/// the process-wide cumulativePipelineStats().
PipelineStats runPreparationPipeline(PipelineContext &Ctx);

/// Builds a PipelineContext for preparing \p Programs (which must
/// outlive the context) with the VerifyIR flag seeded from the
/// process-wide toggle. Each image gets its own copy of its program.
PipelineContext makePipelineContext(const std::vector<Program> &Programs,
                                    const MachineConfig &Machine,
                                    const TechniqueSpec &Tech,
                                    uint64_t TypingSeed);

/// Builds a PipelineContext for preparing the programs of \p Set listed
/// in \p Indices (context program I is Set[Indices[I]]). Every image
/// aliases its program in the set instead of copying it.
PipelineContext
makePipelineContext(const std::shared_ptr<const ProgramSet> &Set,
                    const std::vector<size_t> &Indices,
                    const MachineConfig &Machine, const TechniqueSpec &Tech,
                    uint64_t TypingSeed);

/// VerifyPass's per-program check, usable standalone: validates every
/// artifact present in \p PC against the invariants in the file
/// comment. On failure writes a diagnostic to \p ErrorOut (when
/// non-null) and returns false.
bool verifyPrep(const ProgramPrep &PC, const PipelineContext &Ctx,
                std::string *ErrorOut = nullptr);

/// Verifies a finished suite (freshly prepared or loaded from the
/// store): every program's image, cost binding, and flat image.
bool verifyPrepared(const PreparedSuite &Suite, const MachineConfig &Machine,
                    std::string *ErrorOut = nullptr);

/// Process-wide verify-IR toggle. Defaults to the PBT_VERIFY_IR
/// environment variable (any non-empty value other than "0" enables);
/// the driver's `--verify-ir` flag calls the setter.
void setVerifyIR(bool Enabled);
bool verifyIREnabled();

/// Cumulative per-pass stats over every pipeline run of this process
/// (passes in first-seen order), for the driver's summary block.
PipelineStats cumulativePipelineStats();

} // namespace pbt

#endif // PBT_ANALYSIS_PASSMANAGER_H

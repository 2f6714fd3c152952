//===- tests/test_call_dispatch.cpp - Call contexts -------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests context-sensitive call
// inlining (Sect. 5.4) at call sites reached from a multi-environment
// disjunction, with hand-pinned values:
//
//   - A callee whose input changes along the caller's widening sequence
//     still clamps the accumulator it returns.
//   - MaxCallDepth prototype havoc forgets the return target, so assertions
//     the fully inlined run proves can no longer be proved.
//   - Budget degradation on a family member that inlines calls is
//     byte-identical across --jobs: the Fixpoint budget poll runs only at
//     top-level fixpoint heads (CallDepth == 0 && !T.Conc).
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"
#include "codegen/FamilyGenerator.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace astral;
using testutil::analyzeSource;
using testutil::rangeOf;

namespace {

/// Everything the report layer prints that the determinism contract covers.
std::string fingerprint(const AnalysisResult &R) {
  std::ostringstream F;
  F << "alarms:" << R.Alarms.size() << "\n";
  for (const Alarm &A : R.Alarms)
    F << alarmKindName(A.Kind) << " line " << A.Loc.Line << " " << A.Message
      << (A.Definite ? " definite" : "") << " x" << A.Repeats << "\n";
  for (const auto &[Name, Itv] : R.VariableRanges)
    F << Name << "=" << Itv.toString() << "\n";
  const InvariantCensus &C = R.MainLoopCensus;
  F << "census:" << C.BoolAssertions << "/" << C.IntervalAssertions << "/"
    << C.ClockAssertions << "/" << C.OctAdditive << "/" << C.OctSubtractive
    << "/" << C.DecisionTrees << "/" << C.EllipsoidAssertions << "\n";
  F << "useful:";
  for (uint32_t Id : R.UsefulOctPacks)
    F << " " << Id;
  F << "\ninv:" << R.MainLoopInvariant;
  return F.str();
}

/// The partitioned_switch shape with the clamp extracted into a helper
/// taking value AND reference parameters: the helper is inlined once per
/// environment of the width-2 mode disjunction (two call contexts at one
/// call site).
const char *PartitionedHelperSrc =
    "volatile int mode; volatile float meas;\n"
    "float out; float acc;\n"
    "float clamp_mag(float v, float limit, float *hits) {\n"
    "  if (v > limit)  { v = limit; *hits = *hits + 1.0f; }\n"
    "  if (v < -limit) { v = -limit; *hits = *hits + 1.0f; }\n"
    "  __astral_assert(v < 21.0f);\n"
    "  return v;\n"
    "}\n"
    "void control_step(void) {\n"
    "  float limit; float m;\n"
    "  m = meas;\n"
    "  if (mode == 0) { limit = 5.0f; } else { limit = 20.0f; }\n"
    "  m = clamp_mag(m, limit, &acc);\n"
    "  if (mode == 0) { out = m * 8.0f; } else { out = m * 2.0f; }\n"
    "}\n"
    "int main(void) {\n"
    "  acc = 0.0f;\n"
    "  while (1) {\n"
    "    control_step();\n"
    "    __astral_assert(out > -41.0f);\n"
    "    __astral_assert(out < 41.0f);\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

void partitionedHelperTweak(AnalyzerOptions &O) {
  O.PartitionFunctions.insert("control_step");
  O.VolatileRanges["mode"] = Interval(0, 1);
  O.VolatileRanges["meas"] = Interval(-50, 50);
}

} // namespace

TEST(CallContexts, WideningCalleeInputStaysClamped) {
  // An accumulator grows through the widening sequence, so the callee sees
  // a different input environment on every fixpoint iteration until
  // stabilization. The clamp inside the callee must still bound the
  // accumulator's final range — proved here by value.
  const char *Src = "volatile float in;\n"
                    "float acc;\n"
                    "float step(float a, float d) {\n"
                    "  a = a + d;\n"
                    "  if (a > 100.0f) { a = 100.0f; }\n"
                    "  if (a < 0.0f) { a = 0.0f; }\n"
                    "  return a;\n"
                    "}\n"
                    "int main(void) {\n"
                    "  acc = 0.0f;\n"
                    "  while (1) {\n"
                    "    acc = step(acc, in);\n"
                    "    __astral_assert(acc < 101.0f);\n"
                    "    __astral_wait();\n"
                    "  }\n"
                    "  return 0;\n"
                    "}\n";
  auto Tweak = [](AnalyzerOptions &O) {
    O.VolatileRanges["in"] = Interval(-1, 1);
  };
  AnalysisResult R = analyzeSource(Src, Tweak);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_EQ(R.Alarms.size(), 0u);
  Interval Acc = rangeOf(R, "acc");
  EXPECT_GE(Acc.Lo, 0.0);
  EXPECT_LE(Acc.Hi, 100.0);
  // The widening trajectory re-inlines the callee from several inputs.
  EXPECT_GT(R.Stats.get("iterator.calls_inlined"), 1u);
}

//===----------------------------------------------------------------------===//
// MaxCallDepth prototype havoc
//===----------------------------------------------------------------------===//

TEST(CallContexts, PrototypeHavocAtMaxCallDepth) {
  // MaxCallDepth 1: control_step still inlines from main, but the clamp
  // helper inside it exceeds the depth and degrades to the prototype havoc
  // (return target forgotten).
  AnalysisResult Full = analyzeSource(PartitionedHelperSrc,
                                      partitionedHelperTweak);
  ASSERT_TRUE(Full.FrontendOk);

  AnalysisResult R =
      analyzeSource(PartitionedHelperSrc, [](AnalyzerOptions &O) {
        partitionedHelperTweak(O);
        O.MaxCallDepth = 1;
      });
  ASSERT_TRUE(R.FrontendOk);
  // The havocked return makes m unbounded: the |out| assertions can no
  // longer be proved, unlike in the fully inlined run.
  EXPECT_GT(R.Alarms.size(), Full.Alarms.size());
  EXPECT_LT(R.Stats.get("iterator.calls_inlined"),
            Full.Stats.get("iterator.calls_inlined"));
}

//===----------------------------------------------------------------------===//
// Budget governance with inlined calls
//===----------------------------------------------------------------------===//

namespace {

AnalysisInput familyInput(unsigned Lines, uint64_t Seed) {
  codegen::GeneratorConfig C;
  C.TargetLines = Lines;
  C.Seed = Seed;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);
  AnalysisInput In;
  In.FileName = "family.c";
  In.Source = FP.Source;
  In.Options.VolatileRanges = FP.VolatileRanges;
  In.Options.PartitionFunctions = FP.PartitionFunctions;
  for (double T : FP.DocumentedThresholds)
    In.Options.ExtraThresholds.push_back(T);
  In.Options.ClockMax = 1.0e6;
  return In;
}

/// Everything the budget byte-identity contract covers (wall-clock and
/// work-metering figures deliberately excluded).
std::string degradeSignature(const AnalysisResult &R) {
  std::string Sig;
  for (const std::string &S : R.DegradeSteps)
    Sig += S + ";";
  Sig += "|" + fingerprint(R);
  return Sig;
}

} // namespace

TEST(CallContexts, BudgetDegradationIsDeterministicAcrossJobs) {
  // The Fixpoint budget poll predicate (CallDepth == 0 && !T.Conc) keeps
  // the fixpoints of inlined callees from sampling the live figure; the
  // ladder must come out the same on every run and at every --jobs value.
  AnalysisInput Base = familyInput(1200, 7);
  AnalysisResult Free = Analyzer::analyze(Base);
  ASSERT_TRUE(Free.FrontendOk) << Free.FrontendErrors;
  ASSERT_GT(Free.PeakAbstractBytes, 0u);
  const uint64_t Budget = Free.PeakAbstractBytes / 2;

  std::string Reference;
  for (unsigned Jobs : {1u, 8u}) {
    AnalysisInput In = familyInput(1200, 7);
    In.Options.MemoryBudgetBytes = Budget;
    In.Options.Jobs = Jobs;
    AnalysisResult R = Analyzer::analyze(In);
    ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
    EXPECT_TRUE(R.degraded());
    EXPECT_GT(R.Stats.get("iterator.calls_inlined"), 0u);
    std::string Sig = degradeSignature(R);
    if (Reference.empty())
      Reference = Sig;
    else
      EXPECT_EQ(Sig, Reference) << "jobs=" << Jobs;
  }
}

//===- tests/test_call_dispatch.cpp - Call-context dispatch -----------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests the call-context parallel
// grain — per-context dispatch of inlined callee bodies at call sites
// reached from a multi-environment disjunction:
//
//   - --call-dispatch=par must produce reports bitwise identical to the
//     sequential per-context loop, at every --jobs value and across the
//     pack-dispatch and partition-dispatch modes, on randomized call trees
//     with reference parameters and partitioned callees, and on a callee
//     whose input changes along the caller's widening sequence.
//   - The call-context meter `iterator.calls_inlined` counts the same
//     contexts whichever way they were dispatched.
//   - MaxCallDepth prototype havoc stays byte-identical under par.
//   - Budget degradation is byte-identical across call-dispatch modes: the
//     Fixpoint budget poll is master-only (!CollectMode && CallDepth == 0),
//     so a call-dispatch worker — a CollectMode clone running a CallDepth
//     >= 1 fixpoint — must never poll, and the degradation ladder cannot
//     depend on the dispatch mode.
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"
#include "codegen/FamilyGenerator.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <random>
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

/// The execution-policy matrix of one source around the call grain:
/// sequential everything at --jobs=1 is the baseline every (jobs,
/// call-dispatch, partition-dispatch, pack-dispatch) configuration must
/// reproduce bitwise.
void expectMatrixIdentical(
    const std::string &Src,
    const std::function<void(AnalyzerOptions &)> &Tweak = nullptr) {
  auto Run = [&](unsigned Jobs, CallDispatchMode CMode,
                 PartitionDispatchMode PMode, PackDispatchMode KMode) {
    AnalysisResult R = analyzeSource(Src, [&](AnalyzerOptions &O) {
      if (Tweak)
        Tweak(O);
      O.Jobs = Jobs;
      O.CallDispatch = CMode;
      O.PartitionDispatch = PMode;
      O.PackDispatch = KMode;
    });
    // A frontend failure would make every configuration agree vacuously.
    EXPECT_TRUE(R.FrontendOk) << R.FrontendErrors;
    EXPECT_GT(R.Stats.get("iterator.calls_inlined"), 0u);
    return fingerprint(R);
  };
  std::string Base =
      Run(1, CallDispatchMode::Sequential, PartitionDispatchMode::Sequential,
          PackDispatchMode::Sequential);
  for (unsigned Jobs : {1u, 2u, 8u})
    for (CallDispatchMode CMode :
         {CallDispatchMode::Sequential, CallDispatchMode::Parallel})
      for (PartitionDispatchMode PMode : {PartitionDispatchMode::Sequential,
                                          PartitionDispatchMode::Parallel})
        for (PackDispatchMode KMode :
             {PackDispatchMode::Sequential, PackDispatchMode::Groups})
          EXPECT_EQ(Run(Jobs, CMode, PMode, KMode), Base)
              << "jobs=" << Jobs << " call-dispatch="
              << (CMode == CallDispatchMode::Parallel ? "par" : "seq")
              << " partition-dispatch="
              << (PMode == PartitionDispatchMode::Parallel ? "par" : "seq")
              << " pack-dispatch="
              << (KMode == PackDispatchMode::Groups ? "groups" : "seq");
}

/// The partitioned_switch shape with the clamp extracted into a helper
/// taking value AND reference parameters: the helper is inlined from the
/// width-2 mode disjunction, so the call site is exactly where the call
/// grain fans out. The alarm inside the callee and the loop invariant in
/// the caller exercise the worker effect replay.
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

//===----------------------------------------------------------------------===//
// Parallel-vs-sequential bitwise equality
//===----------------------------------------------------------------------===//

TEST(CallDispatch, PartitionedHelperMatchesSequentialBitwise) {
  expectMatrixIdentical(PartitionedHelperSrc, partitionedHelperTweak);
}

TEST(CallDispatch, DispatchActuallyFansOut) {
  // Guards the grain against silent degeneration: with a parallel scheduler
  // and a width-2 call-site disjunction, the parallel path must really run
  // — the census is outside the byte-identity contract, but "it never
  // triggers" would make the whole grain dead code.
  AnalysisResult R =
      analyzeSource(PartitionedHelperSrc, [](AnalyzerOptions &O) {
        partitionedHelperTweak(O);
        O.Jobs = 2;
      });
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_GT(R.Stats.get("call_dispatch.dispatched"), 0u);
  EXPECT_GE(R.Stats.get("parallel.calls.max_width"), 2u);
  EXPECT_EQ(R.Stats.get("parallel.call_dispatch_par"), 1u);
  EXPECT_GT(R.Stats.get("iterator.calls_inlined"), 0u);

  // The sequential mode never takes the parallel path.
  AnalysisResult S =
      analyzeSource(PartitionedHelperSrc, [](AnalyzerOptions &O) {
        partitionedHelperTweak(O);
        O.Jobs = 2;
        O.CallDispatch = CallDispatchMode::Sequential;
      });
  EXPECT_EQ(S.Stats.get("call_dispatch.dispatched"), 0u);
  EXPECT_EQ(S.Stats.get("parallel.calls.max_width"), 0u);
  EXPECT_EQ(S.Stats.get("parallel.call_dispatch_par"), 0u);
  EXPECT_EQ(fingerprint(S), fingerprint(R));

  // Every call context is counted exactly once whichever thread inlined it,
  // so the meter agrees across --jobs values and dispatch modes.
  EXPECT_EQ(S.Stats.get("iterator.calls_inlined"),
            R.Stats.get("iterator.calls_inlined"));
  for (unsigned Jobs : {1u, 8u}) {
    AnalysisResult J =
        analyzeSource(PartitionedHelperSrc, [Jobs](AnalyzerOptions &O) {
          partitionedHelperTweak(O);
          O.Jobs = Jobs;
        });
    ASSERT_TRUE(J.FrontendOk);
    EXPECT_EQ(J.Stats.get("iterator.calls_inlined"),
              R.Stats.get("iterator.calls_inlined"))
        << "jobs=" << Jobs;
  }
}

TEST(CallDispatch, RandomizedCallTreesMatchSequentialBitwise) {
  // Randomized call trees: a chain of callees — some partitioned, so call
  // sites inside them see multi-environment disjunctions — with value and
  // reference parameters, mode switches, loops and early returns mixed in
  // per seed. Every shape must reproduce the sequential report bitwise
  // across the whole matrix.
  for (unsigned Seed = 1; Seed <= 4; ++Seed) {
    std::mt19937 Rng(Seed);
    unsigned Depth = 2 + Seed % 2; // 2-3 nested callees
    // Callees are generated outermost first but emitted innermost first:
    // the frontend requires a function to be declared before its call.
    std::vector<std::string> Funcs;
    for (unsigned L = 0; L < Depth; ++L) {
      std::ostringstream Src;
      unsigned Ifs = 1 + Rng() % 3;
      // Leaf takes a reference parameter it writes through; inner levels
      // pass the global accumulator down by address.
      if (L + 1 == Depth)
        Src << "float f" << L << "(float s, float *o) {\n"
            << "  float t; float u;\n  t = s;\n";
      else
        Src << "float f" << L << "(float s) {\n"
            << "  float t; float u;\n  t = s;\n";
      for (unsigned I = 0; I < Ifs; ++I) {
        double Inc = 1.0 + (Rng() % 5);
        Src << "  if (sel > " << (Rng() % 4) << ") { t = t + " << Inc
            << "f; } else { t = t - " << Inc << "f; }\n";
      }
      if (L + 1 < Depth) {
        if (L + 2 == Depth)
          Src << "  u = f" << (L + 1) << "(t, &z);\n";
        else
          Src << "  u = f" << (L + 1) << "(t);\n";
      } else {
        Src << "  *o = *o + 0.0f;\n  u = in;\n";
      }
      if (Rng() % 2) {
        Src << "  int i; i = 0;\n  while (i < 3) {\n    i = i + 1;\n"
            << "    if (u > 20.0f) { break; }\n    u = u + t;\n  }\n";
      }
      if (Rng() % 2)
        Src << "  if (sel == 0) { return t; }\n";
      Src << "  return t + u * 0.0f;\n}\n";
      Funcs.push_back(Src.str());
    }
    std::ostringstream Src;
    Src << "volatile int sel; volatile float in;\n"
        << "float y; float z;\n";
    for (auto F = Funcs.rbegin(); F != Funcs.rend(); ++F)
      Src << *F;
    Src << "int main(void) {\n  z = 0.0f;\n  while (1) {\n"
        << "    y = f0(in);\n    __astral_wait();\n  }\n  return 0;\n}\n";

    // Partition every other level: call sites inside partitioned callees
    // see the partition disjunction, so the call grain and the partition
    // grain nest both ways around each other.
    expectMatrixIdentical(Src.str(), [Depth](AnalyzerOptions &O) {
      for (unsigned L = 0; L < Depth; L += 2)
        O.PartitionFunctions.insert("f" + std::to_string(L));
      O.VolatileRanges["sel"] = Interval(0, 4);
      O.VolatileRanges["in"] = Interval(-30, 30);
      // The generated accumulator loops (u = u + t) widen up the whole
      // threshold ladder one rung per iteration; a short ladder keeps that
      // climb cheap, and the test is about dispatch, not precision.
      O.ThresholdCount = 8;
    });
  }
}

TEST(CallDispatch, WideningCalleeInputMatchesSequentialBitwise) {
  // An accumulator grows through the widening sequence, so the callee sees
  // a different input environment on every fixpoint iteration until
  // stabilization. The clamp inside the callee must still bound the
  // accumulator's final range — proved here by value — and every execution
  // policy must reproduce the sequential report bitwise.
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
  expectMatrixIdentical(Src, Tweak);
}

//===----------------------------------------------------------------------===//
// MaxCallDepth prototype havoc under par
//===----------------------------------------------------------------------===//

TEST(CallDispatch, PrototypeHavocUnderParMatchesSeq) {
  // MaxCallDepth 1: control_step still inlines from main, but the clamp
  // helper inside it exceeds the depth and degrades to the prototype havoc
  // (return target forgotten). The havoc path runs inside call-dispatch
  // workers when the helper's caller fans out — byte-identity must hold,
  // and the precision loss must be the same loss everywhere (the joined
  // |out| bound is gone, so the assertion alarms fire deterministically).
  auto Tweak = [](AnalyzerOptions &O) {
    partitionedHelperTweak(O);
    O.MaxCallDepth = 1;
  };
  expectMatrixIdentical(PartitionedHelperSrc, Tweak);

  AnalysisResult R = analyzeSource(PartitionedHelperSrc, Tweak);
  ASSERT_TRUE(R.FrontendOk);
  // The havocked return makes m unbounded: the |out| assertions can no
  // longer be proved, unlike the fully inlined run (0 alarms).
  EXPECT_GT(R.Alarms.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Budget governance: the poll stays master-only under the call grain
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

TEST(CallDispatch, BudgetDegradationDeterministicAcrossCallDispatch) {
  // The Fixpoint budget poll predicate (!CollectMode && CallDepth == 0 &&
  // !T.Conc) excludes call-dispatch workers twice over: they are
  // CollectMode clones AND their fixpoints sit under CallDepth >= 1. If a
  // worker ever polled, the deterministic live figure would be sampled at
  // worker-timing-dependent points and the ladder would diverge between
  // the dispatch modes — this is the regression test for that predicate.
  AnalysisInput Base = familyInput(1200, 7);
  AnalysisResult Free = Analyzer::analyze(Base);
  ASSERT_TRUE(Free.FrontendOk) << Free.FrontendErrors;
  ASSERT_GT(Free.PeakAbstractBytes, 0u);
  const uint64_t Budget = Free.PeakAbstractBytes / 2;

  std::string Reference;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    for (CallDispatchMode CD :
         {CallDispatchMode::Sequential, CallDispatchMode::Parallel}) {
      AnalysisInput In = familyInput(1200, 7);
      In.Options.MemoryBudgetBytes = Budget;
      In.Options.Jobs = Jobs;
      In.Options.CallDispatch = CD;
      AnalysisResult R = Analyzer::analyze(In);
      ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
      EXPECT_TRUE(R.degraded());
      EXPECT_GT(R.Stats.get("iterator.calls_inlined"), 0u);
      std::string Sig = degradeSignature(R);
      if (Reference.empty())
        Reference = Sig;
      else
        EXPECT_EQ(Sig, Reference)
            << "jobs=" << Jobs << " call-dispatch="
            << (CD == CallDispatchMode::Parallel ? "par" : "seq");
    }
  }
}

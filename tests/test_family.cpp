//===- tests/test_family.cpp - Program family generator tests -------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests the Sect. 4 workload
// generator and the end-to-end verification of a family member.
//
//===----------------------------------------------------------------------===//

#include "codegen/FamilyGenerator.h"
#include "support/Sha256.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace astral;
using namespace astral::codegen;

namespace {
AnalysisResult analyzeFamily(const FamilyProgram &FP,
                             std::function<void(AnalyzerOptions &)> Tweak =
                                 nullptr) {
  AnalysisInput In;
  In.Source = FP.Source;
  In.Options.VolatileRanges = FP.VolatileRanges;
  In.Options.PartitionFunctions = FP.PartitionFunctions;
  for (double T : FP.DocumentedThresholds)
    In.Options.ExtraThresholds.push_back(T);
  In.Options.ClockMax = 1.0e6;
  if (Tweak)
    Tweak(In.Options);
  return Analyzer::analyze(In);
}
} // namespace

TEST(Family, Deterministic) {
  GeneratorConfig C;
  C.TargetLines = 500;
  C.Seed = 7;
  FamilyProgram A = generateFamilyProgram(C);
  FamilyProgram B = generateFamilyProgram(C);
  EXPECT_EQ(A.Source, B.Source);
  C.Seed = 8;
  FamilyProgram D = generateFamilyProgram(C);
  EXPECT_NE(A.Source, D.Source);
}

// The generated sources are pinned byte for byte: the size test of the
// module loop decides where a member ends, so a change to how the generator
// counts lines would silently change every family member (and every
// measurement taken on one). The digests were taken from the generator
// that rescanned its buffers after each module.
TEST(Family, SourcesPinnedBySha256) {
  struct Pin {
    unsigned Lines;
    uint64_t Seed;
    unsigned Bugs;
    const char *Digest;
  };
  const Pin Pins[] = {
      {60, 10232583327509954220ull, 0,
       "08f67e1e1380aa7b9d4414a132a10ebf7442c18f53a1a1d5e8a158d453c03e92"},
      {125, 7, 0,
       "8aea9bb50ff307f42fca75e540840c74ba28508508a89084a9fda2588747b058"},
      {1000, 42, 0,
       "946cd95f98c9844b79bea2dc241829fa944c0a57370111021d59999067c5104f"},
      {2000, 42, 0,
       "8abceeb7d9d245e082f0f1d26a84cdfec465b453fba06954bd1cd7ddf0e0a57a"},
      {4000, 1, 0,
       "453e5340dd5d1fa20fe3f08625657053d81eddb311b60b00c0dce99fd6a189a8"},
      {8000, 7, 0,
       "1882906b223d1f8f0498bf17be0e3af17ba697d11682531e477f6f9f9219b804"},
      {1000, 42, 2,
       "8b325c6d010e48c41fbbc02c48b2839235e8506009ab1257500806de5da6d836"},
  };
  for (const Pin &P : Pins) {
    GeneratorConfig C;
    C.TargetLines = P.Lines;
    C.Seed = P.Seed;
    C.InjectedBugs = P.Bugs;
    EXPECT_EQ(sha256::hexDigest(generateFamilyProgram(C).Source), P.Digest)
        << "lines=" << P.Lines << " seed=" << P.Seed << " bugs=" << P.Bugs;
  }
}

TEST(Family, ScalesWithTarget) {
  GeneratorConfig Small{/*TargetLines=*/400, /*Seed=*/1, 0};
  GeneratorConfig Big{/*TargetLines=*/4000, /*Seed=*/1, 0};
  FamilyProgram S = generateFamilyProgram(Small);
  FamilyProgram B = generateFamilyProgram(Big);
  EXPECT_GE(S.LineCount, 380u);
  EXPECT_GE(B.LineCount, 3800u);
  EXPECT_GT(B.ModuleCount, S.ModuleCount);
  // Globals scale linearly with code size (Sect. 4).
  EXPECT_GT(B.VolatileRanges.size(), S.VolatileRanges.size());
}

TEST(Family, ParsesAndAnalyzes) {
  GeneratorConfig C{/*TargetLines=*/600, /*Seed=*/3, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  EXPECT_TRUE(R.HasMainLoop);
  EXPECT_GT(R.NumCells, 0u);
}

TEST(Family, FullAnalyzerNearZeroAlarms) {
  GeneratorConfig C{/*TargetLines=*/800, /*Seed=*/11, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  // The family has run alarm-free for ten years (Sect. 3.1); the refined
  // analyzer should prove (almost) all of it.
  EXPECT_LE(R.alarmCount(), 2u)
      << "full-stack analysis of the family should be (near) alarm-free";
}

TEST(Family, BaselineHasManyAlarms) {
  GeneratorConfig C{/*TargetLines=*/800, /*Seed=*/11, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult Full = analyzeFamily(FP);
  AnalysisResult Baseline = analyzeFamily(FP, [](AnalyzerOptions &O) {
    O.Domains = DomainSet::intervalOnly();
    O.EnableLinearization = false;
    O.PartitionFunctions.clear();
  });
  EXPECT_GT(Baseline.alarmCount(), Full.alarmCount() + 3)
      << "the interval-only baseline must report many more alarms "
         "(the 1,200 -> 11 story of Sect. 8)";
}

TEST(Family, EachDomainRemovesAlarms) {
  GeneratorConfig C{/*TargetLines=*/1500, /*Seed=*/23, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  auto CountWith = [&](std::function<void(AnalyzerOptions &)> Tweak) {
    return analyzeFamily(FP, Tweak).alarmCount();
  };
  size_t Baseline = CountWith([](AnalyzerOptions &O) {
    O.Domains = DomainSet::intervalOnly();
    O.EnableLinearization = false;
    O.PartitionFunctions.clear();
  });
  size_t Full = CountWith(nullptr);
  EXPECT_LT(Full, Baseline);
}

TEST(Family, InjectedBugsSurviveFullStack) {
  GeneratorConfig C{/*TargetLines=*/400, /*Seed=*/5, /*InjectedBugs=*/2};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk) << R.FrontendErrors;
  size_t DivAlarms = 0;
  for (const Alarm &A : R.Alarms)
    if (A.Kind == AlarmKind::DivByZero)
      ++DivAlarms;
  EXPECT_GE(DivAlarms, 2u) << "genuine bugs must never be masked";
}

TEST(Family, DeadTablesOptimizedAway) {
  GeneratorConfig C{/*TargetLines=*/1200, /*Seed=*/9, 0};
  FamilyProgram FP = generateFamilyProgram(C);
  AnalysisResult R = analyzeFamily(FP);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_GT(R.Stats.get("frontend.globals_deleted"), 0u)
      << "unused hardware tables must be deleted (Sect. 5.1)";
}

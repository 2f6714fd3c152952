//===- tests/test_partition_dispatch.cpp - Trace-partition merges -----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Tests the merge paths of trace
// partitioning inside `@astral partition` functions (Sect. 7.1.5), with
// hand-pinned values:
//
//   - The MaxPartitions cap joins only the *overflow* (one partition past
//     the cap costs one join, not the whole disjunction), and the capped
//     report is byte-identical across --jobs.
//   - partitioning.delayed_merges is width-accurate.
//
//===----------------------------------------------------------------------===//

#include "analyzer/AnalysisSession.h"

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

} // namespace

//===----------------------------------------------------------------------===//
// MaxPartitions cap: join the overflow, not the world
//===----------------------------------------------------------------------===//

namespace {

// Three independent mode switches -> 8 partitions, the first 4 with t = 1,
// the last 4 with t = -1 (execIf appends then-branches before
// else-branches, per input partition, in partition order).
const char *CapOverflowSrc =
    "volatile int s1; volatile int s2; volatile int s3;\n"
    "int y; int u;\n"
    "void step(void) {\n"
    "  int t; int a; int b; int c;\n"
    "  a = s1; b = s2; c = s3;\n"
    "  if (a > 0) { t = 1; } else { t = -1; }\n"
    "  if (b > 0) { u = 1; } else { u = 2; }\n"
    "  if (c > 0) { u = u + 1; } else { u = u + 2; }\n"
    "  y = t * t;\n"
    "}\n"
    "int main(void) {\n"
    "  step();\n"
    "  return 0;\n"
    "}\n";

void capOverflowTweak(AnalyzerOptions &O) {
  O.PartitionFunctions.insert("step");
  O.VolatileRanges["s1"] = Interval(-5, 5);
  O.VolatileRanges["s2"] = Interval(-5, 5);
  O.VolatileRanges["s3"] = Interval(-5, 5);
}

} // namespace

TEST(PartitionCap, OverflowJoinsOnlyTheTail) {
  // Cap 7 with 8 partitions arriving: only partitions 7 and 8 (both
  // t = -1) merge, so every surviving partition still has a definite t and
  // y = t * t evaluates to exactly 1. The pre-fix collapse joined ALL
  // partitions into one (t = [-1,1], y = [-1,1]) — a precision cliff one
  // partition past the cap.
  AnalysisResult R = analyzeSource(CapOverflowSrc, [](AnalyzerOptions &O) {
    capOverflowTweak(O);
    O.MaxPartitions = 7;
  });
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_EQ(rangeOf(R, "y"), Interval(1, 1));
  EXPECT_EQ(R.Stats.get("partitioning.cap_collapses"), 1u);
  // 8 partitions down to 7: exactly one environment was folded away —
  // the cap keeps MaxPartitions environments, not one.
  EXPECT_EQ(R.Stats.get("partitioning.cap_collapsed_envs"), 1u);
}

TEST(PartitionCap, UnderTheCapNothingCollapses) {
  AnalysisResult R = analyzeSource(CapOverflowSrc, [](AnalyzerOptions &O) {
    capOverflowTweak(O);
    O.MaxPartitions = 8;
  });
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_EQ(rangeOf(R, "y"), Interval(1, 1));
  EXPECT_EQ(R.Stats.get("partitioning.cap_collapses"), 0u);
  EXPECT_EQ(R.Stats.get("partitioning.cap_collapsed_envs"), 0u);
}

TEST(PartitionCap, CappedDisjunctionIsDeterministicAcrossJobs) {
  auto Run = [](unsigned Jobs) {
    return fingerprint(analyzeSource(CapOverflowSrc, [Jobs](AnalyzerOptions &O) {
      capOverflowTweak(O);
      O.MaxPartitions = 7;
      O.Jobs = Jobs;
    }));
  };
  std::string Base = Run(1);
  for (unsigned Jobs : {2u, 8u})
    EXPECT_EQ(Run(Jobs), Base) << "jobs=" << Jobs;
}

//===----------------------------------------------------------------------===//
// Width-accurate partition statistics
//===----------------------------------------------------------------------===//

namespace {

// Two independent switches inside one partitioned function, called once:
// the first if delays 2 environments (1 input -> then + else), the second
// delays 4 (2 inputs -> 2 x (then + else)): exactly 6.
const char *TwoSwitchSrc =
    "volatile int s1; volatile int s2;\n"
    "int y;\n"
    "void step(void) {\n"
    "  int a; int b;\n"
    "  a = s1; b = s2;\n"
    "  if (a > 0) { y = 1; } else { y = 2; }\n"
    "  if (b > 0) { y = y + 1; } else { y = y + 2; }\n"
    "}\n"
    "int main(void) {\n"
    "  step();\n"
    "  return 0;\n"
    "}\n";

void twoSwitchTweak(AnalyzerOptions &O) {
  O.PartitionFunctions.insert("step");
  O.VolatileRanges["s1"] = Interval(-5, 5);
  O.VolatileRanges["s2"] = Interval(-5, 5);
}

} // namespace

TEST(PartitionStats, DelayedMergesAreWidthAccurate) {
  // Pre-fix the counter bumped once per execIf call (3 here: 1 + 2),
  // regardless of how many partition environments were actually delayed.
  AnalysisResult R = analyzeSource(TwoSwitchSrc, twoSwitchTweak);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_EQ(R.Stats.get("partitioning.delayed_merges"), 6u);
}

//===- bench/bench_parallel_jobs.cpp - Speedup vs --jobs ----------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// The parallel-analyzer experiment (Monniaux, "The parallel implementation
// of the Astrée static analyzer"): wall-clock speedup against the worker
// count on the largest quick family member, in the granularities the
// Scheduler offers:
//
//   single — one file. AnalyzerOptions::Jobs fans the per-(domain, pack)
//            lattice slots out over the pool, and --pack-dispatch picks the
//            within-file transfer grain: `seq` keeps the channel-feeding
//            reduction chains fully sequential, `groups` (the default)
//            dispatches disjoint pack groups of the PackGroupPlan to
//            workers with a deterministic channel merge. The series carries
//            both dispatch modes so the new grain's contribution is
//            visible in isolation.
//   partition — examples/partitioned_switch.cpp under --partition-dispatch
//            seq vs par: the trace-partition grain, fanning the delayed
//            disjunction's environments over the pool per statement. The
//            controller is small, so each configuration is timed over
//            repeated whole analyses.
//   call   — the same example under --call-dispatch seq vs par: the
//            call-context grain, fanning a call site's disjunction of
//            calling contexts over the pool (the clamp helper is called
//            from the width-2 mode disjunction).
//   batch  — AnalysisSession::analyzeBatch schedules whole copies of the
//            file across the same pool (the paper family is multi-module;
//            multi-file throughput is the production shape). This is the
//            near-linear series.
//
// Every configuration's report is checked identical to the sequential one
// (the determinism guarantee); a mismatch fails the bench.
//
// ASTRAL_BENCH_SMOKE=1 runs the PR-time regression gate instead of the full
// series: on the 8-kLOC fig2 member, --jobs=8 grouped dispatch must not be
// slower than --jobs=8 sequential dispatch by more than 10% (best of three
// interleaved runs each), and --jobs=8 --call-dispatch=par must not be
// slower than --call-dispatch=seq by more than 10% under the same protocol.
// Exit 1 on violation.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analyzer/AnalysisSession.h"
#include "analyzer/SpecDirectives.h"
#include "support/Timer.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace astral;
using namespace astral::benchutil;

namespace {

/// Report fingerprint for the determinism check.
std::string fingerprint(const AnalysisResult &R) {
  std::string F = std::to_string(R.alarmCount());
  for (const Alarm &A : R.Alarms)
    F += "|" + std::to_string(A.Loc.Line) + ":" + A.Message;
  for (const auto &[Name, Itv] : R.VariableRanges)
    F += "|" + Name + "=" + Itv.toString();
  F += "|" + R.MainLoopInvariant;
  return F;
}

const char *dispatchName(PackDispatchMode M) {
  return M == PackDispatchMode::Groups ? "groups" : "seq";
}

const char *partitionDispatchName(PartitionDispatchMode M) {
  return M == PartitionDispatchMode::Parallel ? "par" : "seq";
}

const char *callDispatchName(CallDispatchMode M) {
  return M == CallDispatchMode::Parallel ? "par" : "seq";
}

/// Loads examples/partitioned_switch.cpp and extracts the input program it
/// embeds as a raw-string literal (the longest one, the same convention
/// astral-cli applies to example harnesses). The bench scripts run from the
/// repo root; the parent fallbacks cover a build-dir cwd.
std::string loadPartitionedExample() {
  std::string Text;
  for (const char *Path : {"examples/partitioned_switch.cpp",
                           "../examples/partitioned_switch.cpp",
                           "../../examples/partitioned_switch.cpp"}) {
    std::ifstream In(Path);
    if (In) {
      std::ostringstream SS;
      SS << In.rdbuf();
      Text = SS.str();
      break;
    }
  }
  std::string Best;
  size_t Pos = 0;
  while ((Pos = Text.find("R\"(", Pos)) != std::string::npos) {
    size_t Start = Pos + 3;
    size_t End = Text.find(")\"", Start);
    if (End == std::string::npos)
      break;
    if (End - Start > Best.size())
      Best = Text.substr(Start, End - Start);
    Pos = End + 2;
  }
  return Best;
}

/// One timed single-file run.
AnalysisResult runSingle(const codegen::FamilyProgram &FP, unsigned Jobs,
                         PackDispatchMode Dispatch, double &Seconds) {
  AnalysisInput In = familyInput(FP);
  In.Options.Jobs = Jobs;
  In.Options.PackDispatch = Dispatch;
  Timer T;
  AnalysisResult R = Analyzer::analyze(In);
  Seconds = T.seconds();
  return R;
}

/// PR-time smoke gate: grouped dispatch must not regress the 8-kLOC member.
int runSmoke() {
  std::puts("parallel smoke gate — 8-kLOC fig2 member, --jobs=8, "
            "groups vs seq dispatch (fail when groups > 1.10 * seq)");
  codegen::GeneratorConfig C;
  C.TargetLines = 8000;
  C.Seed = 1234;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);

  // Interleave the two modes (A/B/A/B/A/B) and take the best of three
  // each: a noisy-neighbor burst on a shared CI runner then has to land on
  // every run of one mode and none of the other to move the gate, instead
  // of on one contiguous back-to-back pair.
  std::string SeqPrint, GroupsPrint;
  double SeqSec = 0.0, GroupsSec = 0.0;
  for (int Run = 0; Run < 3; ++Run) {
    for (PackDispatchMode Mode :
         {PackDispatchMode::Sequential, PackDispatchMode::Groups}) {
      double Sec = 0.0;
      AnalysisResult R = runSingle(FP, 8, Mode, Sec);
      if (!R.FrontendOk) {
        std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
        return 1;
      }
      bool Seq = Mode == PackDispatchMode::Sequential;
      (Seq ? SeqPrint : GroupsPrint) = fingerprint(R);
      double &Best = Seq ? SeqSec : GroupsSec;
      Best = Run == 0 ? Sec : std::min(Best, Sec);
    }
  }
  double Ratio = GroupsSec / SeqSec;
  std::printf("PARALLEL smoke jobs=8 seq=%.3f groups=%.3f ratio=%.3f\n",
              SeqSec, GroupsSec, Ratio);
  if (GroupsPrint != SeqPrint) {
    std::puts("DETERMINISM VIOLATION: smoke groups report differs from seq");
    return 1;
  }
  if (Ratio > 1.10) {
    std::printf("SMOKE GATE FAILED: grouped dispatch is %.0f%% slower than "
                "sequential (budget: 10%%)\n",
                (Ratio - 1.0) * 100.0);
    return 1;
  }

  // Call-context dispatch must not tax the member either: the same
  // interleaved best-of-three protocol, --call-dispatch seq vs par.
  std::string CallSeqPrint, CallParPrint;
  double CallSeqSec = 0.0, CallParSec = 0.0;
  for (int Run = 0; Run < 3; ++Run) {
    for (CallDispatchMode Mode :
         {CallDispatchMode::Sequential, CallDispatchMode::Parallel}) {
      AnalysisInput In = familyInput(FP);
      In.Options.Jobs = 8;
      In.Options.CallDispatch = Mode;
      Timer T;
      AnalysisResult R = Analyzer::analyze(In);
      double Sec = T.seconds();
      if (!R.FrontendOk) {
        std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
        return 1;
      }
      bool Seq = Mode == CallDispatchMode::Sequential;
      (Seq ? CallSeqPrint : CallParPrint) = fingerprint(R);
      double &Best = Seq ? CallSeqSec : CallParSec;
      Best = Run == 0 ? Sec : std::min(Best, Sec);
    }
  }
  double CallRatio = CallParSec / CallSeqSec;
  std::printf("PARALLEL smoke jobs=8 call-seq=%.3f call-par=%.3f "
              "ratio=%.3f\n",
              CallSeqSec, CallParSec, CallRatio);
  if (CallParPrint != CallSeqPrint) {
    std::puts("DETERMINISM VIOLATION: smoke call-par report differs from "
              "call-seq");
    return 1;
  }
  // The perf half of the gate needs real parallel hardware: on a single
  // hardware thread, 8 workers fanning call contexts out is pure
  // scheduling overhead with zero parallelism to buy it back, so the
  // ratio only measures the host, not the code. The byte-identity check
  // above still ran; the perf budget is enforced where it is meaningful
  // (the CI runners are multi-core).
  if (std::thread::hardware_concurrency() < 2) {
    std::puts("note: single hardware thread — call par-vs-seq perf budget "
              "not enforced (determinism was)");
  } else if (CallRatio > 1.10) {
    std::printf("SMOKE GATE FAILED: call dispatch par is %.0f%% slower than "
                "seq (budget: 10%%)\n",
                (CallRatio - 1.0) * 100.0);
    return 1;
  }

  std::puts("smoke gate passed");
  return 0;
}

} // namespace

int main() {
  const char *SmokeEnv = std::getenv("ASTRAL_BENCH_SMOKE");
  if (SmokeEnv && SmokeEnv[0] == '1')
    return runSmoke();

  unsigned Lines = fullRuns() ? 16000 : 4000;
  unsigned Copies = 8;
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("parallel speedup vs jobs — family member of ~%u lines, "
              "batch of %u copies\n",
              Lines, Copies);
  std::printf("PARALLEL hardware cores=%u\n", Cores);
  if (Cores == 1)
    std::puts("note: single hardware thread — speedups are bounded by 1.0 "
              "here; the series only checks overhead and determinism.");
  hr();

  codegen::GeneratorConfig C;
  C.TargetLines = Lines;
  C.Seed = 1234;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);

  const unsigned JobsSeries[] = {1, 2, 4, 8};

  // -- single-file: lattice slots + pack-group transfer dispatch ----------
  // Dispatch is the inner dimension so each jobs value's seq/groups runs
  // are adjacent in process age (repeated analyses warm the allocator;
  // adjacent runs compare more fairly than two whole passes would).
  std::string SeqPrint;
  double SeqSingle = 0.0;
  for (unsigned Jobs : JobsSeries) {
    for (PackDispatchMode Dispatch :
         {PackDispatchMode::Sequential, PackDispatchMode::Groups}) {
      double Sec = 0.0;
      AnalysisResult R = runSingle(FP, Jobs, Dispatch, Sec);
      if (!R.FrontendOk) {
        std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
        return 1;
      }
      std::string Print = fingerprint(R);
      if (Jobs == 1 && Dispatch == PackDispatchMode::Sequential) {
        SeqPrint = Print;
        SeqSingle = Sec;
      } else if (Print != SeqPrint) {
        std::printf("DETERMINISM VIOLATION: single jobs=%u dispatch=%s "
                    "report differs\n",
                    Jobs, dispatchName(Dispatch));
        return 1;
      }
      std::printf("PARALLEL single jobs=%u dispatch=%s seconds=%.3f "
                  "speedup=%.2f alarms=%zu\n",
                  Jobs, dispatchName(Dispatch), Sec, SeqSingle / Sec,
                  R.alarmCount());
    }
  }
  hr();

  // -- partition: trace-partition dispatch on the partitioned example -----
  // The partition dimension is the inner loop for the same warm-allocator
  // fairness as the single-file series above.
  std::string PartSource = loadPartitionedExample();
  if (PartSource.empty()) {
    std::puts("error: examples/partitioned_switch.cpp not found from this "
              "cwd — run from the repo root.");
    return 1;
  }
  const unsigned PartReps = fullRuns() ? 80 : 16;
  std::string PartSeqPrint;
  double PartSeqSec = 0.0;
  for (unsigned Jobs : JobsSeries) {
    for (PartitionDispatchMode Mode : {PartitionDispatchMode::Sequential,
                                       PartitionDispatchMode::Parallel}) {
      AnalysisInput In;
      In.Source = PartSource;
      applySpecDirectives(In.Source, In.Options);
      In.Options.Jobs = Jobs;
      In.Options.PartitionDispatch = Mode;
      std::string Print;
      Timer T;
      for (unsigned Rep = 0; Rep < PartReps; ++Rep) {
        AnalysisResult R = Analyzer::analyze(In);
        if (!R.FrontendOk) {
          std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
          return 1;
        }
        Print = fingerprint(R);
      }
      double Sec = T.seconds();
      if (Jobs == 1 && Mode == PartitionDispatchMode::Sequential) {
        PartSeqPrint = Print;
        PartSeqSec = Sec;
      } else if (Print != PartSeqPrint) {
        std::printf("DETERMINISM VIOLATION: partition jobs=%u dispatch=%s "
                    "report differs\n",
                    Jobs, partitionDispatchName(Mode));
        return 1;
      }
      std::printf("PARALLEL partition jobs=%u dispatch=%s seconds=%.3f "
                  "speedup=%.2f reps=%u\n",
                  Jobs, partitionDispatchName(Mode), Sec, PartSeqSec / Sec,
                  PartReps);
    }
  }
  hr();

  // -- call: call-context dispatch on the partitioned example -------------
  // Same repeated-analysis protocol as the partition series: the clamp
  // helper is called from the width-2 mode disjunction, so each analysis
  // fans the calling contexts out under --call-dispatch=par.
  std::string CallSeqPrint;
  double CallSeqSec = 0.0;
  for (unsigned Jobs : JobsSeries) {
    for (CallDispatchMode Mode :
         {CallDispatchMode::Sequential, CallDispatchMode::Parallel}) {
      AnalysisInput In;
      In.Source = PartSource;
      applySpecDirectives(In.Source, In.Options);
      In.Options.Jobs = Jobs;
      In.Options.CallDispatch = Mode;
      std::string Print;
      Timer T;
      for (unsigned Rep = 0; Rep < PartReps; ++Rep) {
        AnalysisResult R = Analyzer::analyze(In);
        if (!R.FrontendOk) {
          std::printf("frontend failed: %s\n", R.FrontendErrors.c_str());
          return 1;
        }
        Print = fingerprint(R);
      }
      double Sec = T.seconds();
      if (Jobs == 1 && Mode == CallDispatchMode::Sequential) {
        CallSeqPrint = Print;
        CallSeqSec = Sec;
      } else if (Print != CallSeqPrint) {
        std::printf("DETERMINISM VIOLATION: call jobs=%u dispatch=%s "
                    "report differs\n",
                    Jobs, callDispatchName(Mode));
        return 1;
      }
      std::printf("PARALLEL call jobs=%u dispatch=%s seconds=%.3f "
                  "speedup=%.2f reps=%u\n",
                  Jobs, callDispatchName(Mode), Sec, CallSeqSec / Sec,
                  PartReps);
    }
  }
  hr();

  // -- batch: whole files across the pool ---------------------------------
  double SeqBatch = 0.0;
  for (unsigned Jobs : JobsSeries) {
    std::vector<AnalysisInput> Inputs;
    for (unsigned I = 0; I < Copies; ++I) {
      AnalysisInput In = familyInput(FP);
      In.Options.Jobs = Jobs;
      In.FileName = "member" + std::to_string(I) + ".c";
      Inputs.push_back(std::move(In));
    }
    Timer T;
    std::vector<AnalysisResult> Results =
        AnalysisSession::analyzeBatch(Inputs);
    double Sec = T.seconds();
    for (const AnalysisResult &R : Results)
      if (fingerprint(R) != SeqPrint) {
        std::printf("DETERMINISM VIOLATION: batch jobs=%u report differs\n",
                    Jobs);
        return 1;
      }
    if (Jobs == 1)
      SeqBatch = Sec;
    std::printf("PARALLEL batch jobs=%u files=%u seconds=%.3f speedup=%.2f\n",
                Jobs, Copies, Sec, SeqBatch / Sec);
  }
  hr();
  std::puts("expected shape: batch speedup grows toward the worker count "
            "(whole-file dispatch);");
  std::puts("single-file speedup tracks how much of the member's guard work "
            "falls into disjoint pack groups (dispatch=groups) on a "
            "multi-core host.");
  return 0;
}

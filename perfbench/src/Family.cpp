//===- perfbench/src/Family.cpp - family_seq and family_par ---------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fig. 2 family workloads, closed loops of cold analyses, each in a
/// fresh session. family_seq: one request analyses the N-line member and
/// then the 2N-line member at --jobs=1, where execution is ~99% of the
/// time and the pair shows how cost grows with size. family_par: one
/// request analyses the 2N-line member at --jobs=nproc, which drives the
/// scheduler and the dispatch grains.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "BenchUtil.h"
#include "analyzer/CliOptions.h"

#include <cmath>
#include <memory>

using namespace astral;

namespace perfbench {

namespace {

/// The members are the canonical ones `astral-cli emit-family` prints (its
/// default generator seed), so the figures line up with every fam<N>
/// measurement in the repository. They do not follow the run seed: the
/// cost of a member varies up to 2x between generator seeds at 2000 lines,
/// which would swamp any regression bound. The serve workload draws its
/// members from the run seed instead, averaging over many.
constexpr uint64_t FamilyGeneratorSeed = 42;

struct Member {
  std::string Name;
  AnalysisInput In;
  double Lines = 0.0;
  size_t ExpectedAlarms = 0;
  std::vector<double> Untraced;      ///< Analysis seconds, untraced.
  std::vector<PhaseTimes> Traced;    ///< Traced analyses, phase by phase.
  std::unique_ptr<PhasedAnalysis> First;
  std::map<std::string, uint64_t> FirstCounts;
  std::string FirstReport;
};

std::vector<Member> makeMembers(unsigned N, bool Parallel) {
  std::vector<unsigned> Sizes = {2 * N};
  if (!Parallel)
    Sizes.insert(Sizes.begin(), N);
  unsigned Jobs = Parallel ? hostJobs() : 1;
  std::vector<Member> Members;
  for (unsigned Lines : Sizes) {
    codegen::GeneratorConfig G;
    G.TargetLines = Lines;
    G.Seed = FamilyGeneratorSeed;
    codegen::FamilyProgram FP = codegen::generateFamilyProgram(G);
    Member M;
    M.Name = "fam" + std::to_string(Lines);
    M.Lines = FP.LineCount;
    M.In = benchutil::familyInput(FP,
                                  [&](AnalyzerOptions &O) { O.Jobs = Jobs; });
    M.In.FileName = M.Name + ".c";
    Members.push_back(std::move(M));
  }
  return Members;
}

/// Known answers: the family is alarm-free, and repeated cold analyses of
/// one member give the same report and, at --jobs=1, the same work counts.
void check(Member &M, const PhasedAnalysis &A, bool CountsRepeat,
           RunResult &R) {
  const AnalysisResult &Res = A.Result;
  cli::CliOptions Cli;
  Cli.Json = true;
  std::string Report = normalizeReport(cli::renderJsonReport(Cli, M.Name, Res));
  std::map<std::string, uint64_t> Counts = workCounts(Res.Stats);
  if (!M.First) {
    M.First = std::make_unique<PhasedAnalysis>(A);
    M.FirstCounts = Counts;
    M.FirstReport = Report;
  }
  if (!Res.FrontendOk)
    R.fail(M.Name + ": frontend failed: " + Res.FrontendErrors);
  else if (Res.Alarms.size() != M.ExpectedAlarms)
    R.fail(M.Name + ": " + std::to_string(Res.Alarms.size()) +
           " alarms, expected " + std::to_string(M.ExpectedAlarms));
  else if (Report != M.FirstReport)
    R.fail(M.Name + ": report differs from the first analysis");
  else if (CountsRepeat && Counts != M.FirstCounts)
    R.fail(M.Name + ": work counts differ from the first analysis");
}

PhaseTimes medianTimes(const std::vector<PhaseTimes> &V) {
  auto Med = [&](double PhaseTimes::*F) {
    std::vector<double> X;
    for (const PhaseTimes &P : V)
      X.push_back(P.*F);
    return median(X);
  };
  return {Med(&PhaseTimes::Seconds),   Med(&PhaseTimes::Frontend),
          Med(&PhaseTimes::Layout),    Med(&PhaseTimes::Packing),
          Med(&PhaseTimes::Execution), Med(&PhaseTimes::ExecutionCpu),
          Med(&PhaseTimes::Report)};
}

} // namespace

RunResult runFamily(const Config &C, bool Parallel, Tracer &T) {
  RunResult R;
  const unsigned N = C.Smoke ? 200 : 1000;

  std::vector<double> Setup;
  std::vector<Member> Members;
  for (int I = 0; I < SetupRepeats; ++I) {
    Clock::time_point T0 = Clock::now();
    Members = makeMembers(N, Parallel);
    Setup.push_back(secondsBetween(T0, Clock::now()));
  }
  if (C.CorruptExpectation)
    Members.back().ExpectedAlarms = 1;

  // Traced runs alternate traced and untraced requests, so one run yields
  // both sides of the tracing overhead.
  const unsigned MinRequests = C.Trace ? 2 : 1;
  std::vector<double> RequestSeconds;
  double LinesDone = 0.0, Last = 0.0;
  CpuTimes Cpu0 = machineCpuTimes();
  Clock::time_point LoopStart = Clock::now();
  for (unsigned Iter = 0;; ++Iter) {
    double Elapsed = secondsBetween(LoopStart, Clock::now());
    if (Iter >= MinRequests && Elapsed + Last > C.Seconds)
      break;
    bool Traced = C.Trace && Iter % 2 == 0;
    T.setEnabled(Traced);
    std::vector<std::pair<Member *, PhasedAnalysis>> Done;
    uint64_t Rid = T.newRequest();
    Span Req(T, "request", Rid);
    for (Member &M : Members) {
      ++R.Attempted;
      try {
        Done.emplace_back(&M, analyzePhased(M.In, T, Rid, &Req));
      } catch (const std::exception &E) {
        R.fail(M.Name + ": " + E.what());
      }
    }
    Last = Req.end();
    RequestSeconds.push_back(Last);
    for (auto &[M, A] : Done) {
      LinesDone += M->Lines;
      if (Traced)
        M->Traced.push_back(A.Times);
      else
        M->Untraced.push_back(A.Times.Seconds);
      check(*M, A, !Parallel, R);
    }
  }
  double LoopWall = secondsBetween(LoopStart, Clock::now());
  T.setEnabled(false);
  R.Notes.push_back(stealNote(Cpu0, machineCpuTimes()));

  Member &Small = Members.front(), &Large = Members.back();
  std::string Names, Samples;
  for (const Member &M : Members)
    Names += M.Name + " ";
  for (double S : Large.Untraced)
    Samples += " " + std::to_string(S);
  R.Notes.push_back("members: " + Names + "(generator seed 42), jobs=" +
                    std::to_string(Parallel ? hostJobs() : 1) +
                    ", requests=" + std::to_string(RequestSeconds.size()));
  R.Notes.push_back(Large.Name + " untraced analysis seconds:" + Samples);
  R.Notes.push_back("request_p95_s: not reported, " +
                    std::to_string(RequestSeconds.size()) +
                    " samples (needs 200 for ten beyond it)");

  if (!C.Trace) {
    if (&Small != &Large)
      R.Notes.push_back("scaling_exponent: " +
                        std::to_string(std::log2(median(Large.Untraced) /
                                                 median(Small.Untraced))));
    R.EndToEnd = {
        {"setup_s", median(Setup), "s"},
        {"analysis_s", median(Large.Untraced), "s"},
        {"kloc_per_s", LinesDone / 1000.0 / LoopWall, "kLOC/s"},
        {"request_p50_s", median(RequestSeconds), "s"},
        {"requests_per_s", RequestSeconds.size() / LoopWall, "1/s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
    return R;
  }

  LayerTotals L;
  auto AllSeconds = [](const Member &M) {
    std::vector<double> V = M.Untraced;
    for (const PhaseTimes &P : M.Traced)
      V.push_back(P.Seconds);
    return median(V);
  };
  if (&Small != &Large)
    L.ScalingExponent = std::log2(AllSeconds(Large) / AllSeconds(Small));
  for (Member &M : Members) {
    L.Lines += M.Lines;
    if (!M.First)
      continue;
    L.addCounts(*M.First);
    L.addTimes(medianTimes(M.Traced));
  }
  addLayerMetrics(R, L);
  addServiceMetrics(R, ServiceTotals{});
  PhaseTimes LargeTraced = medianTimes(Large.Traced);
  addTracingMetrics(R, T, LargeTraced.Seconds, median(Large.Untraced),
                    LargeTraced.Frontend + LargeTraced.Layout +
                        LargeTraced.Packing + LargeTraced.Execution +
                        LargeTraced.Report);
  return R;
}

void addPrecisionProbe(RunResult &R, const Config &C) {
  std::vector<AnalysisInput> Batch;
  std::vector<std::pair<unsigned, uint64_t>> Probed; // (lines, seed)
  for (unsigned K = 0; K < 2 * PrecisionProbeMembers; ++K) {
    codegen::GeneratorConfig G;
    G.TargetLines = K < PrecisionProbeMembers ? 125 : 250;
    G.Seed = mixSeed(C.Seed, 5000 + K);
    Batch.push_back(benchutil::familyInput(
        codegen::generateFamilyProgram(G),
        [](AnalyzerOptions &O) { O.Jobs = hostJobs(); })); // Sizes the pool.
    Probed.push_back({G.TargetLines, G.Seed});
  }
  std::vector<AnalysisResult> Results = AnalysisSession::analyzeBatch(Batch);
  double Alarmed = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    if (Results[I].Alarms.empty() && Results[I].FrontendOk)
      continue;
    ++Alarmed;
    R.Notes.push_back(
        "precision probe: emit-family --lines=" +
        std::to_string(Probed[I].first) +
        " --seed=" + std::to_string(Probed[I].second) + " raises " +
        std::to_string(Results[I].Alarms.size()) + " alarm(s)" +
        (Results[I].Alarms.empty()
             ? std::string()
             : ", first: " + Results[I].Alarms.front().Message));
  }
  R.PerLayer.push_back(
      {"precision.members_probed", double(Results.size()), "count"});
  R.PerLayer.push_back({"precision.members_alarmed", Alarmed, "count"});
}

} // namespace perfbench

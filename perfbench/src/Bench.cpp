//===- perfbench/src/Bench.cpp - Repository benchmark shared code ---------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/FamilyGenerator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <sched.h>
#include <sys/resource.h>

using namespace astral;

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return Ts.tv_sec + Ts.tv_nsec * 1e-9;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

unsigned hostJobs() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return 1;
}

CpuTimes machineCpuTimes() {
  std::ifstream F("/proc/stat");
  std::string Cpu;
  double Field[8] = {};
  CpuTimes T;
  if (!(F >> Cpu) || Cpu != "cpu")
    return T;
  for (double &V : Field)
    F >> V;
  for (double V : Field)
    T.Total += V;
  T.Steal = Field[7];
  return T;
}

std::string stealNote(const CpuTimes &Before, const CpuTimes &After) {
  double Total = After.Total - Before.Total;
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "host steal: %.2f%% of CPU time",
                Total > 0 ? 100.0 * (After.Steal - Before.Steal) / Total : 0.0);
  return Buf;
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Stream + 0x632BE59BD9B4E019ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

void RunResult::fail(const std::string &Why) {
  ++Failed;
  // The first few reasons are enough to diagnose a broken run.
  if (Failed <= 5)
    Notes.push_back("FAILED: " + Why);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

Span::Span(Tracer &T, const char *Name, uint64_t Request, const Span *Parent)
    : T(T), Name(Name), Request(Request), Parent(Parent ? Parent->Id : 0),
      Start(Clock::now()) {
  if (T.Enabled)
    Id = ++T.LastSpan;
}

double Span::end() {
  if (Seconds >= 0.0)
    return Seconds;
  Clock::time_point Stop = Clock::now();
  Seconds = secondsBetween(Start, Stop);
  if (Id)
    T.Spans.push_back({Name, Id, Parent, Request,
                       secondsBetween(T.Epoch, Start),
                       secondsBetween(T.Epoch, Stop)});
  return Seconds;
}

std::vector<double> Tracer::selfTimes() const {
  std::map<uint64_t, size_t> Index;
  for (size_t I = 0; I < Spans.size(); ++I)
    Index[Spans[I].Id] = I;
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const SpanRecord &S : Spans) {
    auto It = Index.find(S.Parent);
    if (It != Index.end())
      Children[It->second].push_back({S.Start, S.End});
  }
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0.0, Reach = S.Start;
    for (auto [Lo, Hi] : C) {
      Lo = std::max(Lo, Reach);
      Hi = std::min(Hi, S.End);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    Self[I] = (S.End - S.Start) - Covered;
  }
  return Self;
}

std::string Tracer::selfTimeTable() const {
  struct Row {
    uint64_t Count = 0;
    double Total = 0.0, Self = 0.0;
  };
  std::map<std::string, Row> Rows;
  std::vector<double> Self = selfTimes();
  double AllSelf = 0.0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Row &R = Rows[Spans[I].Name];
    ++R.Count;
    R.Total += Spans[I].End - Spans[I].Start;
    R.Self += Self[I];
    AllSelf += Self[I];
  }
  std::vector<std::pair<std::string, Row>> Sorted(Rows.begin(), Rows.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    return A.second.Self > B.second.Self;
  });
  std::string Out;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%-20s %8s %12s %12s %8s\n", "span",
                "count", "total_s", "self_s", "self_%");
  Out += Buf;
  for (const auto &[Name, R] : Sorted) {
    std::snprintf(Buf, sizeof(Buf), "%-20s %8llu %12.6f %12.6f %7.2f%%\n",
                  Name.c_str(), static_cast<unsigned long long>(R.Count),
                  R.Total, R.Self, AllSelf > 0 ? 100.0 * R.Self / AllSelf : 0);
    Out += Buf;
  }
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path, std::string &Err) const {
  std::ofstream F(Path);
  if (!F) {
    Err = "cannot write trace file " + Path;
    return false;
  }
  F << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char Buf[160];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,",
                  I ? ",\n" : "", S.Name.c_str(), S.Start * 1e6,
                  (S.End - S.Start) * 1e6);
    F << Buf;
    F << "\"args\":{\"span\":" << S.Id << ",\"parent\":" << S.Parent
      << ",\"request\":" << S.Request << "}}";
  }
  F << "\n]}\n";
  F.close();
  if (!F) {
    Err = "error writing trace file " + Path;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The phased analysis
//===----------------------------------------------------------------------===//

PhasedAnalysis analyzePhased(AnalysisInput In, Tracer &T, uint64_t Request,
                             const Span *Parent) {
  PhasedAnalysis A;
  Span Root(T, "analysis", Request, Parent);
  // Destroyed after Root has ended: freeing the abstract state is not part
  // of the analysis time, which ends with report().
  auto S = std::make_unique<AnalysisSession>(std::move(In));
  bool Ok = false;
  {
    Span Sp(T, "frontend", Request, &Root);
    const AnalysisSession::FrontendPhase &F = S->runFrontend();
    A.Times.Frontend = Sp.end();
    Ok = F.Ok;
    A.FoldedExprs = F.FoldedExprs;
    A.GlobalsDeleted = F.GlobalsDeleted;
  }
  if (Ok) {
    {
      Span Sp(T, "layout", Request, &Root);
      S->layoutCells();
      A.Times.Layout = Sp.end();
    }
    {
      Span Sp(T, "packing", Request, &Root);
      S->buildPacks();
      A.Times.Packing = Sp.end();
    }
    {
      Span Sp(T, "execution", Request, &Root);
      double Cpu0 = processCpuSeconds();
      S->runAbstractExecution();
      A.Times.ExecutionCpu = processCpuSeconds() - Cpu0;
      A.Times.Execution = Sp.end();
    }
  }
  {
    Span Sp(T, "report", Request, &Root);
    A.Result = S->report();
    A.Times.Report = Sp.end();
  }
  A.Times.Seconds = Root.end();
  return A;
}

/// Execution work counters, reported as totals and per kLOC.
static const char *const WorkCounters[] = {
    "iterator.calls_inlined",
    "iterator.call_memo_hits",
    "iterator.call_memo_misses",
    "fixpoint.iterations",
    "fixpoint.widenings",
    "transfer.assignments",
    "octagon.assignments",
    "octagon.guards",
    "analysis.octagon_closures_full",
    "analysis.octagon_closures_incremental",
    "partitioning.delayed_merges",
};

static const char *const OtherSummedCounters[] = {
    "parallel.partitions.dispatched",
    "concurrency.rounds",
    "concurrency.threads",
};

static const char *const MaxCounters[] = {
    "parallel.partitions.max_width",
    "parallel.calls.max_width",
    "parallel.groups.octagon.largest",
};

void LayerTotals::addCounts(const PhasedAnalysis &A) {
  const AnalysisResult &R = A.Result;
  SourceLines += R.SourceLines;
  FoldedExprs += A.FoldedExprs;
  GlobalsDeleted += A.GlobalsDeleted;
  Cells += R.NumCells;
  double Packs = R.packCount(DomainKind::Octagon);
  OctagonPacks += Packs;
  OctagonPackCells += Packs * R.avgPackCells(DomainKind::Octagon);
  PeakAbstractMb =
      std::max(PeakAbstractMb, R.PeakAbstractBytes / (1024.0 * 1024.0));
  for (const char *K : WorkCounters)
    Counts[K] += R.Stats.get(K);
  for (const char *K : OtherSummedCounters)
    Counts[K] += R.Stats.get(K);
  for (const char *K : MaxCounters)
    Maxima[K] = std::max(Maxima[K], R.Stats.get(K));
}

void LayerTotals::addTimes(const PhaseTimes &T) {
  Frontend += T.Frontend;
  Layout += T.Layout;
  Packing += T.Packing;
  Execution += T.Execution;
  ExecutionCpu += T.ExecutionCpu;
  Report += T.Report;
  Unaccounted += T.Seconds - (T.Frontend + T.Layout + T.Packing +
                              T.Execution + T.Report);
}

void addLayerMetrics(RunResult &R, const LayerTotals &L) {
  auto Add = [&](const std::string &Name, double V, const char *Unit) {
    R.PerLayer.push_back({Name, V, Unit});
  };
  auto Count = [&](const char *K) {
    auto It = L.Counts.find(K);
    return It == L.Counts.end() ? 0.0 : static_cast<double>(It->second);
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  double Kloc = L.Lines / 1000.0;

  // The whole pipeline's growth with input size (Fig. 2): 1 is linear.
  Add("scaling_exponent", L.ScalingExponent, "1");
  // frontend (src/lang, src/ir)
  Add("frontend.s", L.Frontend, "s");
  Add("frontend.source_lines", L.SourceLines, "count");
  Add("frontend.folded_exprs", L.FoldedExprs, "count");
  Add("frontend.globals_deleted", L.GlobalsDeleted, "count");
  // layout (src/memory)
  Add("layout.s", L.Layout, "s");
  Add("layout.cells", L.Cells, "count");
  // packing (src/analyzer/Packing)
  Add("packing.s", L.Packing, "s");
  Add("packing.octagon_packs", L.OctagonPacks, "count");
  Add("packing.octagon_avg_cells", Ratio(L.OctagonPackCells, L.OctagonPacks),
      "cells");
  // execution (iterator, transfer, fixpoint, domains, support)
  Add("execution.s", L.Execution, "s");
  Add("execution.peak_abstract_mb", L.PeakAbstractMb, "MiB");
  for (const char *K : WorkCounters)
    Add(K, Count(K), "count");
  for (const char *K : WorkCounters)
    Add(std::string(K) + "_per_kloc", Ratio(Count(K), Kloc), "count/kLOC");
  Add("iterator.call_memo_hit_ratio",
      Ratio(Count("iterator.call_memo_hits"),
            Count("iterator.call_memo_hits") +
                Count("iterator.call_memo_misses")),
      "ratio");
  Add("octagon.full_closure_ratio",
      Ratio(Count("analysis.octagon_closures_full"),
            Count("analysis.octagon_closures_full") +
                Count("analysis.octagon_closures_incremental")),
      "ratio");
  // scheduler (src/analyzer/Scheduler and the dispatch grains)
  Add("execution.cpu_s", L.ExecutionCpu, "s");
  Add("execution.cores_used", Ratio(L.ExecutionCpu, L.Execution), "cores");
  Add("parallel.partitions.dispatched", Count("parallel.partitions.dispatched"),
      "count");
  for (const char *K : MaxCounters) {
    auto It = L.Maxima.find(K);
    Add(K, It == L.Maxima.end() ? 0.0 : static_cast<double>(It->second),
        "count");
  }
  // report (InvariantStats, cli renderers)
  Add("report.s", L.Report, "s");
  // concurrency (src/concurrency)
  Add("concurrency.rounds", Count("concurrency.rounds"), "count");
  Add("concurrency.threads", Count("concurrency.threads"), "count");
  // The part of the analysis span no phase span covers.
  Add("tracing.unaccounted_s", L.Unaccounted, "s");
}

void addServiceMetrics(RunResult &R, const ServiceTotals &S) {
  R.PerLayer.push_back({"service.roundtrip_s", S.RoundtripS, "s"});
  R.PerLayer.push_back({"service.non_exec_s", S.NonExecS, "s"});
  R.PerLayer.push_back(
      {"cache.frontend_hit_ratio", S.FrontendHitRatio, "ratio"});
  R.PerLayer.push_back({"cache.packing_hit_ratio", S.PackingHitRatio, "ratio"});
  R.PerLayer.push_back({"cache.evictions", S.Evictions, "count"});
  R.PerLayer.push_back({"client.retries", S.Retries, "count"});
}

void addTracingMetrics(RunResult &R, const Tracer &T, double TracedS,
                       double UntracedS, double PhaseSumS) {
  R.PerLayer.push_back({"tracing.traced_analysis_s", TracedS, "s"});
  R.PerLayer.push_back({"tracing.untraced_analysis_s", UntracedS, "s"});
  R.PerLayer.push_back({"tracing.overhead_s", TracedS - UntracedS, "s"});
  R.PerLayer.push_back({"tracing.phase_sum_s", PhaseSumS, "s"});
  R.PerLayer.push_back(
      {"tracing.spans", static_cast<double>(T.spans().size()), "count"});
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "tracing account: analysis_s untraced %.6f s, traced %.6f s "
                "(overhead %+.6f s); phase spans of the traced analysis sum "
                "to %.6f s (%+.6f s from the untraced figure)",
                UntracedS, TracedS, TracedS - UntracedS, PhaseSumS,
                PhaseSumS - UntracedS);
  R.Notes.push_back(Buf);
}

std::map<std::string, uint64_t> workCounts(const Statistics &S) {
  std::map<std::string, uint64_t> C = S.all();
  for (auto It = C.begin(); It != C.end();) {
    const std::string &K = It->first;
    bool IsTime = K.size() > 3 && K.compare(K.size() - 3, 3, "_ms") == 0;
    It = IsTime ? C.erase(It) : std::next(It);
  }
  return C;
}

/// Replaces every non-empty run of \p Chars (or, with \p Until, of any
/// other characters) right after an occurrence of \p Key by \p With.
static void blankAfter(std::string &S, const std::string &Key,
                       const char *Chars, bool Until, const std::string &With) {
  for (size_t Pos = S.find(Key); Pos != std::string::npos;
       Pos = S.find(Key, Pos)) {
    Pos += Key.size();
    size_t End = Until ? S.find_first_of(Chars, Pos)
                       : S.find_first_not_of(Chars, Pos);
    End = std::min(End, S.size());
    if (End > Pos || Until) {
      S.replace(Pos, End - Pos, With);
      Pos += With.size();
    }
  }
}

std::string normalizeReport(const std::string &Report) {
  std::string Out = Report;
  blankAfter(Out, "\"analysis_seconds\": ", "0123456789.eE+-", false,
             "\"<time>\"");
  blankAfter(Out, "\"file\": \"", "\"", true, "<input>");
  return Out;
}

std::string familyFileText(uint64_t GeneratorSeed, unsigned Lines) {
  codegen::GeneratorConfig G;
  G.TargetLines = Lines;
  G.Seed = GeneratorSeed;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(G);
  std::string Out = "/* Generated member of the Sect. 4 program family. */\n";
  char Buf[192];
  for (const auto &[Name, R] : FP.VolatileRanges) {
    std::snprintf(Buf, sizeof(Buf), "// @astral volatile %s %.17g %.17g\n",
                  Name.c_str(), R.Lo, R.Hi);
    Out += Buf;
  }
  for (const std::string &Fn : FP.PartitionFunctions)
    Out += "// @astral partition " + Fn + "\n";
  for (double T : FP.DocumentedThresholds) {
    std::snprintf(Buf, sizeof(Buf), "// @astral threshold %.17g\n", T);
    Out += Buf;
  }
  Out += "// @astral clock-max 1e6\n";
  Out += FP.Source;
  return Out;
}

} // namespace perfbench

//===- perfbench/src/Bench.h - Repository benchmark shared code -*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the repository benchmark: run configuration, the span
/// tracer, metric collection, and the phased analysis every workload drives
/// through the public AnalysisSession calls. See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_PERFBENCH_BENCH_H
#define ASTRAL_PERFBENCH_BENCH_H

#include "analyzer/AnalysisSession.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Small inputs for the self-test.
  bool Smoke = false;
  /// Deliberately corrupts one known answer (self-test of the checks).
  bool CorruptExpectation = false;
  /// Repository root: examples/ and tests/golden/ are read from here.
  std::string RepoRoot = ".";
  /// Working directory for the daemon socket and the trace file
  /// (<WorkDir>/trace_<workload>_<seed>.json).
  std::string WorkDir = ".bench_build";
};

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int SetupRepeats = 7;

//===----------------------------------------------------------------------===//
// Statistics helpers
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in (0, 100].
double percentile(std::vector<double> V, double P);
double processCpuSeconds();
/// High-water resident set of this process, in MiB.
double peakRssMb();
/// CPUs this process may run on (what `nproc` prints).
unsigned hostJobs();
/// Cumulative CPU time of the whole machine, and the part of it the
/// hypervisor stole, from /proc/stat (both 0 where unavailable).
struct CpuTimes {
  double Total = 0.0, Steal = 0.0;
};
CpuTimes machineCpuTimes();
/// "host steal: X% of CPU time" between two readings: the share of the
/// machine's CPU time taken by other guests, which slows every workload.
std::string stealNote(const CpuTimes &Before, const CpuTimes &After);
/// splitmix64: derives independent generator seeds from the run seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

struct SpanRecord {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root span.
  uint64_t Request = 0;
  double Start = 0.0; ///< Seconds since the tracer was created.
  double End = 0.0;
};

/// In-memory span store. Spans are kept until the run ends and then written
/// as Chrome trace-event JSON. Single-threaded: only the benchmark's own
/// thread records spans.
class Tracer {
public:
  Tracer() : Epoch(Clock::now()) {}

  /// Spans opened while disabled still time themselves but are not kept.
  void setEnabled(bool On) { Enabled = On; }
  uint64_t newRequest() { return ++LastRequest; }

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Per span name: count, total duration and total self time.
  std::string selfTimeTable() const;

  bool writeChromeTrace(const std::string &Path, std::string &Err) const;

private:
  friend class Span;
  /// Self time of every span: its duration minus the union of the
  /// intervals its child spans cover. Indexed like spans().
  std::vector<double> selfTimes() const;

  Clock::time_point Epoch;
  bool Enabled = false;
  uint64_t LastRequest = 0;
  uint64_t LastSpan = 0;
  std::vector<SpanRecord> Spans;
};

/// RAII span. Always measures its own duration (end() returns it); records
/// itself in the tracer only if tracing was enabled when it opened.
class Span {
public:
  Span(Tracer &T, const char *Name, uint64_t Request,
       const Span *Parent = nullptr);
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double end();

private:
  Tracer &T;
  const char *Name;
  uint64_t Request;
  uint64_t Parent;
  uint64_t Id = 0; ///< 0 = not recorded.
  Clock::time_point Start;
  double Seconds = -1.0;
};

//===----------------------------------------------------------------------===//
// Metrics and results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Extra human-readable lines (percentiles with sample counts, failure
  /// reasons, the tracing-overhead account).
  std::vector<std::string> Notes;

  void fail(const std::string &Why);
};

//===----------------------------------------------------------------------===//
// The phased analysis
//===----------------------------------------------------------------------===//

/// Wall seconds of one analysis and of each public call inside it, plus
/// the process CPU seconds of the execution phase.
struct PhaseTimes {
  /// Session construction to the end of report(); the session's
  /// destruction is not included.
  double Seconds = 0.0;
  double Frontend = 0.0, Layout = 0.0, Packing = 0.0, Execution = 0.0;
  double ExecutionCpu = 0.0, Report = 0.0;
};

/// One cold analysis driven phase by phase through the public session calls.
struct PhasedAnalysis {
  astral::AnalysisResult Result;
  PhaseTimes Times;
  uint64_t FoldedExprs = 0, GlobalsDeleted = 0;
};

/// Runs runFrontend, layoutCells, buildPacks, runAbstractExecution and
/// report on a fresh session, each under its own span, all children of an
/// "analysis" span under \p Parent.
PhasedAnalysis analyzePhased(astral::AnalysisInput In, Tracer &T,
                             uint64_t Request, const Span *Parent);

/// Sums of the per-layer figures over one cold pass over a workload's
/// inputs; the family and serve workloads both report through this.
struct LayerTotals {
  double Lines = 0.0;
  double Frontend = 0.0, Layout = 0.0, Packing = 0.0, Execution = 0.0;
  double ExecutionCpu = 0.0, Report = 0.0, Unaccounted = 0.0;
  double SourceLines = 0.0, FoldedExprs = 0.0, GlobalsDeleted = 0.0;
  double Cells = 0.0, OctagonPacks = 0.0, OctagonPackCells = 0.0;
  double PeakAbstractMb = 0.0;
  /// log2(t(2N) / t(N)) over the family members; 0 where there are none.
  double ScalingExponent = 0.0;
  std::map<std::string, uint64_t> Counts; ///< Summed Statistics counters.
  std::map<std::string, uint64_t> Maxima; ///< Max-combined counters.

  /// Adds the work counts and sizes of one analysis; times are added
  /// apart, since the caller may take medians over repeats first.
  void addCounts(const PhasedAnalysis &A);
  void addTimes(const PhaseTimes &T);
};

/// Appends every per-layer metric of the frontend, layout, packing,
/// execution, scheduler, report and concurrency layers.
void addLayerMetrics(RunResult &R, const LayerTotals &L);

/// Service-layer figures; all zero on workloads that bypass the daemon.
struct ServiceTotals {
  double RoundtripS = 0.0;  ///< Median Client::roundTrip time.
  double NonExecS = 0.0;    ///< Median round trip minus analysis_seconds.
  double FrontendHitRatio = 0.0, PackingHitRatio = 0.0;
  double Evictions = 0.0;   ///< cache-stats delta over the measured loop.
  double Retries = 0.0;     ///< Client::retriesUsed().
};
void addServiceMetrics(RunResult &R, const ServiceTotals &S);

/// The tracing account: the traced and untraced medians of analysis_s, the
/// overhead between them, and the sum of the traced phase spans.
void addTracingMetrics(RunResult &R, const Tracer &T, double TracedS,
                       double UntracedS, double PhaseSumS);

/// The work counters a --jobs=1 analysis must repeat exactly.
std::map<std::string, uint64_t> workCounts(const astral::Statistics &S);

/// Blanks the wall-clock and input-path fields of a JSON report, as the
/// golden suite's regular expressions do.
std::string normalizeReport(const std::string &Report);

/// The family member's source with its environment specification rendered
/// as @astral directives (the emit-family format), so it can travel as a
/// plain file.
std::string familyFileText(uint64_t GeneratorSeed, unsigned Lines);

/// Members per size (125 and 250 lines) of the precision probe.
inline constexpr unsigned PrecisionProbeMembers = 12;

/// The family's known answer is "no alarm", but small members from some
/// generator seeds raise a false array-out-of-bounds alarm (README.md,
/// "Known defect"). Traced runs analyse a seeded sample of 125- and
/// 250-line members and report how many raise alarms, so the defect stays
/// measured while the timed workloads use members that meet the answer.
void addPrecisionProbe(RunResult &R, const Config &C);

RunResult runFamily(const Config &C, bool Parallel, Tracer &T);
RunResult runServe(const Config &C, Tracer &T);

} // namespace perfbench

#endif // ASTRAL_PERFBENCH_BENCH_H

//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   perfbench --workload <family_seq|family_par|serve_edit_loop>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--smoke] [--corrupt-expectation]
///             [--repo-root <dir>] [--work-dir <dir>]
///
/// Prints the notes and a metric table, then as its last line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0
/// when the run completed (failed operations are reported, not fatal), 1 on
/// an error that stopped the run, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<family_seq|family_par|serve_edit_loop> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] "
               "[--corrupt-expectation] [--repo-root <dir>] "
               "[--work-dir <dir>]\n",
               Why.c_str());
  return 2;
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-48s %18.9g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

std::string resultJson(const RunResult &R, const std::vector<Metric> &Ms) {
  std::string S = "{\"correct\": ";
  S += R.Failed == 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(R.Attempted);
  S += ", \"failed\": " + std::to_string(R.Failed);
  S += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Ms[I].Value);
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return S + "}}";
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--smoke") {
      C.Smoke = true;
    } else if (A == "--corrupt-expectation") {
      C.CorruptExpectation = true;
    } else if (!(V = Next())) {
      return usage("missing value after " + A);
    } else if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      char *End = nullptr;
      C.Seed = std::strtoull(V, &End, 10);
      if (!*V || *End)
        return usage("--seed expects a whole number");
      HaveSeed = true;
    } else if (A == "--seconds") {
      char *End = nullptr;
      C.Seconds = std::strtod(V, &End);
      if (!*V || *End || !(C.Seconds > 0) || C.Seconds > 3600)
        return usage("--seconds expects a number in (0, 3600]");
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (std::string(V) != "0" && std::string(V) != "1")
        return usage("--trace expects 0 or 1");
      C.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--repo-root") {
      C.RepoRoot = V;
    } else if (A == "--work-dir") {
      C.WorkDir = V;
    } else {
      return usage("unknown argument " + A);
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (C.Workload != "family_seq" && C.Workload != "family_par" &&
      C.Workload != "serve_edit_loop")
    return usage("unknown workload " + C.Workload);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0, C.Smoke ? " (smoke)" : "");
  std::fflush(stdout);

  Tracer T;
  RunResult R;
  try {
    if (C.Workload == "serve_edit_loop")
      R = runServe(C, T);
    else
      R = runFamily(C, C.Workload == "family_par", T);
    if (C.Trace)
      addPrecisionProbe(R, C);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: error: %s\n", E.what());
    return 1;
  }

  std::vector<Metric> Ms = C.Trace ? R.PerLayer : R.EndToEnd;
  for (Metric &M : Ms)
    if (!std::isfinite(M.Value)) {
      R.fail("metric " + M.Name + " is not finite");
      M.Value = 0.0; // Keeps the result line valid JSON.
    }

  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  if (C.Trace) {
    std::string Err, TraceFile = C.WorkDir + "/trace_" + C.Workload + "_" +
                                 std::to_string(C.Seed) + ".json";
    if (!T.writeChromeTrace(TraceFile, Err)) {
      std::fprintf(stderr, "perfbench: error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\nself time per span:\n%s",
                T.spans().size(), TraceFile.c_str(),
                T.selfTimeTable().c_str());
  }
  std::printf("%s metrics:\n", C.Trace ? "per-layer" : "end-to-end");
  printMetrics(Ms);
  std::printf("failed_ops: %llu/%llu = %.6f\n",
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted),
              R.Attempted ? double(R.Failed) / R.Attempted : 0.0);
  std::printf("%s\n", resultJson(R, Ms).c_str());
  return 0;
}

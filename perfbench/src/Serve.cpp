//===- perfbench/src/Serve.cpp - serve_edit_loop --------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon edit loop: an in-process service::Server with one pool worker
/// and one client connection with one request in flight (a closed loop),
/// sending single-file --json analyze requests over a corpus of the nine
/// examples plus the 250- and 500-line family members. Each round sends
/// every corpus file once in a seeded order; one of the two members, in
/// turn, is an *edit*: its text with a comment inserted at a seeded line,
/// sent under the same path — new content, so an artifact-cache miss and
/// insert and a cold analysis. Unchanged resubmits hit the frontend and
/// packing caches. The cache holds fewer entries than the edits of a run
/// produce, so edits evict.
///
/// The members are the canonical ones (generator seed 42) and edits keep
/// their meaning, so every answer is known: members from other generator
/// seeds raise false alarms at a rate of 2% at 250 lines and 0.2% at 500
/// (README.md, "Known defect"), which would fail runs at random. The
/// precision probe of traced runs keeps that defect measured.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analyzer/CliOptions.h"
#include "service/Client.h"
#include "service/Server.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

using namespace astral;

namespace perfbench {

namespace {

const char *const ExampleNames[] = {
    "quickstart",         "filter_verification",  "alarm_investigation",
    "flight_control",     "interp_table",         "rate_limiter_clocked",
    "partitioned_switch", "thread_handoff",       "thread_mode_table",
};

/// Per-shelf capacity of the daemon's artifact cache: above the 11 live
/// corpus files, below what the edits of a run insert.
constexpr size_t CacheEntries = 16;
constexpr unsigned MemberLines[] = {250, 500};

/// One distinct file content. Requests refer to contents by index.
struct Content {
  std::string Path;
  std::string Source;
  std::map<std::string, std::string> Headers;
  double Lines = 0.0;
  bool Member = false;
  std::string Golden;         ///< Examples: the normalized expected report.
  std::string FirstStdout;    ///< Normalized stdout of the first response.
  bool Requested = false;
};

struct Corpus {
  std::vector<Content> Contents;
  std::vector<size_t> Examples; ///< Content indices.
  std::vector<size_t> Members;  ///< Unedited member contents, by size.
};

struct RequestRecord {
  size_t Content;
  double Seconds = 0.0;
  double RoundTrip = 0.0;
  double AnalysisSeconds = 0.0;
  bool Edit = false;
  bool Largest = false; ///< Of the largest member (edits or not).
  bool Traced = false;
  std::string Error; ///< Empty when the response was a well-formed report.
};

std::string readText(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream S;
  S << F.rdbuf();
  return S.str();
}

double countLines(const std::string &S) {
  return static_cast<double>(std::count(S.begin(), S.end(), '\n'));
}

/// An edit: \p Base with a comment line inserted before a seeded line. A
/// line comment, because the line may fall inside a block comment.
Content editOf(const Content &Base, uint64_t EditId, std::mt19937_64 &Rng) {
  Content C = Base;
  size_t Line = std::uniform_int_distribution<size_t>(
      1, static_cast<size_t>(Base.Lines) - 1)(Rng);
  size_t Pos = 0;
  for (size_t I = 0; I < Line; ++I)
    Pos = C.Source.find('\n', Pos) + 1;
  C.Source.insert(Pos, "// edit " + std::to_string(EditId) + "\n");
  C.Lines += 1;
  C.Requested = false;
  return C;
}

Corpus buildCorpus(const Config &Cfg) {
  Corpus K;
  cli::CliOptions Cli;
  for (const char *Name : ExampleNames)
    Cli.InputPaths.push_back(Cfg.RepoRoot + "/examples/" + Name + ".cpp");
  std::vector<std::string> Notes;
  std::string Err;
  std::optional<std::vector<cli::LoadedFile>> Files =
      cli::loadInputFiles(Cli, Notes, Err);
  if (!Files)
    throw std::runtime_error("loading the examples: " + Err);
  for (size_t I = 0; I < Files->size(); ++I) {
    cli::LoadedFile &F = (*Files)[I];
    Content C;
    C.Path = "examples/" + std::string(ExampleNames[I]) + ".cpp";
    C.Source = std::move(F.Source);
    C.Headers = std::move(F.Headers);
    C.Lines = countLines(C.Source);
    C.Golden = normalizeReport(readText(Cfg.RepoRoot + "/tests/golden/" +
                                        ExampleNames[I] + ".expected.json"));
    K.Examples.push_back(K.Contents.size());
    K.Contents.push_back(std::move(C));
  }
  for (unsigned Lines : MemberLines) {
    Content C;
    C.Path = "family/fam" + std::to_string(Lines) + ".c";
    C.Source = familyFileText(42, Lines);
    C.Lines = countLines(C.Source);
    C.Member = true;
    K.Members.push_back(K.Contents.size());
    K.Contents.push_back(std::move(C));
  }
  return K;
}

/// Daemon plus connected client; tearing down stops and joins the daemon.
struct Daemon {
  std::unique_ptr<service::Server> Server;
  std::unique_ptr<service::Client> Client;

  void stop() {
    Client.reset();
    Server.reset();
  }
};

Daemon startDaemon(const Config &Cfg) {
  Daemon D;
  service::ServerConfig SC;
  SC.SocketPath =
      Cfg.WorkDir + "/serve-" + std::to_string(::getpid()) + ".sock";
  // One worker: with one request in flight more workers only idle, and on
  // a shared virtual machine handing each request to a different idle
  // worker exposes it to host steal: alternating runs measured up to 9%
  // steal and 0.59-0.80 s edits with nproc workers against at most 2% and
  // 0.52-0.57 s with one (README.md, "Host noise").
  SC.Jobs = 1;
  SC.CacheEntries = CacheEntries;
  SC.Verbose = false;
  D.Server = std::make_unique<service::Server>(SC);
  std::string Err;
  if (!D.Server->start(Err))
    throw std::runtime_error("starting the daemon: " + Err);
  D.Client = service::Client::connect(SC.SocketPath, Err);
  if (!D.Client)
    throw std::runtime_error("connecting to the daemon: " + Err);
  return D;
}

double jsonNumber(const service::JsonValue &Doc, const char *Key) {
  const service::JsonValue *V = Doc.find(Key);
  return V && V->isNumber() ? V->asNumber() : 0.0;
}

double cacheEvictions(service::Client &Cl) {
  service::Request Rq;
  Rq.Operation = service::Request::Op::CacheStats;
  std::string Err;
  std::optional<service::JsonValue> Resp = Cl.roundTrip(Rq, Err);
  if (!Resp)
    throw std::runtime_error("cache-stats: " + Err);
  return jsonNumber(*Resp, "evictions");
}

/// Sends one analyze request; fills the record's timings and error.
void sendRequest(service::Client &Cl, const Content &C, Tracer &T,
                 RequestRecord &Rec, std::string &Stdout,
                 std::map<std::string, double> &CacheCounts) {
  service::Request Rq;
  Rq.Operation = service::Request::Op::Analyze;
  Rq.Args = {"--json"};
  Rq.Files.push_back({C.Path, C.Source, C.Headers});
  std::string Err;
  uint64_t Rid = T.newRequest();
  std::optional<service::JsonValue> Resp;
  {
    Span Req(T, "request", Rid);
    {
      Span RT(T, "service.roundtrip", Rid, &Req);
      Resp = Cl.roundTrip(Rq, Err);
      Rec.RoundTrip = RT.end();
    }
    Rec.Seconds = Req.end();
  }
  if (!Resp) {
    Rec.Error = C.Path + ": transport: " + Err;
    return;
  }
  const service::JsonValue *Ok = Resp->find("ok");
  const service::JsonValue *Out = Resp->find("stdout");
  if (!Ok || !Ok->isBool() || !Ok->asBool() || !Out || !Out->isString()) {
    const service::JsonValue *E = Resp->find("error");
    Rec.Error = C.Path + ": daemon error: " +
                (E && E->isString() ? E->asString() : Resp->serialize());
    return;
  }
  if (jsonNumber(*Resp, "exit_code") != 0) {
    const service::JsonValue *E = Resp->find("stderr");
    Rec.Error = C.Path + ": exit code " +
                std::to_string(int(jsonNumber(*Resp, "exit_code"))) + ": " +
                (E && E->isString() ? E->asString() : "");
    return;
  }
  Stdout = Out->asString();
  if (const service::JsonValue *Cache = Resp->find("cache"))
    for (const char *K : {"frontend_hits", "frontend_misses", "packing_hits",
                          "packing_misses"})
      CacheCounts[K] += jsonNumber(*Cache, K);
  std::string ParseErr;
  std::optional<service::JsonValue> Report =
      service::JsonValue::parse(Stdout, ParseErr);
  if (!Report) {
    Rec.Error = C.Path + ": unparsable report: " + ParseErr;
    return;
  }
  Rec.AnalysisSeconds = jsonNumber(*Report, "analysis_seconds");
}

/// The in-process answer for one content: what the one-shot CLI prints
/// for it, with the same flags the requests carry.
AnalysisInput referenceInput(const Content &C) {
  cli::CliOptions Cli;
  Cli.Json = true;
  std::vector<std::string> Warnings;
  AnalysisInput In;
  In.FileName = C.Path;
  In.Source = C.Source;
  In.Headers = C.Headers;
  In.Options = cli::assembleOptions(Cli, C.Path, C.Source, Warnings);
  return In;
}

/// Checks a content's responses against its in-process rendering and its
/// known answer: the golden report for an example, no alarm for a member.
std::string verifyContent(const Content &C, const AnalysisResult &Res) {
  cli::CliOptions Cli;
  Cli.Json = true;
  std::string Ref = normalizeReport(cli::renderRun(Cli, {C.Path}, {Res}).Out);
  if (C.FirstStdout != Ref)
    return C.Path + ": daemon stdout differs from the in-process renderRun";
  if (!C.Member && Ref != C.Golden)
    return C.Path + ": report differs from its golden expectation";
  if (C.Member && !Res.Alarms.empty())
    return C.Path + ": family member raised " +
           std::to_string(Res.Alarms.size()) + " alarms";
  return "";
}

} // namespace

RunResult runServe(const Config &Cfg, Tracer &T) {
  RunResult R;
  std::vector<double> Setup;
  Corpus K;
  Daemon D;
  for (int I = 0; I < SetupRepeats; ++I) {
    D.stop();
    Clock::time_point T0 = Clock::now();
    K = buildCorpus(Cfg);
    D = startDaemon(Cfg);
    Setup.push_back(secondsBetween(T0, Clock::now()));
  }
  if (Cfg.CorruptExpectation)
    K.Contents[K.Examples.front()].Golden += " ";

  // A round's entries: an example (content index) or a member slot.
  struct Entry {
    bool Member;
    size_t Index;
  };
  std::vector<Entry> Order;
  for (size_t I : K.Examples)
    Order.push_back({false, I});
  for (size_t S = 0; S < K.Members.size(); ++S)
    Order.push_back({true, S});
  std::mt19937_64 Rng(mixSeed(Cfg.Seed, 1000));

  std::vector<RequestRecord> Records;
  std::map<std::string, double> CacheCounts;
  double EvictionsBefore = cacheEvictions(*D.Client);
  double LinesDone = 0.0;
  CpuTimes Cpu0 = machineCpuTimes();
  Clock::time_point LoopStart = Clock::now();
  for (unsigned Round = 0;; ++Round) {
    // At least one edit of each member, traced and untraced when tracing.
    if (secondsBetween(LoopStart, Clock::now()) >= Cfg.Seconds &&
        Round >= (Cfg.Trace ? 4u : 2u))
      break;
    // Rounds edit the two members in turn; tracing alternates per pair of
    // rounds, so both members' edits are measured traced and untraced.
    bool Traced = Cfg.Trace && Round / 2 % 2 == 0;
    T.setEnabled(Traced);
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (const Entry &E : Order) {
      RequestRecord Rec;
      Rec.Traced = Traced;
      if (!E.Member) {
        Rec.Content = E.Index;
      } else {
        Rec.Content = K.Members[E.Index];
        Rec.Largest = E.Index + 1 == K.Members.size();
        Rec.Edit = E.Index == Round % 2;
        if (Rec.Edit) {
          K.Contents.push_back(
              editOf(K.Contents[Rec.Content], K.Contents.size(), Rng));
          Rec.Content = K.Contents.size() - 1;
        }
      }
      Content &C = K.Contents[Rec.Content];
      std::string Stdout;
      sendRequest(*D.Client, C, T, Rec, Stdout, CacheCounts);
      LinesDone += C.Lines;
      if (Rec.Error.empty()) {
        Stdout = normalizeReport(Stdout);
        if (!C.Requested)
          C.FirstStdout = std::move(Stdout);
        else if (Stdout != C.FirstStdout)
          Rec.Error = C.Path + ": response differs from the first one";
      }
      C.Requested = true;
      Records.push_back(std::move(Rec));
    }
  }
  double LoopWall = secondsBetween(LoopStart, Clock::now());
  T.setEnabled(false);
  R.Notes.push_back(stealNote(Cpu0, machineCpuTimes()));
  double PeakRss = peakRssMb();
  double Evictions = cacheEvictions(*D.Client) - EvictionsBefore;
  double Retries = D.Client->retriesUsed();
  D.stop();

  // Known answers. The initial corpus is analysed phase by phase (these
  // analyses also give the per-layer figures); the edits, in one batch.
  T.setEnabled(Cfg.Trace);
  LayerTotals L;
  std::vector<std::string> Verdict(K.Contents.size());
  size_t InitialContents = K.Examples.size() + K.Members.size();
  for (size_t I = 0; I < InitialContents; ++I) {
    uint64_t Rid = T.newRequest();
    Span Root(T, "verify", Rid);
    PhasedAnalysis A =
        analyzePhased(referenceInput(K.Contents[I]), T, Rid, &Root);
    L.Lines += K.Contents[I].Lines;
    L.addCounts(A);
    L.addTimes(A.Times);
    if (K.Contents[I].Requested)
      Verdict[I] = verifyContent(K.Contents[I], A.Result);
  }
  T.setEnabled(false);
  std::vector<AnalysisInput> Batch;
  for (size_t I = InitialContents; I < K.Contents.size(); ++I) {
    Batch.push_back(referenceInput(K.Contents[I]));
    Batch.back().Options.Jobs = hostJobs(); // Sizes the batch pool.
  }
  std::vector<AnalysisResult> BatchResults =
      AnalysisSession::analyzeBatch(Batch);
  for (size_t I = 0; I < BatchResults.size(); ++I)
    Verdict[InitialContents + I] =
        verifyContent(K.Contents[InitialContents + I], BatchResults[I]);

  // Cold analyses of the largest file: the edits of the 500-line member.
  std::vector<double> All, NonExec, RoundTrips, Edits, TracedEdits,
      UntracedEdits, TracedEditRT;
  size_t AllEdits = 0;
  for (const RequestRecord &Rec : Records) {
    ++R.Attempted;
    std::string Why = Rec.Error.empty() ? Verdict[Rec.Content] : Rec.Error;
    if (!Why.empty())
      R.fail(Why);
    All.push_back(Rec.Seconds);
    RoundTrips.push_back(Rec.RoundTrip);
    NonExec.push_back(Rec.RoundTrip - Rec.AnalysisSeconds);
    AllEdits += Rec.Edit;
    if (!Rec.Edit || !Rec.Largest)
      continue;
    Edits.push_back(Rec.Seconds);
    if (Rec.Traced) {
      TracedEdits.push_back(Rec.Seconds);
      TracedEditRT.push_back(Rec.RoundTrip);
    } else {
      UntracedEdits.push_back(Rec.Seconds);
    }
  }

  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "requests=%zu edits=%zu (of the largest member: %zu) "
                "evictions=%.0f corpus=%zu examples + members of %u and %u "
                "lines, one daemon worker",
                Records.size(), AllEdits, Edits.size(), Evictions,
                K.Examples.size(), MemberLines[0], MemberLines[1]);
  R.Notes.push_back(Buf);
  std::string Samples;
  for (double S : Edits)
    Samples += " " + std::to_string(S);
  R.Notes.push_back("edit round trips of the largest member:" + Samples);
  if (All.size() >= 200)
    std::snprintf(Buf, sizeof(Buf), "request_p95_s: %.6f (%zu samples)",
                  percentile(All, 95), All.size());
  else
    std::snprintf(Buf, sizeof(Buf),
                  "request_p95_s: not reported, %zu samples (needs 200 for "
                  "ten beyond it)",
                  All.size());
  R.Notes.push_back(Buf);

  if (!Cfg.Trace) {
    R.EndToEnd = {
        {"setup_s", median(Setup), "s"},
        {"analysis_s", median(Edits), "s"},
        {"kloc_per_s", LinesDone / 1000.0 / LoopWall, "kLOC/s"},
        {"request_p50_s", median(All), "s"},
        {"requests_per_s", Records.size() / LoopWall, "1/s"},
        {"peak_rss_mb", PeakRss, "MiB"},
    };
    return R;
  }

  addLayerMetrics(R, L);
  ServiceTotals S;
  S.RoundtripS = median(RoundTrips);
  S.NonExecS = median(NonExec);
  auto Ratio = [&](const char *Hits, const char *Misses) {
    double H = CacheCounts[Hits], M = CacheCounts[Misses];
    return H + M > 0 ? H / (H + M) : 0.0;
  };
  S.FrontendHitRatio = Ratio("frontend_hits", "frontend_misses");
  S.PackingHitRatio = Ratio("packing_hits", "packing_misses");
  S.Evictions = Evictions;
  S.Retries = Retries;
  addServiceMetrics(R, S);
  addTracingMetrics(R, T, median(TracedEdits), median(UntracedEdits),
                    median(TracedEditRT));
  return R;
}

} // namespace perfbench

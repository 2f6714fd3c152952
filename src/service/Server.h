//===- service/Server.h - The analyzer-as-a-service daemon ------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `astral serve`: a long-lived daemon on a Unix-domain stream socket
/// speaking the newline-delimited JSON protocol of service/Protocol.h.
/// One thread per connection decodes requests; analyze requests are
/// assembled with the shared cli layer (same directive/flag semantics as
/// the one-shot driver) and scheduled through the RequestQueue onto one
/// shared worker pool, seeded from the content-hash ArtifactCache.
/// Responses embed cli::renderRun output verbatim, so a client session is
/// byte-identical to running astral-cli directly — warm or cold.
///
/// Lifecycle: start() binds (recovering stale socket files left by a dead
/// daemon), wait() blocks until a shutdown request, requestStop(), or a
/// handled signal, then drains gracefully: the in-flight analysis drain
/// finishes (or cancels past its own deadline), queued-but-unstarted
/// requests resolve with structured "shutting-down" errors, every
/// connection gets its pending response, and the socket is unlinked.
///
/// Fault posture: a request can fail — malformed frame, expired deadline,
/// busted memory budget, an injected fault — but the daemon cannot. Every
/// per-request failure becomes an {"ok":false,...,"error_kind":...}
/// response (service/Protocol.h) and the accept loop keeps serving.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SERVICE_SERVER_H
#define ASTRAL_SERVICE_SERVER_H

#include "analyzer/Scheduler.h"
#include "service/ArtifactCache.h"
#include "service/Protocol.h"
#include "service/RequestQueue.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace astral {
namespace service {

struct ServerConfig {
  std::string SocketPath;
  /// Worker threads of the shared pool (0 = one per hardware thread, the
  /// Scheduler::effectiveJobs convention). Per-request --jobs values do not
  /// resize the daemon's pool, and every file runs on one of its threads,
  /// so they change nothing at all.
  unsigned Jobs = 0;
  size_t CacheEntries = 64;
  bool Verbose = true;
  /// Upper bound on one request line (the framing unit). A connection that
  /// exceeds it without producing a newline gets a structured "bad-request"
  /// error and is closed — an unframed flood must not grow the buffer
  /// without bound. Tests shrink this to exercise the guard cheaply.
  size_t MaxRequestBytes = 64u << 20;
};

class Server {
public:
  explicit Server(ServerConfig C);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and starts the accept loop. False + \p Err on failure (socket in
  /// use by a live daemon, path too long, ...).
  bool start(std::string &Err);

  /// Blocks until the daemon stops (shutdown request or requestStop), then
  /// drains every connection and removes the socket. Returns the process
  /// exit code.
  int wait();

  /// Thread-safe, async-signal-safe stop trigger.
  void requestStop();

  const std::string &socketPath() const { return Cfg.SocketPath; }

private:
  void acceptLoop();
  void serveConnection(int Fd);
  std::string handleLine(const std::string &Line, bool &StopAfterSend);
  std::string handleAnalyze(const Request &R);
  std::string handleStatus();
  std::string handleCacheStats();

  ServerConfig Cfg;
  int ListenFd = -1;
  int StopPipe[2] = {-1, -1};

  std::shared_ptr<Scheduler> Pool;
  ArtifactCache Cache;
  std::unique_ptr<RequestQueue> Queue;

  std::thread Acceptor;
  std::mutex ConnMu;
  std::vector<int> ConnFds;
  std::vector<std::thread> ConnThreads;
  std::atomic<bool> Stopping{false};
  bool Started = false;
};

/// The `astral-cli serve` subcommand: parses its flags, runs a Server until
/// shutdown, returns the process exit code. Installs SIGINT/SIGTERM
/// handlers that stop the daemon cleanly.
int runServeCommand(const std::vector<std::string> &Args);

} // namespace service
} // namespace astral

#endif // ASTRAL_SERVICE_SERVER_H

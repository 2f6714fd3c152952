//===- support/MemoryTracker.h - Abstract-state memory accounting -*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the bytes held by abstract-domain data structures (persistent map
/// nodes, octagon matrices, decision trees). The paper reports analyzer
/// memory consumption (550 Mb full / 150 Mb with packing optimization,
/// Sect. 8); benches E3/E5 reproduce the *shape* of those numbers using this
/// tracker rather than OS-level RSS, which would be polluted by the host
/// allocator and the benchmark harness.
///
/// The meters are per-session Counters: an AnalysisSession installs its own
/// Counter as the calling thread's ambient sink (CounterScope) for the
/// duration of its analysis phases. One session always runs on one thread
/// (the Scheduler only ever schedules whole files), so a Counter is touched
/// by exactly one thread at a time and needs no atomics: the hot-path
/// noteAlloc/noteFree are an inline thread-local load plus two plain adds.
/// Concurrent sessions (analyzeBatch files, daemon requests) meter their own
/// abstract-state bytes on their own threads. There is no process-wide
/// figure: allocations made with no ambient counter installed are not
/// metered, and a test that wants to observe them installs a local Counter.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_MEMORYTRACKER_H
#define ASTRAL_SUPPORT_MEMORYTRACKER_H

#include <cstddef>
#include <cstdint>

namespace astral {
namespace memtrack {

/// One session's abstract-state byte meter. Single-threaded: only the
/// thread running the session touches it. Live accounting is signed — a
/// session may free structures it adopted rather than allocated (shared
/// artifacts), so transient negative live figures clamp to zero instead of
/// wrapping.
class Counter {
public:
  void noteAlloc(size_t Bytes) {
    Live += int64_t(Bytes);
    if (Live > Peak)
      Peak = Live;
  }
  void noteFree(size_t Bytes) { Live -= int64_t(Bytes); }
  size_t liveBytes() const { return Live > 0 ? size_t(Live) : 0; }
  size_t peakBytes() const { return Peak > 0 ? size_t(Peak) : 0; }
  /// Resets the high-water mark to the current live figure.
  void resetPeak() { Peak = Live; }

private:
  int64_t Live = 0;
  int64_t Peak = 0;
};

namespace detail {
/// The calling thread's ambient counter, or null. constinit keeps the
/// thread_local access a plain TLS load (no lazy-initialization guard).
inline constinit thread_local Counter *Ambient = nullptr;
} // namespace detail

/// Installs \p C as the calling thread's ambient counter for the scope's
/// lifetime (restores the previous one on exit).
class CounterScope {
public:
  explicit CounterScope(Counter *C) : Prev(detail::Ambient) {
    detail::Ambient = C;
  }
  ~CounterScope() { detail::Ambient = Prev; }

  CounterScope(const CounterScope &) = delete;
  CounterScope &operator=(const CounterScope &) = delete;

private:
  Counter *Prev;
};

/// Records an allocation of \p Bytes owned by abstract state into the
/// ambient counter, when one is installed.
inline void noteAlloc(size_t Bytes) {
  if (Counter *C = detail::Ambient)
    C->noteAlloc(Bytes);
}
/// Records a deallocation of \p Bytes owned by abstract state.
inline void noteFree(size_t Bytes) {
  if (Counter *C = detail::Ambient)
    C->noteFree(Bytes);
}

} // namespace memtrack
} // namespace astral

#endif // ASTRAL_SUPPORT_MEMORYTRACKER_H

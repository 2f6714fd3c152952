//===- support/Statistics.h - Analysis statistics registry -------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters collected during an analysis run (fixpoint iterations,
/// widening applications, octagon closures split by discipline —
/// `analysis.octagon_closures_full` / `analysis.octagon_closures_incremental`
/// plus their legacy total, alarms by category, ...). The registry is
/// per-run, not global, so benches and batch analyses can run many analyses
/// and compare counters side by side without cross-contamination.
///
/// Accumulation is mutex-guarded, so a registry may be read from another
/// thread than the one running its session. One session runs on one
/// thread, so its totals never depend on `--jobs`.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_STATISTICS_H
#define ASTRAL_SUPPORT_STATISTICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace astral {

/// A per-run bag of named counters.
class Statistics {
public:
  Statistics() = default;
  Statistics(const Statistics &O) : Counters(O.snapshot()) {}
  Statistics &operator=(const Statistics &O) {
    if (this != &O) {
      CounterMap Copy = O.snapshot();
      std::lock_guard<std::mutex> L(Mu);
      Counters = std::move(Copy);
    }
    return *this;
  }

  // Names are looked up as string views: a bump of an existing counter
  // allocates nothing, only the first insertion of a name copies it.
  void add(std::string_view Name, uint64_t Delta = 1) {
    std::lock_guard<std::mutex> L(Mu);
    slot(Name) += Delta;
  }
  void set(std::string_view Name, uint64_t Value) {
    std::lock_guard<std::mutex> L(Mu);
    slot(Name) = Value;
  }
  uint64_t get(std::string_view Name) const {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }
  /// A consistent copy of every counter (sorted by name).
  std::map<std::string, uint64_t> all() const {
    std::lock_guard<std::mutex> L(Mu);
    return {Counters.begin(), Counters.end()};
  }

  /// Renders "name = value" lines sorted by name.
  std::string toString() const;

private:
  /// std::less<> makes find() accept a string_view without a copy.
  using CounterMap = std::map<std::string, uint64_t, std::less<>>;

  CounterMap snapshot() const {
    std::lock_guard<std::mutex> L(Mu);
    return Counters;
  }
  /// The counter for \p Name, inserted at 0 when new. Mu must be held.
  uint64_t &slot(std::string_view Name) {
    auto It = Counters.find(Name);
    if (It == Counters.end())
      It = Counters.emplace(std::string(Name), 0).first;
    return It->second;
  }

  mutable std::mutex Mu;
  CounterMap Counters;
};

} // namespace astral

#endif // ASTRAL_SUPPORT_STATISTICS_H

//===- concurrency/Interference.cpp - Shared-cell interference --------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "concurrency/Interference.h"

#include <algorithm>

namespace astral {
namespace concurrency {

/// Strict ordering of alarm anchors: program point first (stable across
/// renders), then source position as a tiebreak for synthetic points.
static bool anchorLess(uint32_t PA, const SourceLocation &LA, uint32_t PB,
                       const SourceLocation &LB) {
  if (PA != PB)
    return PA < PB;
  return LA < LB;
}

bool ThreadAccess::joinInPlace(const ThreadAccess &O) {
  bool Changed = false;
  if (O.Read) {
    if (!Read || anchorLess(O.ReadPoint, O.ReadLoc, ReadPoint, ReadLoc)) {
      ReadPoint = O.ReadPoint;
      ReadLoc = O.ReadLoc;
    }
    Changed |= !Read;
    Read = true;
  }
  if (O.Written) {
    if (!Written ||
        anchorLess(O.WritePoint, O.WriteLoc, WritePoint, WriteLoc)) {
      WritePoint = O.WritePoint;
      WriteLoc = O.WriteLoc;
    }
    Changed |= !Written;
    Written = true;
    Interval Joined = Writes.join(O.Writes);
    Changed |= Joined != Writes;
    Writes = Joined;
  }
  return Changed;
}

bool InterferenceMap::joinInPlace(size_t T, const ThreadInterference &Delta) {
  bool Changed = false;
  ThreadInterference &Dst = Threads[T];
  for (const auto &[C, A] : Delta) {
    auto [It, Inserted] = Dst.try_emplace(C, A);
    if (Inserted)
      Changed = true;
    else
      Changed |= It->second.joinInPlace(A);
  }
  return Changed;
}

bool InterferenceMap::equal(const InterferenceMap &O) const {
  if (Threads.size() != O.Threads.size())
    return false;
  for (size_t T = 0; T < Threads.size(); ++T)
    if (Threads[T] != O.Threads[T])
      return false;
  return true;
}

void InterferenceMap::widenWrites(const InterferenceMap &Prev,
                                  const std::vector<Interval> &CellRange) {
  for (size_t T = 0; T < Threads.size(); ++T) {
    const ThreadInterference &P = Prev.Threads[T];
    for (auto &[C, A] : Threads[T]) {
      if (!A.Written)
        continue;
      auto It = P.find(C);
      // Grew past the previous round: jump to the machine range. A cell
      // first written this round is left alone — it gets one exact round
      // before the cap applies.
      if (It != P.end() && It->second.Written &&
          !A.Writes.leq(It->second.Writes))
        A.Writes = C < CellRange.size() ? CellRange[C] : Interval::top();
    }
  }
}

Interval InterferenceMap::rivalWrites(size_t T, memory::CellId C) const {
  Interval R = Interval::bottom();
  for (size_t O = 0; O < Threads.size(); ++O) {
    if (O == T)
      continue;
    auto It = Threads[O].find(C);
    if (It != Threads[O].end() && It->second.Written)
      R = R.join(It->second.Writes);
  }
  return R;
}

size_t InterferenceMap::interferenceCells() const {
  std::vector<memory::CellId> Cells;
  for (const ThreadInterference &T : Threads)
    for (const auto &[C, A] : T)
      if (A.Written)
        Cells.push_back(C);
  std::sort(Cells.begin(), Cells.end());
  Cells.erase(std::unique(Cells.begin(), Cells.end()), Cells.end());
  return Cells.size();
}

void InterferenceRecorder::recordRead(memory::CellId C, uint32_t Point,
                                      SourceLocation Loc) {
  ThreadAccess A;
  A.Read = true;
  A.ReadPoint = Point;
  A.ReadLoc = Loc;
  auto [It, Inserted] = Rec.try_emplace(C, A);
  if (!Inserted)
    It->second.joinInPlace(A);
}

void InterferenceRecorder::recordWrite(memory::CellId C, const Interval &V,
                                       uint32_t Point, SourceLocation Loc) {
  ThreadAccess A;
  A.Written = true;
  A.Writes = V;
  A.WritePoint = Point;
  A.WriteLoc = Loc;
  auto [It, Inserted] = Rec.try_emplace(C, A);
  if (!Inserted)
    It->second.joinInPlace(A);
}

ThreadInterference InterferenceRecorder::take() {
  ThreadInterference Out;
  Out.swap(Rec);
  return Out;
}

} // namespace concurrency
} // namespace astral

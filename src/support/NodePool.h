//===- support/NodePool.h - Per-thread fixed-size block pool -----*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stateless allocator that serves single objects from a per-thread free
/// list of fixed-size blocks. PersistentMap allocates its nodes through it:
/// every transfer function path-copies O(log n) nodes and every lattice
/// operation drops as many, so in steady state an analysis thread recycles
/// its own blocks and never reaches the heap. (Bursts of node frees overflow
/// glibc's small per-thread caches, which is where the heap cost came from.)
///
/// Rules:
///   - Blocks of one size class live on one list per thread. A block freed
///     on another thread than the one that allocated it joins the freeing
///     thread's list.
///   - A thread's lists are returned to the heap when the thread exits, so
///     a thread holds on to its high-water mark of free blocks until then.
///     Frees that happen after that (later thread_local or static
///     destructors) go straight to the heap.
///   - Free-listed blocks are poisoned for AddressSanitizer and unpoisoned
///     on reuse, so a use-after-free of a node is still reported. The macros
///     are no-ops in other builds.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_NODEPOOL_H
#define ASTRAL_SUPPORT_NODEPOOL_H

#include <sanitizer/asan_interface.h>

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

namespace astral {
namespace nodepool {

/// The calling thread's block traffic, across every size class.
struct ThreadStats {
  uint64_t FreshBlocks = 0; ///< Blocks taken from the heap.
  uint64_t CachedBlocks = 0; ///< Blocks now on the thread's free lists.
};

namespace detail {

struct FreeBlock {
  FreeBlock *Next;
};

inline constinit thread_local ThreadStats Stats;
/// Blocks handed back to the heap by thread-exit releases, process-wide.
inline std::atomic<uint64_t> ReleasedAtExit{0};

/// One thread's free list for blocks of \p Size bytes. Trivially
/// destructible so that the hot path is a plain TLS access; the release at
/// thread exit is registered on the first free (see Releaser).
template <size_t Size> struct FreeList {
  FreeBlock *Head = nullptr;
  bool Registered = false;
  bool Released = false;
};
template <size_t Size> inline constinit thread_local FreeList<Size> List;

template <size_t Size> struct Releaser {
  ~Releaser() {
    FreeList<Size> &L = List<Size>;
    uint64_t N = 0;
    while (FreeBlock *B = L.Head) {
      ASAN_UNPOISON_MEMORY_REGION(B, Size);
      L.Head = B->Next;
      ::operator delete(B);
      ++N;
    }
    L.Released = true;
    Stats.CachedBlocks -= N;
    ReleasedAtExit.fetch_add(N, std::memory_order_relaxed);
  }
};

template <size_t Size> void *allocate() {
  FreeList<Size> &L = List<Size>;
  if (FreeBlock *B = L.Head) {
    ASAN_UNPOISON_MEMORY_REGION(B, Size);
    L.Head = B->Next;
    --Stats.CachedBlocks;
    return B;
  }
  ++Stats.FreshBlocks;
  return ::operator new(Size);
}

template <size_t Size> void deallocate(void *P) {
  FreeList<Size> &L = List<Size>;
  if (!L.Registered) [[unlikely]] {
    static thread_local Releaser<Size> R;
    (void)R;
    L.Registered = true;
  }
  if (L.Released) [[unlikely]] {
    ::operator delete(P);
    return;
  }
  L.Head = ::new (P) FreeBlock{L.Head};
  ++Stats.CachedBlocks;
  ASAN_POISON_MEMORY_REGION(P, Size);
}

/// Size classes are multiples of the default new alignment, so maps over
/// value types of similar size share one list.
constexpr size_t blockSize(size_t Bytes) {
  constexpr size_t A = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  return (Bytes + A - 1) / A * A;
}

} // namespace detail

/// The calling thread's counters (tests read them to check recycling).
inline const ThreadStats &threadStats() { return detail::Stats; }
/// Total blocks released by exiting threads so far.
inline uint64_t releasedAtThreadExit() {
  return detail::ReleasedAtExit.load(std::memory_order_relaxed);
}

/// Stateless allocator over the per-thread pools; for single-object
/// allocations (std::allocate_shared).
template <typename T> struct Allocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "over-aligned types are not pooled");
  static constexpr size_t Size =
      detail::blockSize(sizeof(T) < sizeof(detail::FreeBlock)
                            ? sizeof(detail::FreeBlock)
                            : sizeof(T));

  Allocator() = default;
  template <typename U> Allocator(const Allocator<U> &) {}

  T *allocate(size_t N) {
    assert(N == 1 && "the node pool serves single objects");
    (void)N;
    return static_cast<T *>(detail::allocate<Size>());
  }
  void deallocate(T *P, size_t) { detail::deallocate<Size>(P); }

  template <typename U> bool operator==(const Allocator<U> &) const {
    return true;
  }
};

} // namespace nodepool
} // namespace astral

#endif // ASTRAL_SUPPORT_NODEPOOL_H

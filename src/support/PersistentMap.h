//===- support/PersistentMap.h - Sharable functional maps --------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional maps implemented as sharable balanced binary trees with
/// short-cut evaluation on physically identical subtrees — the Sect. 6.1.2
/// representation of abstract environments. The paper reports a 7x analysis
/// speedup from this structure because abstract union / widening between the
/// two branches of a test touches only the few cells the branches modified;
/// bench_env_sharing reproduces that experiment.
///
/// The tree is a persistent AVL keyed by an integral id. All operations
/// return new maps; subtrees are shared via std::shared_ptr. The workhorses
/// are:
///   - set/get/erase: O(log n) path copying;
///   - merge(A, B, F): applies F over the keys of A and B, returning A's
///     subtree untouched whenever A and B are physically equal (so F must be
///     idempotent: F(k, v, v) == v, which holds for join, widen, narrow and
///     meet);
///   - equalSameKeys(A, B): physical-shortcut structural equality.
///
/// Nodes (with their shared_ptr control blocks) come from the per-thread
/// block pool of support/NodePool.h: a path copy takes its O(log n) nodes
/// from the blocks that earlier copies released, so once a thread has
/// warmed up its map updates no longer reach the heap. memtrack still
/// meters sizeof(Node) per live node, whether its block is fresh or
/// recycled.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_PERSISTENTMAP_H
#define ASTRAL_SUPPORT_PERSISTENTMAP_H

#include "support/MemoryTracker.h"
#include "support/NodePool.h"

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

namespace astral {

template <typename T, typename KeyT = uint32_t> class PersistentMap {
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;

  struct Node {
    KeyT Key;
    T Value;
    NodePtr Left;
    NodePtr Right;
    int Height;
    size_t Count;

    Node(KeyT K, T V, NodePtr L, NodePtr R)
        : Key(K), Value(std::move(V)), Left(std::move(L)),
          Right(std::move(R)) {
      Height = 1 + std::max(heightOf(Left), heightOf(Right));
      Count = 1 + countOf(Left) + countOf(Right);
      memtrack::noteAlloc(sizeof(Node));
    }
    ~Node() { memtrack::noteFree(sizeof(Node)); }

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;
  };

  NodePtr Root;

  explicit PersistentMap(NodePtr R) : Root(std::move(R)) {}

  static int heightOf(const NodePtr &N) { return N ? N->Height : 0; }
  static size_t countOf(const NodePtr &N) { return N ? N->Count : 0; }

  static NodePtr mkNode(KeyT K, T V, NodePtr L, NodePtr R) {
    return std::allocate_shared<const Node>(nodepool::Allocator<Node>(), K,
                                            std::move(V), std::move(L),
                                            std::move(R));
  }

  /// Rebalances a node whose children differ in height by at most 2 (the
  /// invariant maintained by insert/erase/joinTrees).
  static NodePtr balance(KeyT K, T V, NodePtr L, NodePtr R) {
    int HL = heightOf(L), HR = heightOf(R);
    if (HL > HR + 1) {
      // Left heavy.
      if (heightOf(L->Left) >= heightOf(L->Right)) {
        // Single right rotation.
        return mkNode(L->Key, L->Value, L->Left,
                      mkNode(K, std::move(V), L->Right, std::move(R)));
      }
      // Left-right double rotation.
      const NodePtr &LR = L->Right;
      return mkNode(LR->Key, LR->Value,
                    mkNode(L->Key, L->Value, L->Left, LR->Left),
                    mkNode(K, std::move(V), LR->Right, std::move(R)));
    }
    if (HR > HL + 1) {
      // Right heavy.
      if (heightOf(R->Right) >= heightOf(R->Left)) {
        return mkNode(R->Key, R->Value,
                      mkNode(K, std::move(V), std::move(L), R->Left),
                      R->Right);
      }
      const NodePtr &RL = R->Left;
      return mkNode(RL->Key, RL->Value,
                    mkNode(K, std::move(V), std::move(L), RL->Left),
                    mkNode(R->Key, R->Value, RL->Right, R->Right));
    }
    return mkNode(K, std::move(V), std::move(L), std::move(R));
  }

  static NodePtr insert(const NodePtr &N, KeyT K, const T &V) {
    if (!N)
      return mkNode(K, V, nullptr, nullptr);
    if (K < N->Key)
      return balance(N->Key, N->Value, insert(N->Left, K, V), N->Right);
    if (N->Key < K)
      return balance(N->Key, N->Value, N->Left, insert(N->Right, K, V));
    return mkNode(K, V, N->Left, N->Right);
  }

  static const Node *find(const NodePtr &N, KeyT K) {
    const Node *Cur = N.get();
    while (Cur) {
      if (K < Cur->Key)
        Cur = Cur->Left.get();
      else if (Cur->Key < K)
        Cur = Cur->Right.get();
      else
        return Cur;
    }
    return nullptr;
  }

  /// Joins two AVL trees with keys(L) < K < keys(R) and arbitrary relative
  /// heights; O(|height(L) - height(R)|).
  static NodePtr joinTrees(NodePtr L, KeyT K, T V, NodePtr R) {
    int HL = heightOf(L), HR = heightOf(R);
    if (HL > HR + 1)
      return balance(L->Key, L->Value, L->Left,
                     joinTrees(L->Right, K, std::move(V), std::move(R)));
    if (HR > HL + 1)
      return balance(R->Key, R->Value,
                     joinTrees(std::move(L), K, std::move(V), R->Left),
                     R->Right);
    return mkNode(K, std::move(V), std::move(L), std::move(R));
  }

  /// Joins two trees with keys(L) < keys(R) and no pivot.
  static NodePtr joinTrees2(NodePtr L, NodePtr R) {
    if (!L)
      return R;
    if (!R)
      return L;
    // Extract the minimum of R as the pivot.
    auto [MinKey, MinVal, Rest] = removeMin(R);
    return joinTrees(std::move(L), MinKey, std::move(MinVal), std::move(Rest));
  }

  static std::tuple<KeyT, T, NodePtr> removeMin(const NodePtr &N) {
    assert(N && "removeMin of empty tree");
    if (!N->Left)
      return {N->Key, N->Value, N->Right};
    auto [MinKey, MinVal, Rest] = removeMin(N->Left);
    return {MinKey, MinVal,
            balance(N->Key, N->Value, std::move(Rest), N->Right)};
  }

  static NodePtr eraseImpl(const NodePtr &N, KeyT K) {
    if (!N)
      return nullptr;
    if (K < N->Key)
      return balance(N->Key, N->Value, eraseImpl(N->Left, K), N->Right);
    if (N->Key < K)
      return balance(N->Key, N->Value, N->Left, eraseImpl(N->Right, K));
    if (!N->Right)
      return N->Left;
    auto [MinKey, MinVal, Rest] = removeMin(N->Right);
    return balance(MinKey, std::move(MinVal), N->Left, std::move(Rest));
  }

  struct SplitResult {
    NodePtr Left;
    const Node *Found; // may be null
    NodePtr Right;
  };

  /// Splits \p N at key \p K into subtrees strictly below / above K.
  static SplitResult split(const NodePtr &N, KeyT K) {
    if (!N)
      return {nullptr, nullptr, nullptr};
    if (K < N->Key) {
      SplitResult S = split(N->Left, K);
      return {std::move(S.Left), S.Found,
              joinTrees(std::move(S.Right), N->Key, N->Value, N->Right)};
    }
    if (N->Key < K) {
      SplitResult S = split(N->Right, K);
      return {joinTrees(N->Left, N->Key, N->Value, std::move(S.Left)), S.Found,
              std::move(S.Right)};
    }
    return {N->Left, N.get(), N->Right};
  }

  /// F has signature: std::optional<T>(KeyT, const T *A, const T *B) where a
  /// null pointer means "absent on that side"; returning nullopt drops the
  /// key. Physically identical subtrees are returned unchanged (short-cut
  /// evaluation), so F must satisfy F(k, v, v) == v.
  template <typename FnT>
  static NodePtr merge(const NodePtr &A, const NodePtr &B, FnT &&F) {
    if (A == B)
      return A;
    if (!A)
      return mapSide(B, /*BIsRight=*/true, F);
    if (!B)
      return mapSide(A, /*BIsRight=*/false, F);
    SplitResult S = split(B, A->Key);
    NodePtr L = merge(A->Left, S.Left, F);
    NodePtr R = merge(A->Right, S.Right, F);
    std::optional<T> NewV =
        F(A->Key, &A->Value, S.Found ? &S.Found->Value : nullptr);
    if (!NewV)
      return joinTrees2(std::move(L), std::move(R));
    // Preserve sharing when nothing changed.
    if (L == A->Left && R == A->Right && *NewV == A->Value)
      return A;
    return joinTrees(std::move(L), A->Key, std::move(*NewV), std::move(R));
  }

  /// Applies F with one side absent over the whole tree \p N.
  template <typename FnT>
  static NodePtr mapSide(const NodePtr &N, bool BIsRight, FnT &&F) {
    if (!N)
      return nullptr;
    NodePtr L = mapSide(N->Left, BIsRight, F);
    NodePtr R = mapSide(N->Right, BIsRight, F);
    std::optional<T> NewV = BIsRight ? F(N->Key, nullptr, &N->Value)
                                     : F(N->Key, &N->Value, nullptr);
    if (!NewV)
      return joinTrees2(std::move(L), std::move(R));
    if (L == N->Left && R == N->Right && *NewV == N->Value)
      return N;
    return joinTrees(std::move(L), N->Key, std::move(*NewV), std::move(R));
  }

  template <typename FnT>
  static bool equalRec(const NodePtr &A, const NodePtr &B, FnT &&Eq) {
    if (A == B)
      return true;
    if (countOf(A) != countOf(B))
      return false;
    if (!A || !B)
      return false;
    SplitResult S = split(B, A->Key);
    if (!S.Found || !Eq(A->Value, S.Found->Value))
      return false;
    return equalRec(A->Left, S.Left, Eq) && equalRec(A->Right, S.Right, Eq);
  }

  template <typename FnT>
  static void forEachRec(const NodePtr &N, FnT &&F) {
    if (!N)
      return;
    forEachRec(N->Left, F);
    F(N->Key, N->Value);
    forEachRec(N->Right, F);
  }

  /// Visits only keys whose values may differ between A and B (prunes
  /// physically identical subtrees).
  template <typename FnT>
  static void forEachDiffRec(const NodePtr &A, const NodePtr &B, FnT &&F) {
    if (A == B)
      return;
    if (!A) {
      forEachRec(B, [&](KeyT K, const T &V) { F(K, nullptr, &V); });
      return;
    }
    if (!B) {
      forEachRec(A, [&](KeyT K, const T &V) { F(K, &V, nullptr); });
      return;
    }
    SplitResult S = split(B, A->Key);
    forEachDiffRec(A->Left, S.Left, F);
    const T *BV = S.Found ? &S.Found->Value : nullptr;
    if (!BV || !(A->Value == *BV))
      F(A->Key, &A->Value, BV);
    forEachDiffRec(A->Right, S.Right, F);
  }

public:
  PersistentMap() = default;

  size_t size() const { return countOf(Root); }
  bool empty() const { return !Root; }

  /// Physical identity (same root): O(1) sufficient condition for equality.
  bool identicalTo(const PersistentMap &O) const { return Root == O.Root; }

  /// Returns the value bound to \p K, or null when absent.
  const T *get(KeyT K) const {
    const Node *N = find(Root, K);
    return N ? &N->Value : nullptr;
  }

  /// Returns a map with \p K bound to \p V.
  [[nodiscard]] PersistentMap set(KeyT K, const T &V) const {
    return PersistentMap(insert(Root, K, V));
  }

  /// Returns a map without \p K.
  [[nodiscard]] PersistentMap erase(KeyT K) const {
    return PersistentMap(eraseImpl(Root, K));
  }

  /// Point-wise combination with short-cut evaluation; see merge() above.
  template <typename FnT>
  [[nodiscard]] static PersistentMap combine(const PersistentMap &A,
                                             const PersistentMap &B, FnT &&F) {
    return PersistentMap(merge(A.Root, B.Root, std::forward<FnT>(F)));
  }

  /// Structural equality with physical short-cuts; Eq(a, b) compares values.
  template <typename FnT>
  static bool equal(const PersistentMap &A, const PersistentMap &B, FnT &&Eq) {
    return equalRec(A.Root, B.Root, std::forward<FnT>(Eq));
  }

  static bool equal(const PersistentMap &A, const PersistentMap &B) {
    return equal(A, B, [](const T &X, const T &Y) { return X == Y; });
  }

  /// In-order visit: F(key, value).
  template <typename FnT> void forEach(FnT &&F) const {
    forEachRec(Root, std::forward<FnT>(F));
  }

  /// Visits keys whose bindings differ between A and B:
  /// F(key, const T *inA, const T *inB), null pointer = absent.
  template <typename FnT>
  static void forEachDiff(const PersistentMap &A, const PersistentMap &B,
                          FnT &&F) {
    forEachDiffRec(A.Root, B.Root, std::forward<FnT>(F));
  }
};

} // namespace astral

#endif // ASTRAL_SUPPORT_PERSISTENTMAP_H

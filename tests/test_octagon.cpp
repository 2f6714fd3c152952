//===- tests/test_octagon.cpp - Octagon domain tests --------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "domains/Octagon.h"

#include "domains/Thresholds.h"

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <random>

using namespace astral;

namespace {
std::function<Interval(CellId)> topRange() {
  return [](CellId) { return Interval::top(); };
}
std::function<Interval(CellId)> mapRange(std::map<CellId, Interval> M) {
  return [M = std::move(M)](CellId C) {
    auto It = M.find(C);
    return It == M.end() ? Interval::top() : It->second;
  };
}
} // namespace

TEST(Octagon, TopIsNotBottom) {
  Octagon O({1, 2, 3});
  EXPECT_FALSE(O.isBottom());
  EXPECT_TRUE(O.varInterval(0).isTop());
}

TEST(Octagon, AssignConstant) {
  Octagon O({1, 2});
  O.assign(0, LinearForm::constant(Interval::point(5)), topRange());
  EXPECT_EQ(O.varInterval(0), Interval(5, 5));
  EXPECT_TRUE(O.varInterval(1).isTop());
}

TEST(Octagon, AssignVarPlusConst) {
  Octagon O({1, 2});
  O.assign(0, LinearForm::constant(Interval::point(5)), topRange());
  // v2 := v1 + [1, 2].
  LinearForm F = LinearForm::var(1).add(LinearForm::constant(Interval(1, 2)));
  O.assign(1, F, topRange());
  O.close();
  Interval V2 = O.varInterval(1);
  EXPECT_LE(V2.Lo, 6.0);
  EXPECT_GE(V2.Hi, 7.0);
  EXPECT_LE(V2.Hi, 7.001);
}

TEST(Octagon, SelfShift) {
  Octagon O({1});
  O.meetVarInterval(0, Interval(0, 10));
  LinearForm F = LinearForm::var(1).add(LinearForm::constant(
      Interval::point(3)));
  O.assign(0, F, topRange());
  Interval V = O.varInterval(0);
  EXPECT_LE(V.Lo, 3.0);
  EXPECT_GE(V.Hi, 13.0);
  EXPECT_LE(V.Hi, 13.001);
}

TEST(Octagon, GuardDifference) {
  Octagon O({1, 2});
  O.meetVarInterval(0, Interval(0, 100));
  O.meetVarInterval(1, Interval(0, 100));
  // v1 - v2 <= -5  (i.e. v1 + 5 <= v2).
  LinearForm F = LinearForm::var(1).sub(LinearForm::var(2)).add(
      LinearForm::constant(Interval::point(5)));
  O.guardLe(F, topRange());
  O.close();
  // v1 in [0, 95].
  EXPECT_LE(O.varInterval(0).Hi, 95.001);
  // v2 in [5, 100].
  EXPECT_GE(O.varInterval(1).Lo, 4.999);
}

TEST(Octagon, GuardSum) {
  Octagon O({1, 2});
  O.meetVarInterval(0, Interval(0, 100));
  O.meetVarInterval(1, Interval(0, 100));
  // v1 + v2 <= 10.
  LinearForm F = LinearForm::var(1).add(LinearForm::var(2)).add(
      LinearForm::constant(Interval::point(-10)));
  O.guardLe(F, topRange());
  O.close();
  EXPECT_LE(O.varInterval(0).Hi, 10.001);
  EXPECT_LE(O.varInterval(1).Hi, 10.001);
}

TEST(Octagon, InfeasibleGuardGivesBottom) {
  Octagon O({1});
  O.meetVarInterval(0, Interval(10, 20));
  // v1 <= 5 contradicts v1 >= 10.
  LinearForm F = LinearForm::var(1).add(LinearForm::constant(
      Interval::point(-5)));
  O.guardLe(F, topRange());
  O.close();
  EXPECT_TRUE(O.isBottom());
}

TEST(Octagon, RateLimiterClosureArgument) {
  // The paper's octagon showcase, abstracted: from u2 - y = R and
  // u - y >= R, closure must derive u2 - u <= 0 (so u2 <= max(u)).
  Octagon O({/*u=*/1, /*y=*/2, /*u2=*/3});
  O.meetVarInterval(0, Interval(-100, 100));
  // Guard: u - y > 8  (as u - y >= 8 for reals: y - u + 8 <= 0).
  LinearForm G = LinearForm::var(2).sub(LinearForm::var(1)).add(
      LinearForm::constant(Interval::point(8)));
  O.guardLe(G, topRange());
  // Assignment u2 := y + 8.
  LinearForm A = LinearForm::var(2).add(LinearForm::constant(
      Interval::point(8)));
  O.assign(2, A, topRange());
  O.close();
  // u2 <= u <= 100.
  EXPECT_LE(O.varInterval(2).Hi, 100.001);
}

TEST(Octagon, JoinIsUpperBound) {
  Octagon A({1, 2});
  A.meetVarInterval(0, Interval(0, 1));
  A.meetVarInterval(1, Interval(0, 1));
  A.close();
  Octagon B({1, 2});
  B.meetVarInterval(0, Interval(5, 6));
  B.meetVarInterval(1, Interval(5, 6));
  B.close();
  Octagon J(A);
  J.joinWith(B);
  EXPECT_TRUE(A.leq(J));
  EXPECT_TRUE(B.leq(J));
  EXPECT_LE(J.varInterval(0).Lo, 0.0);
  EXPECT_GE(J.varInterval(0).Hi, 6.0);
}

TEST(Octagon, JoinWithBottom) {
  Octagon A({1});
  A.meetVarInterval(0, Interval(1, 2));
  A.close();
  Octagon B({1});
  B.meetVarInterval(0, Interval(5, 4)); // Empty.
  B.close();
  EXPECT_TRUE(B.isBottom());
  Octagon J(A);
  Octagon BC(B);
  BC.close();
  J.joinWith(BC);
  EXPECT_EQ(J.varInterval(0).Lo, A.varInterval(0).Lo);
}

TEST(Octagon, ForgetRemovesOnlyOneVar) {
  Octagon O({1, 2});
  O.meetVarInterval(0, Interval(0, 1));
  O.meetVarInterval(1, Interval(2, 3));
  O.close();
  O.forget(0);
  EXPECT_TRUE(O.varInterval(0).isTop());
  EXPECT_EQ(O.varInterval(1), Interval(2, 3));
}

TEST(Octagon, WideningWithThresholds) {
  Thresholds T = Thresholds::geometric(1.0, 10.0, 6);
  Octagon X({1});
  X.meetVarInterval(0, Interval(0, 1));
  X.close();
  Octagon Y({1});
  Y.meetVarInterval(0, Interval(0, 2));
  Y.close();
  X.widenWith(Y, T);
  X.close();
  EXPECT_LE(X.varInterval(0).Hi, 10.0); // Next rung, not infinity.
  EXPECT_GE(X.varInterval(0).Hi, 2.0);
}

TEST(Octagon, NarrowRefinesInfinities) {
  Octagon X({1});
  X.close();
  Octagon Y({1});
  Y.meetVarInterval(0, Interval(0, 5));
  Y.close();
  X.narrowWith(Y);
  X.close();
  EXPECT_LE(X.varInterval(0).Hi, 5.001);
}

TEST(Octagon, FormUpperBoundUsesPairs) {
  Octagon O({1, 2});
  // v1 - v2 <= 3, both vars unbounded individually.
  LinearForm G = LinearForm::var(1).sub(LinearForm::var(2)).add(
      LinearForm::constant(Interval::point(-3)));
  O.guardLe(G, topRange());
  O.close();
  LinearForm F = LinearForm::var(1).sub(LinearForm::var(2));
  double Hi = O.formUpperBound(F, topRange());
  EXPECT_LE(Hi, 3.001);
  // With external ranges only, the sum needs the callback.
  LinearForm Sum = LinearForm::var(1).add(LinearForm::var(2));
  double SumHi = O.formUpperBound(
      Sum, mapRange({{1u, Interval(0, 1)}, {2u, Interval(0, 2)}}));
  EXPECT_LE(SumHi, 3.001);
}

TEST(Octagon, HasRelationalInfo) {
  Octagon O({1, 2});
  EXPECT_FALSE(O.hasRelationalInfo());
  LinearForm G = LinearForm::var(1).sub(LinearForm::var(2));
  O.guardLe(G, topRange());
  EXPECT_TRUE(O.hasRelationalInfo());
}

TEST(Octagon, CountConstraints) {
  Octagon O({1, 2});
  LinearForm Sub = LinearForm::var(1).sub(LinearForm::var(2));
  LinearForm Add = LinearForm::var(1).add(LinearForm::var(2)).add(
      LinearForm::constant(Interval::point(-7)));
  O.guardLe(Sub, topRange());
  O.guardLe(Add, topRange());
  O.close();
  uint64_t NAdd = 0, NSub = 0;
  O.countConstraints(NAdd, NSub);
  EXPECT_GE(NAdd, 1u);
  EXPECT_GE(NSub, 1u);
}

// Property: transfer functions over-approximate concrete executions.
class OctagonSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctagonSoundness, RandomProgramsSound) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_real_distribution<double> D(-10.0, 10.0);
  // Concrete state of three variables, tracked alongside the octagon.
  double X[3] = {D(Rng), D(Rng), D(Rng)};
  Octagon O({0, 1, 2});
  for (int V = 0; V < 3; ++V)
    O.meetVarInterval(V, Interval(X[V], X[V]));
  O.close();

  auto Contains = [&]() {
    O.close();
    for (int V = 0; V < 3; ++V) {
      Interval I = O.varInterval(V);
      if (!(I.Lo <= X[V] + 1e-9 && X[V] - 1e-9 <= I.Hi))
        return false;
    }
    return true;
  };

  for (int Step = 0; Step < 300; ++Step) {
    int Target = static_cast<int>(Rng() % 3);
    int Src = static_cast<int>(Rng() % 3);
    double C = D(Rng);
    switch (Rng() % 3) {
    case 0: { // v := c.
      O.assign(Target, LinearForm::constant(Interval::point(C)),
               topRange());
      X[Target] = C;
      break;
    }
    case 1: { // v := w + c.
      LinearForm F = LinearForm::var(static_cast<CellId>(Src))
                         .add(LinearForm::constant(Interval::point(C)));
      O.assign(Target, F, topRange());
      X[Target] = X[Src] + C;
      break;
    }
    default: { // v := -w + c.
      LinearForm F = LinearForm::var(static_cast<CellId>(Src))
                         .negate()
                         .add(LinearForm::constant(Interval::point(C)));
      O.assign(Target, F, topRange());
      X[Target] = -X[Src] + C;
      break;
    }
    }
    ASSERT_TRUE(Contains()) << "octagon lost the concrete state at step "
                            << Step;
  }
}

TEST_P(OctagonSoundness, CloseIsIdempotentAndSound) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_real_distribution<double> D(-5.0, 5.0);
  Octagon O({0, 1, 2, 3});
  for (int I = 0; I < 6; ++I) {
    CellId A = static_cast<CellId>(Rng() % 4);
    CellId B = static_cast<CellId>(Rng() % 4);
    if (A == B)
      continue;
    LinearForm F = LinearForm::var(A).sub(LinearForm::var(B)).add(
        LinearForm::constant(Interval::point(D(Rng))));
    O.guardLe(F, topRange());
  }
  O.close();
  Octagon O2(O);
  O2.close();
  EXPECT_TRUE(O.equal(O2)) << "closure is not idempotent";
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctagonSoundness,
                         ::testing::Values(11, 222, 3333, 44444));

//===----------------------------------------------------------------------===//
// Closure discipline
//===----------------------------------------------------------------------===//

TEST(Octagon, EqualIgnoresRepresentation) {
  // A closed and a non-closed DBM of the same set must compare equal:
  // raw-matrix comparison would see the closure-derived entries on one
  // side only and cost spurious extra fixpoint iterations.
  auto Build = [] {
    Octagon O({1, 2});
    LinearForm Le = LinearForm::var(1).sub(LinearForm::var(2));
    LinearForm Ge = LinearForm::var(2).sub(LinearForm::var(1));
    O.guardLe(Le, topRange()); // v1 == v2.
    O.guardLe(Ge, topRange());
    return O;
  };
  Octagon Closed = Build();
  Closed.meetVarInterval(0, Interval(0, 1));
  Closed.close(); // Derives v2 in [0, 1].
  Octagon Raw = Build();
  Raw.meetVarInterval(0, Interval(0, 1)); // Same set, no closure.
  EXPECT_FALSE(Raw.isClosed());
  EXPECT_NE(Raw.varInterval(1), Closed.varInterval(1))
      << "representations should differ for the test to mean anything";
  EXPECT_TRUE(Closed.equal(Raw));
  EXPECT_TRUE(Raw.equal(Closed));
  // And genuinely different sets still compare unequal.
  Octagon Other = Build();
  Other.meetVarInterval(0, Interval(0, 2));
  EXPECT_FALSE(Closed.equal(Other));
}

TEST(Octagon, EqualDistinguishesFlaggedBottomFromTop) {
  // An Empty-flagged octagon can carry an untouched matrix (bottomLike,
  // meetVarInterval with a bottom interval): raw-matrix equality must not
  // make it compare equal to top.
  Octagon Top({1, 2});
  Octagon Bot({1, 2});
  Bot.meetVarInterval(0, Interval::bottom());
  EXPECT_TRUE(Bot.isBottom());
  EXPECT_FALSE(Top.equal(Bot));
  EXPECT_FALSE(Bot.equal(Top));
}

TEST(Octagon, EqualBottomRepresentations) {
  Octagon A({1});
  A.meetVarInterval(0, Interval::bottom()); // Empty flag.
  Octagon B({1});
  B.meetVarInterval(0, Interval(3, 4));
  LinearForm TooSmall =
      LinearForm::var(1).add(LinearForm::constant(Interval::point(-1)));
  B.guardLe(TooSmall, topRange()); // v1 <= 1 contradicts v1 >= 3.
  EXPECT_TRUE(A.equal(B));
  EXPECT_TRUE(B.equal(A));
}

TEST(Octagon, IndexOfFlatLookup) {
  // Non-contiguous, non-sorted cells, as real packings produce.
  Octagon O({42, 7, 19, 3});
  EXPECT_EQ(O.indexOf(42), 0);
  EXPECT_EQ(O.indexOf(7), 1);
  EXPECT_EQ(O.indexOf(19), 2);
  EXPECT_EQ(O.indexOf(3), 3);
  EXPECT_EQ(O.indexOf(4), -1);
  EXPECT_EQ(O.indexOf(0), -1);
  EXPECT_EQ(O.indexOf(1000), -1);
}

TEST(Octagon, ClosureStatsSinkSplitsFullAndIncremental) {
  auto Sink = std::make_shared<OctagonClosureStats>();
  Octagon O({1, 2, 3, 4}, OctClosureMode::Incremental, Sink);
  O.meetVarInterval(0, Interval(0, 5)); // Dirty: one variable.
  O.close();
  EXPECT_EQ(Sink->incremental(), 1u);
  EXPECT_EQ(Sink->full(), 0u);

  auto FullSink = std::make_shared<OctagonClosureStats>();
  Octagon F({1, 2, 3, 4}, OctClosureMode::Full, FullSink);
  F.meetVarInterval(0, Interval(0, 5));
  F.close();
  EXPECT_EQ(FullSink->incremental(), 0u);
  EXPECT_EQ(FullSink->full(), 1u);
}

// Differential property: the incremental closure discipline computes the
// same DBM as the full Floyd-Warshall sweep — same variable intervals,
// same emptiness verdict, representation-equal, idempotent — across pack
// sizes 1-16 and random op sequences of assign/guard/forget/shift.
// Constants are dyadic (k/8), so every path sum is exact in double and
// the comparison can demand bitwise equality.
class OctagonClosureDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(OctagonClosureDifferential, IncrementalEqualsFullClosure) {
  std::mt19937_64 Rng(GetParam());
  auto Top = [](CellId) { return Interval::top(); };
  for (int Pack = 1; Pack <= 16; ++Pack) {
    for (int Trial = 0; Trial < 4; ++Trial) {
      std::vector<CellId> Cells;
      for (int I = 0; I < Pack; ++I)
        Cells.push_back(static_cast<CellId>(3 * I + 1));
      Octagon Full(Cells, OctClosureMode::Full, nullptr);
      Octagon Inc(Cells, OctClosureMode::Incremental, nullptr);
      auto Dyadic = [&]() {
        return static_cast<double>(static_cast<int64_t>(Rng() % 161) - 80) /
               8.0;
      };
      for (int Step = 0; Step < 40; ++Step) {
        int V = static_cast<int>(Rng() % Pack);
        int W = static_cast<int>(Rng() % Pack);
        double C = Dyadic();
        switch (Rng() % 7) {
        case 0: { // Unary meet.
          Interval I(C - std::fabs(Dyadic()), C);
          Full.meetVarInterval(V, I);
          Inc.meetVarInterval(V, I);
          break;
        }
        case 1: { // Binary guard v - w + c <= 0.
          LinearForm G = LinearForm::var(Cells[V])
                             .sub(LinearForm::var(Cells[W]))
                             .add(LinearForm::constant(Interval::point(C)));
          Full.guardLe(G, Top);
          Inc.guardLe(G, Top);
          break;
        }
        case 2: { // Exact assign v := w + c.
          LinearForm A = LinearForm::var(Cells[W]).add(
              LinearForm::constant(Interval::point(C)));
          Full.assign(V, A, Top);
          Inc.assign(V, A, Top);
          break;
        }
        case 3: { // Forget.
          Full.forget(V);
          Inc.forget(V);
          break;
        }
        case 4: { // Shift v := v + [c, c+1].
          LinearForm A = LinearForm::var(Cells[V]).add(
              LinearForm::constant(Interval(C, C + 1)));
          Full.assign(V, A, Top);
          Inc.assign(V, A, Top);
          break;
        }
        default: { // Smart fallback v := w1 + w2 + c (star closure).
          int W2 = static_cast<int>(Rng() % Pack);
          LinearForm A = LinearForm::var(Cells[W])
                             .add(LinearForm::var(Cells[W2]))
                             .add(LinearForm::constant(Interval::point(C)));
          Full.assign(V, A, Top);
          Inc.assign(V, A, Top);
          break;
        }
        }
        bool FullEmpty = !Full.close();
        bool IncEmpty = !Inc.close();
        ASSERT_EQ(FullEmpty, IncEmpty)
            << "emptiness diverged: pack=" << Pack << " trial=" << Trial
            << " step=" << Step;
        if (FullEmpty)
          break;
        for (int I = 0; I < Pack; ++I) {
          Interval FI = Full.varInterval(I);
          Interval NI = Inc.varInterval(I);
          ASSERT_EQ(FI.Lo, NI.Lo) << "pack=" << Pack << " trial=" << Trial
                                  << " step=" << Step << " var=" << I;
          ASSERT_EQ(FI.Hi, NI.Hi) << "pack=" << Pack << " trial=" << Trial
                                  << " step=" << Step << " var=" << I;
        }
        ASSERT_TRUE(Full.equal(Inc)) << "pack=" << Pack << " trial=" << Trial
                                     << " step=" << Step;
        // Idempotence: a second close must be a cached no-op.
        Octagon IncAgain(Inc);
        IncAgain.close();
        ASSERT_TRUE(Inc.equal(IncAgain));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctagonClosureDifferential,
                         ::testing::Values(1, 77, 4096, 900913));

// -- Closure kernels against a dense reference -------------------------------
//
// The closure kernels skip +inf entries, hoist row pointers and use the
// inline rounding fast path. They must compute exactly what the dense
// kernels they replaced computed: the same DBM bits, the same carried dirty
// sets, the same emptiness verdict and the same full/incremental choice.
// The dense kernels are kept below, local to this test, as the reference,
// and both are run on identical inputs whose constants are not dyadic, so
// path sums round and the nudge path runs.

namespace astral {
/// Test-side access to an octagon's representation (a friend of Octagon).
struct OctagonKernelAccess {
  struct State {
    std::vector<double> M;
    uint32_t PivotDirty = 0;
    uint32_t StarDirty = 0;
    bool Closed = false;
    bool Empty = false;
  };
  static State state(const Octagon &O) {
    return {O.M, O.PivotDirty, O.StarDirty, O.Closed, O.Empty};
  }
  static void residualBounds(const Octagon &O, int Idx, const LinearForm &F,
                             const std::function<Interval(CellId)> &Range,
                             double *Out) {
    O.residualBounds(Idx, F, Range, Out);
  }
  static void load(Octagon &O, const State &S) {
    O.M = S.M;
    O.PivotDirty = S.PivotDirty;
    O.StarDirty = S.StarDirty;
    O.Closed = S.Closed;
    O.Empty = S.Empty;
  }
};
} // namespace astral

namespace {

using KernelState = OctagonKernelAccess::State;

/// The former addUpInf: the infinity rule, then the nearest sum nudged one
/// ulp up with nextafter unless the residual test proves it exact.
double refAddUpInf(double A, double B) {
  if (std::isinf(A) || std::isinf(B))
    return (A > 0 || B > 0) ? INFINITY : -INFINITY;
  double R = A + B;
  if (std::isnan(R) || (std::isfinite(R) && R - A == B && R - B == A))
    return R;
  if (R == -INFINITY) // Overflow of finite operands.
    return -std::numeric_limits<double>::max();
  return std::isinf(R) ? R : std::nextafter(R, INFINITY);
}

/// The dense closure kernels and close() driver as they were before the
/// +inf-skipping rewrite, over a bare DBM.
struct DenseReference {
  int N;
  size_t K; ///< Pack size.
  OctClosureMode Mode;
  KernelState S;
  bool RanIncremental = false;

  double &at(int P, int Q) { return S.M[static_cast<size_t>(P) * N + Q]; }

  void propagateThrough(int Piv) {
    for (int I = 0; I < N; ++I) {
      double MIK = at(I, Piv);
      if (std::isinf(MIK) && MIK > 0)
        continue;
      for (int J = 0; J < N; ++J) {
        double Via = refAddUpInf(MIK, at(Piv, J));
        if (Via < at(I, J))
          at(I, J) = Via;
      }
    }
  }

  void relaxColumn(int C) {
    for (int A = 0; A < N; ++A) {
      if (A == C)
        continue;
      double MAC = at(A, C);
      if (std::isinf(MAC) && MAC > 0)
        continue;
      for (int I = 0; I < N; ++I) {
        double Via = refAddUpInf(at(I, A), MAC);
        if (Via < at(I, C))
          at(I, C) = Via;
      }
    }
  }

  void relaxRow(int R) {
    for (int B = 0; B < N; ++B) {
      if (B == R)
        continue;
      double MRB = at(R, B);
      if (std::isinf(MRB) && MRB > 0)
        continue;
      for (int J = 0; J < N; ++J) {
        double Via = refAddUpInf(MRB, at(B, J));
        if (Via < at(R, J))
          at(R, J) = Via;
      }
    }
  }

  bool finishClosure() {
    uint32_t Incidence[16] = {};
    bool AnyFired = false;
    for (int I = 0; I < N; ++I) {
      double DI = at(I, I ^ 1);
      for (int J = 0; J < N; ++J) {
        double DJ = at(J ^ 1, J);
        double Via = refAddUpInf(DI, DJ) / 2.0;
        if (Via < at(I, J)) {
          at(I, J) = Via;
          Incidence[I >> 1] |= 1u << (J >> 1);
          AnyFired = true;
        }
      }
    }
    S.Closed = true;
    S.PivotDirty = 0;
    S.StarDirty = 0;
    if (AnyFired) {
      uint32_t Partners[16];
      for (size_t V = 0; V < K; ++V)
        Partners[V] = Incidence[V];
      for (size_t V = 0; V < K; ++V)
        for (size_t W = 0; W < K; ++W)
          if (Incidence[V] & (1u << W))
            Partners[W] |= 1u << V;
      for (;;) {
        size_t Best = 0, BestCount = 0;
        for (size_t V = 0; V < K; ++V) {
          size_t C = static_cast<size_t>(std::popcount(Partners[V]));
          if (C > BestCount) {
            BestCount = C;
            Best = V;
          }
        }
        if (BestCount == 0)
          break;
        S.StarDirty |= 1u << Best;
        Partners[Best] = 0;
        for (size_t V = 0; V < K; ++V)
          Partners[V] &= ~(1u << Best);
      }
    }
    for (int I = 0; I < N; ++I) {
      if (at(I, I) < 0.0) {
        S.Empty = true;
        return false;
      }
      at(I, I) = 0.0;
    }
    return true;
  }

  bool close() {
    if (S.Empty)
      return false;
    if (S.Closed)
      return true;
    uint32_t Pivot = S.PivotDirty & ~S.StarDirty;
    size_t P = static_cast<size_t>(std::popcount(Pivot));
    size_t St = static_cast<size_t>(std::popcount(S.StarDirty));
    RanIncremental = Mode == OctClosureMode::Incremental &&
                     (S.PivotDirty | S.StarDirty) != 0 &&
                     2 * P + 3 * St < 2 * K;
    if (RanIncremental) {
      uint32_t All = Pivot | S.StarDirty;
      for (size_t V = 0; V < K; ++V) {
        if (!(All & (1u << V)))
          continue;
        int Even = static_cast<int>(2 * V), Odd = Even + 1;
        if (S.StarDirty & (1u << V)) {
          relaxColumn(Even);
          relaxColumn(Odd);
          relaxRow(Even);
          relaxRow(Odd);
        }
        propagateThrough(Even);
        propagateThrough(Odd);
      }
    } else {
      for (int Piv = 0; Piv < N; ++Piv)
        propagateThrough(Piv);
    }
    return finishClosure();
  }
};

/// Closes \p O (built in \p Mode, metering into \p Sink) with its kernels,
/// and a copy of its prior state with the dense reference: the DBM bits,
/// the dirty sets, the flags, the result and the metered algorithm must
/// all agree.
::testing::AssertionResult closesLikeReference(Octagon &O,
                                               OctClosureMode Mode,
                                               const OctagonClosureStats &Sink) {
  DenseReference Ref{static_cast<int>(2 * O.size()), O.size(), Mode,
                     OctagonKernelAccess::state(O)};
  bool RefRuns = !Ref.S.Empty && !Ref.S.Closed;
  uint64_t FullBefore = Sink.full(), IncBefore = Sink.incremental();
  bool RefResult = Ref.close();
  bool Result = O.close();
  KernelState Got = OctagonKernelAccess::state(O);
  if (Result != RefResult)
    return ::testing::AssertionFailure()
           << "close() returned " << Result << ", reference " << RefResult;
  for (size_t I = 0; I < Got.M.size(); ++I)
    if (std::bit_cast<uint64_t>(Got.M[I]) !=
        std::bit_cast<uint64_t>(Ref.S.M[I]))
      return ::testing::AssertionFailure()
             << "entry (" << I / (2 * O.size()) << ", " << I % (2 * O.size())
             << ") = " << std::hexfloat << Got.M[I] << ", reference "
             << Ref.S.M[I];
  if (Got.PivotDirty != Ref.S.PivotDirty || Got.StarDirty != Ref.S.StarDirty)
    return ::testing::AssertionFailure()
           << "dirty sets " << Got.PivotDirty << "/" << Got.StarDirty
           << ", reference " << Ref.S.PivotDirty << "/" << Ref.S.StarDirty;
  if (Got.Closed != Ref.S.Closed || Got.Empty != Ref.S.Empty)
    return ::testing::AssertionFailure()
           << "closed/empty " << Got.Closed << "/" << Got.Empty
           << ", reference " << Ref.S.Closed << "/" << Ref.S.Empty;
  uint64_t RanFull = Sink.full() - FullBefore;
  uint64_t RanInc = Sink.incremental() - IncBefore;
  uint64_t WantFull = RefRuns && !Ref.RanIncremental ? 1 : 0;
  uint64_t WantInc = RefRuns && Ref.RanIncremental ? 1 : 0;
  if (RanFull != WantFull || RanInc != WantInc)
    return ::testing::AssertionFailure()
           << "metered full/incremental " << RanFull << "/" << RanInc
           << ", reference " << WantFull << "/" << WantInc;
  return ::testing::AssertionSuccess();
}

/// A non-dyadic constant (thirds, sevenths, tenths): sums of these round.
double nonDyadic(std::mt19937_64 &Rng) {
  static const double Dens[] = {3.0, 7.0, 10.0, 0.3};
  return static_cast<double>(static_cast<int64_t>(Rng() % 161) - 80) /
         Dens[Rng() % 4];
}

} // namespace

class OctagonKernelDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(OctagonKernelDifferential, RandomDbmsMatchDenseReference) {
  // Arbitrary DBMs with arbitrary dirty sets: not states the transfer
  // functions reach, but every input the kernels can be handed. About a
  // quarter of the binary entries and half the unary ones are +inf (finite
  // unary bounds let the strengthening mask what the other kernels did), a
  // few are -inf, and a few diagonals go negative so the emptiness verdict
  // is exercised too.
  std::mt19937_64 Rng(GetParam());
  for (int Pack = 1; Pack <= 16; ++Pack) {
    std::vector<CellId> Cells;
    for (int I = 0; I < Pack; ++I)
      Cells.push_back(static_cast<CellId>(5 * I + 2));
    int N = 2 * Pack;
    for (int Trial = 0; Trial < 24; ++Trial) {
      OctClosureMode Mode = Trial % 3 == 0 ? OctClosureMode::Full
                                           : OctClosureMode::Incremental;
      auto Sink = std::make_shared<OctagonClosureStats>();
      Octagon O(Cells, Mode, Sink);
      KernelState S = OctagonKernelAccess::state(O);
      for (int P = 0; P < N; ++P)
        for (int Q = 0; Q < N; ++Q) {
          double &E = S.M[static_cast<size_t>(P) * N + Q];
          uint64_t Roll = Rng() % 100;
          if (P == Q)
            E = Roll < 4 ? -std::fabs(nonDyadic(Rng)) / 64 : 0.0;
          else if (Roll < 25 || (Q == (P ^ 1) && Roll < 50))
            E = INFINITY;
          else if (Roll < 27)
            E = -INFINITY;
          else if (Roll < 35)
            E = nonDyadic(Rng) * 1e300;
          else
            E = nonDyadic(Rng);
        }
      // Mostly one or two dirty variables, which the cost gate sends to
      // the incremental kernels (star-dirty ones through the row/column
      // relaxations); every fourth trial arbitrary masks, which mostly
      // take the full sweep.
      uint32_t All = (1u << Pack) - 1u;
      auto OneVar = [&] { return 1u << (Rng() % Pack); };
      if (Trial % 4 == 3) {
        S.PivotDirty = static_cast<uint32_t>(Rng()) & All;
        S.StarDirty = static_cast<uint32_t>(Rng()) & All;
      } else {
        S.PivotDirty = OneVar() | (Trial % 2 ? OneVar() : 0);
        S.StarDirty = Trial % 4 == 0 ? 0 : OneVar();
      }
      S.Closed = false;
      S.Empty = false;
      OctagonKernelAccess::load(O, S);
      ASSERT_TRUE(closesLikeReference(O, Mode, *Sink))
          << "pack=" << Pack << " trial=" << Trial;
      // Closing the closed result again is a cached no-op on both sides.
      ASSERT_TRUE(closesLikeReference(O, Mode, *Sink))
          << "pack=" << Pack << " trial=" << Trial << " (second close)";
    }
  }
}

TEST_P(OctagonKernelDifferential, OpSequencesMatchDenseReference) {
  // The assign/guard/forget/shift sequences of OctagonClosureDifferential
  // plus widening and joins, with non-dyadic constants, in both closure
  // disciplines. Every closure the test demands is checked against the
  // reference; the closures inside assign/guard are then checked through
  // the state they leave behind.
  std::mt19937_64 Rng(GetParam());
  auto Top = [](CellId) { return Interval::top(); };
  Thresholds T = Thresholds::geometric(0.3, 10.0, 8);
  for (OctClosureMode Mode :
       {OctClosureMode::Incremental, OctClosureMode::Full}) {
    for (int Pack = 1; Pack <= 16; ++Pack) {
      std::vector<CellId> Cells;
      for (int I = 0; I < Pack; ++I)
        Cells.push_back(static_cast<CellId>(3 * I + 1));
      auto Sink = std::make_shared<OctagonClosureStats>();
      std::optional<Octagon> Slot(std::in_place, Cells, Mode, Sink);
      for (int Step = 0; Step < 40; ++Step) {
        Octagon &O = *Slot;
        int V = static_cast<int>(Rng() % Pack);
        int W = static_cast<int>(Rng() % Pack);
        double C = nonDyadic(Rng);
        switch (Rng() % 9) {
        case 0: // Unary meet.
          O.meetVarInterval(V, Interval(C - std::fabs(nonDyadic(Rng)), C));
          break;
        case 1: // Binary guard v - w + c <= 0.
          O.guardLe(LinearForm::var(Cells[V])
                        .sub(LinearForm::var(Cells[W]))
                        .add(LinearForm::constant(Interval::point(C))),
                    Top);
          break;
        case 2: // Exact assign v := w + c.
          O.assign(V,
                   LinearForm::var(Cells[W]).add(
                       LinearForm::constant(Interval::point(C))),
                   Top);
          break;
        case 3:
          O.forget(V);
          break;
        case 4: // Shift v := v + [c, c + 1/3].
          O.assign(V,
                   LinearForm::var(Cells[V]).add(LinearForm::constant(
                       Interval(C, C + 1.0 / 3.0))),
                   Top);
          break;
        case 5: { // Smart fallback v := w1 + w2 + c (star closure).
          int W2 = static_cast<int>(Rng() % Pack);
          O.assign(V,
                   LinearForm::var(Cells[W])
                       .add(LinearForm::var(Cells[W2]))
                       .add(LinearForm::constant(Interval::point(C))),
                   Top);
          break;
        }
        case 6:   // Widening against a shifted copy, with and
        case 7: { // without thresholds.
          Octagon Next(O);
          Next.assign(V,
                      LinearForm::var(Cells[V]).add(LinearForm::constant(
                          Interval(0.0, std::fabs(C) + 0.1))),
                      Top);
          O.widenWith(Next, T, /*WithThresholds=*/Step % 2 == 0);
          break;
        }
        default: { // Join with a tightened copy (left non-closed).
          Octagon Other(O);
          Other.meetVarInterval(W, Interval(C - 1.0 / 7.0, C));
          Other.close();
          O.joinWith(Other);
          O.meetVarInterval(V, Interval(-std::fabs(C) - 0.7, 1e6 / 3.0));
          break;
        }
        }
        ASSERT_TRUE(closesLikeReference(O, Mode, *Sink))
            << "pack=" << Pack << " step=" << Step;
        if (O.isBottom()) // Start over from top.
          Slot.emplace(Cells, Mode, Sink);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctagonKernelDifferential,
                         ::testing::Values(3, 2718, 65537));

// -- Smart assignment's residual bounds against formUpperBound ---------------

class OctagonResidualBounds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctagonResidualBounds, MatchFormUpperBoundBitForBit) {
  // Octagon::assign's smart fallback bounds SelfForm and SelfForm -/+ w
  // (each plain and negated) without building them. Every bound must carry
  // the bits formUpperBound returns on the LinearForm it stands for. The
  // forms mix unit and interval coefficients on pack variables (pairing),
  // include the assigned-against variable w itself (merged coefficients,
  // unit ones cancelling to exactly 0), carry +0 and -0 constants, run
  // past 16 terms with pack-external cells (the heap buffers), and see
  // bottom ranges (an external bottom, or a pack variable whose octagon
  // bound and external range are disjoint).
  std::mt19937_64 Rng(GetParam());
  auto Top = [](CellId) { return Interval::top(); };
  const Interval Coefs[] = {Interval::point(1.0),  Interval::point(-1.0),
                            Interval::point(2.5),  Interval(-0.5, 1.5),
                            Interval(0.3, 0.7),    Interval::point(-1.0 / 3)};
  size_t Checked = 0, WInForm = 0, Cancelled = 0, HeapForms = 0;
  size_t NegZero = 0, PosZero = 0, Bottoms = 0;
  for (int Pack = 1; Pack <= 16; ++Pack) {
    std::vector<CellId> Cells;
    for (int I = 0; I < Pack; ++I)
      Cells.push_back(static_cast<CellId>(3 * I + 1));
    for (int Trial = 0; Trial < 24; ++Trial) {
      // Constraints that all hold at one random point, with slack, so the
      // octagon is never empty.
      std::vector<double> Point;
      for (int I = 0; I < Pack; ++I)
        Point.push_back(nonDyadic(Rng));
      auto Slack = [&] { return std::fabs(nonDyadic(Rng)) + 0.25; };
      Octagon O(Cells);
      for (int K = 0; K < 2 * Pack; ++K) {
        int V = static_cast<int>(Rng() % Pack);
        int W = static_cast<int>(Rng() % Pack);
        if (Rng() % 2) {
          O.meetVarInterval(V, Interval(Point[V] - Slack(), Point[V] + Slack()));
        } else {
          double SW = Rng() % 2 ? 1.0 : -1.0;
          LinearForm VW = LinearForm::var(Cells[V]).add(
              LinearForm::var(Cells[W]).scale(Interval::point(SW)));
          double At = Point[V] + SW * Point[W] + Slack();
          O.guardLe(VW.add(LinearForm::constant(Interval::point(-At))), Top);
        }
      }
      ASSERT_TRUE(O.close());
      // External ranges: in-pack cells 3i+1, pack-external cells 3i+2.
      std::map<CellId, Interval> Ranges;
      auto RandomRange = [&](CellId C, bool InPack) {
        uint64_t Roll = Rng() % 100;
        if (Roll < 6) {
          Ranges[C] = Interval::bottom();
          ++Bottoms;
        } else if (InPack && Roll < 14) {
          Ranges[C] = Interval(1e6, 2e6); // Disjoint from bounded vars.
        } else if (Roll < 40) {
          double Lo = nonDyadic(Rng);
          Ranges[C] = Interval(Lo, Lo + std::fabs(nonDyadic(Rng)));
        }
      };
      for (CellId C : Cells)
        RandomRange(C, true);
      for (CellId C = 2; C < 3 * 24; C += 3)
        RandomRange(C, false);
      std::function<Interval(CellId)> Range = mapRange(Ranges);

      int Idx = static_cast<int>(Rng() % Pack);
      LinearForm T = LinearForm::constant(Interval::point(0));
      for (int U = 0; U < Pack; ++U)
        if (U != Idx && Rng() % 2)
          T = T.add(LinearForm::var(Cells[U]).scale(Coefs[Rng() % 6]));
      size_t External = Trial % 6 == 0 ? 20 : Rng() % 4;
      for (size_t E = 0; E < External; ++E)
        T = T.add(LinearForm::var(static_cast<CellId>(3 * (Rng() % 24) + 2))
                      .scale(Coefs[Rng() % 6]));
      if (Rng() % 2)
        T = T.negate(); // -0 constant.
      const Interval Consts[] = {Interval(-0.0, -0.0), Interval::point(0),
                                 Interval(-0.0, 0.0),
                                 Interval::point(nonDyadic(Rng)),
                                 Interval(-INFINITY, 1.0 / 3)};
      LinearForm Form =
          LinearForm::constant(Consts[Rng() % 5]).add(T);
      const Interval &K = Form.constTerm();
      NegZero += K.Lo == 0.0 && std::signbit(K.Lo);
      PosZero += K.Hi == 0.0 && !std::signbit(K.Hi);
      HeapForms += Form.terms().size() > 16;

      double Got[2 + 4 * 16];
      OctagonKernelAccess::residualBounds(O, Idx, Form, Range, Got);
      LinearForm Self = Form.without(Cells[Idx]);
      auto ExpectBits = [&](const LinearForm &F, double Bound,
                            const char *What, int W) {
        double Want = O.formUpperBound(F, Range);
        EXPECT_EQ(std::bit_cast<uint64_t>(Bound), std::bit_cast<uint64_t>(Want))
            << What << " pack=" << Pack << " trial=" << Trial
            << " idx=" << Idx << " w=" << W << ": " << Bound << " vs "
            << Want;
        ++Checked;
      };
      ExpectBits(Self, Got[0], "sup(F)", -1);
      ExpectBits(Self.negate(), Got[1], "sup(-F)", -1);
      for (int W = 0; W < Pack; ++W) {
        if (W == Idx)
          continue;
        Interval CW = Form.coeff(Cells[W]);
        WInForm += !(CW == Interval::point(0));
        Cancelled += CW == Interval::point(1.0) || CW == Interval::point(-1.0);
        LinearForm Minus = Self.sub(LinearForm::var(Cells[W]));
        LinearForm Plus = Self.add(LinearForm::var(Cells[W]));
        const double *B = Got + 2 + 4 * W;
        ExpectBits(Minus, B[0], "sup(F - w)", W);
        ExpectBits(Minus.negate(), B[1], "sup(-(F - w))", W);
        ExpectBits(Plus, B[2], "sup(F + w)", W);
        ExpectBits(Plus.negate(), B[3], "sup(-(F + w))", W);
      }
    }
  }
  // Every case the comment above names was exercised.
  EXPECT_GT(Checked, 1000u);
  EXPECT_GT(WInForm, 0u);
  EXPECT_GT(Cancelled, 0u);
  EXPECT_GT(HeapForms, 0u);
  EXPECT_GT(NegZero, 0u);
  EXPECT_GT(PosZero, 0u);
  EXPECT_GT(Bottoms, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctagonResidualBounds,
                         ::testing::Values(5, 1234, 99991));

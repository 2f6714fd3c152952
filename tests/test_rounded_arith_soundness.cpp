//===- tests/test_rounded_arith_soundness.cpp - Rounding-mode soundness -----===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
// Soundness of support/RoundedArith against *actual* directed rounding: for
// every hardware rounding mode, the [opDown, opUp] bracket must contain the
// result the FPU produces in that mode (Sect. 6.2.1: "always perform
// rounding in the right direction"). The seed suite checks brackets in
// round-to-nearest only; this suite flips the FPU mode (the tests are built
// with -frounding-math so the compiler cannot constant-fold across
// fesetround) and also probes subnormals, overflow-to-infinity and huge
// cancellations.
//
//===----------------------------------------------------------------------===//

#include "support/RoundedArith.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

using namespace astral;
using namespace astral::rounded;

namespace {

const int AllModes[] = {FE_TONEAREST, FE_DOWNWARD, FE_UPWARD, FE_TOWARDZERO};

/// Evaluates Op(X, Y) under rounding mode \p Mode, restoring the mode after.
template <typename FnT> double underMode(int Mode, FnT &&Op) {
  int Saved = std::fegetround();
  std::fesetround(Mode);
  volatile double R = Op();
  std::fesetround(Saved);
  return R;
}

/// Interesting values: zeros, subnormals, powers of two, odd mantissas,
/// values near the binary64 overflow threshold, and infinities.
std::vector<double> probeValues() {
  const double Inf = std::numeric_limits<double>::infinity();
  return {0.0,
          -0.0,
          4.9406564584124654e-324, // min subnormal
          -4.9406564584124654e-324,
          2.2250738585072014e-308, // min normal
          1e-30,
          0.1,
          1.0 / 3.0,
          0.5,
          1.0,
          1.5,
          2.0,
          3.141592653589793,
          1e10,
          12345678.9012345,
          1.7976931348623157e308, // max finite
          -1.7976931348623157e308,
          Inf,
          -Inf,
          -1e-30,
          -0.1,
          -1.0,
          -2.5};
}

} // namespace

TEST(RoundedArithSoundness, AddBracketsEveryRoundingMode) {
  for (double X : probeValues())
    for (double Y : probeValues()) {
      if (std::isinf(X) && std::isinf(Y) && std::signbit(X) != std::signbit(Y))
        continue; // inf + -inf is NaN; the interval layer never asks for it.
      double Lo = addDown(X, Y), Hi = addUp(X, Y);
      ASSERT_LE(Lo, Hi);
      for (int Mode : AllModes) {
        volatile double VX = X, VY = Y;
        double R = underMode(Mode, [&] { return VX + VY; });
        ASSERT_LE(Lo, R) << "x=" << X << " y=" << Y << " mode=" << Mode;
        ASSERT_GE(Hi, R) << "x=" << X << " y=" << Y << " mode=" << Mode;
      }
    }
}

TEST(RoundedArithSoundness, SubBracketsEveryRoundingMode) {
  for (double X : probeValues())
    for (double Y : probeValues()) {
      if (std::isinf(X) && std::isinf(Y) && std::signbit(X) == std::signbit(Y))
        continue;
      double Lo = subDown(X, Y), Hi = subUp(X, Y);
      ASSERT_LE(Lo, Hi);
      for (int Mode : AllModes) {
        volatile double VX = X, VY = Y;
        double R = underMode(Mode, [&] { return VX - VY; });
        ASSERT_LE(Lo, R) << "x=" << X << " y=" << Y << " mode=" << Mode;
        ASSERT_GE(Hi, R) << "x=" << X << " y=" << Y << " mode=" << Mode;
      }
    }
}

TEST(RoundedArithSoundness, MulBracketsEveryRoundingMode) {
  for (double X : probeValues())
    for (double Y : probeValues()) {
      if ((X == 0.0 && std::isinf(Y)) || (std::isinf(X) && Y == 0.0))
        continue; // 0 * inf is NaN.
      double Lo = mulDown(X, Y), Hi = mulUp(X, Y);
      ASSERT_LE(Lo, Hi);
      for (int Mode : AllModes) {
        volatile double VX = X, VY = Y;
        double R = underMode(Mode, [&] { return VX * VY; });
        ASSERT_LE(Lo, R) << "x=" << X << " y=" << Y << " mode=" << Mode;
        ASSERT_GE(Hi, R) << "x=" << X << " y=" << Y << " mode=" << Mode;
      }
    }
}

TEST(RoundedArithSoundness, DivBracketsEveryRoundingMode) {
  for (double X : probeValues())
    for (double Y : probeValues()) {
      if (Y == 0.0)
        continue; // Callers split zero-spanning divisors.
      if (std::isinf(X) && std::isinf(Y))
        continue; // inf / inf is NaN.
      double Lo = divDown(X, Y), Hi = divUp(X, Y);
      ASSERT_LE(Lo, Hi);
      for (int Mode : AllModes) {
        volatile double VX = X, VY = Y;
        double R = underMode(Mode, [&] { return VX / VY; });
        ASSERT_LE(Lo, R) << "x=" << X << " y=" << Y << " mode=" << Mode;
        ASSERT_GE(Hi, R) << "x=" << X << " y=" << Y << " mode=" << Mode;
      }
    }
}

TEST(RoundedArithSoundness, SqrtBracketsEveryRoundingMode) {
  for (double X : probeValues()) {
    if (std::signbit(X) && X != 0.0)
      continue;
    double Lo = sqrtDown(X), Hi = sqrtUp(X);
    ASSERT_LE(Lo, Hi);
    for (int Mode : AllModes) {
      volatile double VX = X;
      double R = underMode(Mode, [&] { return std::sqrt(VX); });
      ASSERT_LE(Lo, R) << "x=" << X << " mode=" << Mode;
      ASSERT_GE(Hi, R) << "x=" << X << " mode=" << Mode;
    }
  }
}

TEST(RoundedArithSoundness, OverflowWidensToInfinityNotMaxFinite) {
  const double Max = std::numeric_limits<double>::max();
  // Up-rounded overflow must reach +inf: clamping at DBL_MAX would exclude
  // concrete values representable under FE_UPWARD semantics.
  EXPECT_EQ(addUp(Max, Max), std::numeric_limits<double>::infinity());
  EXPECT_EQ(mulUp(Max, 2.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(subDown(-Max, Max), -std::numeric_limits<double>::infinity());
  // The opposite bound comes back from the overflow infinity to the
  // largest finite value (the FE_DOWNWARD result).
  EXPECT_EQ(addDown(Max, Max), Max);
  EXPECT_EQ(mulDown(Max, 2.0), Max);
  EXPECT_EQ(subUp(-Max, Max), -Max);
}

TEST(RoundedArithSoundness, SubnormalUnderflowKeepsSignedBracket) {
  const double Tiny = 4.9406564584124654e-324; // min subnormal
  // tiny * 0.5 rounds to 0 or tiny depending on mode: bracket must span both.
  double Lo = mulDown(Tiny, 0.5), Hi = mulUp(Tiny, 0.5);
  EXPECT_LE(Lo, 0.0);
  EXPECT_GE(Hi, Tiny);
  // Negative side mirrors.
  double NLo = mulDown(-Tiny, 0.5), NHi = mulUp(-Tiny, 0.5);
  EXPECT_LE(NLo, -Tiny);
  EXPECT_GE(NHi, 0.0);
}

TEST(RoundedArithSoundness, MassiveCancellationIsBracketed) {
  // (x + y) - x with |y| << |x|: catastrophic cancellation territory.
  volatile double X = 1e16, Y = 1.0 / 3.0;
  double Sum = X + Y;
  double LoSum = addDown(X, Y), HiSum = addUp(X, Y);
  EXPECT_LE(LoSum, Sum);
  EXPECT_GE(HiSum, Sum);
  double Lo = subDown(LoSum, X), Hi = subUp(HiSum, X);
  // The true real value 1/3 must be inside the accumulated bracket.
  EXPECT_LE(Lo, 1.0 / 3.0);
  EXPECT_GE(Hi, 1.0 / 3.0);
}

TEST(RoundedArithSoundness, BracketWidthStaysOneUlpish) {
  // The nudge strategy must not widen exact results by more than one ulp on
  // each side — precision, not just soundness.
  for (double X : {1.0, 2.0, 1024.0, 0.125}) {
    double Lo = addDown(X, X), Hi = addUp(X, X);
    EXPECT_GE(Lo, std::nextafter(2 * X, -INFINITY));
    EXPECT_LE(Hi, std::nextafter(2 * X, INFINITY));
  }
}

// -- Bit-exactness of the inline fast paths ---------------------------------
//
// The add/sub fast paths (inline exactness test, one-ulp nudge on the IEEE
// bit pattern) must return exactly what the former out-of-line
// implementation returned. That implementation is kept here, verbatim in
// behavior, as the reference: nextafter-based nudges and the same residual
// exactness test, under every FPU rounding mode.

namespace reference {

double nudgeDown(double X) {
  if (std::isinf(X) || std::isnan(X))
    return X;
  return std::nextafter(X, -std::numeric_limits<double>::infinity());
}

double nudgeUp(double X) {
  if (std::isinf(X) || std::isnan(X))
    return X;
  return std::nextafter(X, std::numeric_limits<double>::infinity());
}

bool addExact(double X, double Y, double R) {
  if (!std::isfinite(R))
    return false;
  return R - X == Y && R - Y == X;
}

double nudgeDownChecked(double R, double X, double Y) {
  if (R == std::numeric_limits<double>::infinity() && std::isfinite(X) &&
      std::isfinite(Y))
    return std::numeric_limits<double>::max();
  return nudgeDown(R);
}

double nudgeUpChecked(double R, double X, double Y) {
  if (R == -std::numeric_limits<double>::infinity() && std::isfinite(X) &&
      std::isfinite(Y))
    return -std::numeric_limits<double>::max();
  return nudgeUp(R);
}

double addDown(double X, double Y) {
  double R = X + Y;
  if (std::isnan(R) || addExact(X, Y, R))
    return R;
  return nudgeDownChecked(R, X, Y);
}

double addUp(double X, double Y) {
  double R = X + Y;
  if (std::isnan(R) || addExact(X, Y, R))
    return R;
  return nudgeUpChecked(R, X, Y);
}

double subDown(double X, double Y) {
  double R = X - Y;
  if (std::isnan(R) || addExact(X, -Y, R))
    return R;
  return nudgeDownChecked(R, X, Y);
}

double subUp(double X, double Y) {
  double R = X - Y;
  if (std::isnan(R) || addExact(X, -Y, R))
    return R;
  return nudgeUpChecked(R, X, Y);
}

} // namespace reference

namespace {

uint64_t bitsOf(double X) { return std::bit_cast<uint64_t>(X); }

/// Asserts that the four add/sub functions and both nudges agree bit for
/// bit with the reference on (X, Y) under the current rounding mode.
::testing::AssertionResult sameBits(double X, double Y) {
  struct Op {
    const char *Name;
    double Got, Want;
  };
  volatile double VX = X, VY = Y; // No constant folding across modes.
  const Op Ops[] = {
      {"addDown", addDown(VX, VY), reference::addDown(VX, VY)},
      {"addUp", addUp(VX, VY), reference::addUp(VX, VY)},
      {"subDown", subDown(VX, VY), reference::subDown(VX, VY)},
      {"subUp", subUp(VX, VY), reference::subUp(VX, VY)},
      {"nudgeDown", nudgeDown(VX), reference::nudgeDown(VX)},
      {"nudgeUp", nudgeUp(VX), reference::nudgeUp(VX)},
  };
  for (const Op &O : Ops)
    if (bitsOf(O.Got) != bitsOf(O.Want))
      return ::testing::AssertionFailure()
             << O.Name << "(" << std::hexfloat << X << ", " << Y
             << ") = " << O.Got << ", reference " << O.Want
             << " (rounding mode " << std::fegetround() << ")";
  return ::testing::AssertionSuccess();
}

/// Runs sameBits over every pair of \p Xs x \p Ys under every rounding
/// mode, restoring round-to-nearest afterwards.
void expectSameBitsEverywhere(const std::vector<double> &Xs,
                              const std::vector<double> &Ys) {
  int Saved = std::fegetround();
  for (int Mode : AllModes) {
    std::fesetround(Mode);
    for (double X : Xs)
      for (double Y : Ys) {
        ::testing::AssertionResult R = sameBits(X, Y);
        if (!R) {
          std::fesetround(Saved);
          FAIL() << R.message();
        }
      }
  }
  std::fesetround(Saved);
}

} // namespace

TEST(RoundedArithBitExact, SpecialValues) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double Den = std::numeric_limits<double>::denorm_min();
  const double Min = std::numeric_limits<double>::min();
  const double Max = std::numeric_limits<double>::max();
  std::vector<double> Specials = {0.0,  -0.0, Den,  -Den, Min,
                                  -Min, Max,  -Max, Inf,  -Inf,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  1.0,  -1.0, 0.1,  -0.1, 1.0 / 3.0};
  expectSameBitsEverywhere(Specials, Specials);
}

TEST(RoundedArithBitExact, SumsStraddlingOverflow) {
  // Operands within a few ulps of DBL_MAX and half of it: their sums land
  // just below, at, and beyond the overflow threshold, in both signs.
  const double Max = std::numeric_limits<double>::max();
  std::vector<double> Near;
  for (double Base : {Max, Max / 2}) {
    double X = Base;
    for (int Ulp = 0; Ulp < 4; ++Ulp) {
      Near.push_back(X);
      Near.push_back(-X);
      X = std::nextafter(X, 0.0);
    }
  }
  const double Ulp = Max - std::nextafter(Max, 0.0); // 2^971.
  for (double Small : {Ulp / 4, Ulp / 2, Ulp, 2 * Ulp, 1.0}) {
    Near.push_back(Small);
    Near.push_back(-Small);
  }
  expectSameBitsEverywhere(Near, Near);
}

TEST(RoundedArithBitExact, MillionRandomPairs) {
  // Half the pairs are raw bit patterns (every exponent, subnormals,
  // infinities and NaNs); half are close in magnitude, where exact and
  // inexact sums and cancellations alternate.
  std::mt19937_64 Rng(20030609);
  const size_t Pairs = 1u << 20;
  std::vector<double> Xs(Pairs), Ys(Pairs);
  for (size_t I = 0; I < Pairs; ++I) {
    if (I % 2 == 0) {
      Xs[I] = std::bit_cast<double>(Rng());
      Ys[I] = std::bit_cast<double>(Rng());
    } else {
      std::uniform_real_distribution<double> Unit(-1.0, 1.0);
      double Scale = std::ldexp(1.0, static_cast<int>(Rng() % 64) - 32);
      Xs[I] = Unit(Rng) * Scale;
      Ys[I] = Rng() % 4 == 0 ? std::ldexp(std::nearbyint(Xs[I] * 1024), -10)
                             : Unit(Rng) * Scale;
    }
  }
  int Saved = std::fegetround();
  for (int Mode : AllModes) {
    std::fesetround(Mode);
    for (size_t I = 0; I < Pairs; ++I) {
      ::testing::AssertionResult R = sameBits(Xs[I], Ys[I]);
      if (!R) {
        std::fesetround(Saved);
        FAIL() << "pair " << I << ": " << R.message();
      }
    }
  }
  std::fesetround(Saved);
}

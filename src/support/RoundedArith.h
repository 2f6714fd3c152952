//===- support/RoundedArith.h - Directed-rounding float ops ------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sound directed rounding for the floating-point interval arithmetic of
/// Sect. 6.2.1 ("special care has to be taken ... to always perform rounding
/// in the right direction and to handle special IEEE values").
///
/// Instead of toggling the FPU rounding mode (slow, thread-hostile, easy to
/// leak), every operation is computed in round-to-nearest and then nudged one
/// ulp outward when an exact result cannot be guaranteed. The result is a
/// superset of what any IEEE rounding mode could produce, which is all
/// interval soundness requires. Infinities are preserved (they are already
/// the widest bounds); NaN operands are handled by the interval layer, not
/// here.
///
/// Fast and slow paths. Addition and subtraction sit in the innermost loop
/// of the octagon closure, so they are inline for every finite sum: compute
/// the nearest sum R, apply the residual exactness test
/// R - X == Y && R - Y == X, and return R when it holds or R one ulp
/// outward when it does not. The ulp step is an integer step on the IEEE
/// bit pattern (the value std::nextafter gives, without the libm call),
/// selected without a branch. Only an infinite or NaN sum (an infinite
/// operand, an overflow) takes the out-of-line slow path, which also
/// repairs overflow to the largest finite bound. Together the two paths
/// return exactly what the former all-out-of-line functions did, bit for
/// bit, in every rounding mode. Multiplication, division and square root
/// stay out of line.
///
/// Every target that includes this header is compiled with
/// -frounding-math (a PUBLIC option of astral_core), so the compiler
/// keeps the inline float operations ordered and unfolded.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SUPPORT_ROUNDEDARITH_H
#define ASTRAL_SUPPORT_ROUNDEDARITH_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace astral {
namespace rounded {

/// Largest relative error of one rounded binary64 operation (2^-52, one ulp;
/// a sound upper bound for the 1/2 ulp of round-to-nearest).
inline constexpr double RelErr = 2.220446049250313e-16;

/// Largest relative error of one rounded binary32 operation (2^-23), used
/// when modeling the analyzed program's `float` computations (the paper's
/// constant f in the delta(k) formula of Sect. 6.2.3).
inline constexpr double RelErrFloat32 = 1.1920928955078125e-7;

/// Smallest positive subnormal binary64 (absolute error floor).
inline constexpr double AbsErrMin = 4.9406564584124654e-324;

/// Smallest positive subnormal binary32 for analyzed `float` code.
inline constexpr double AbsErrMinFloat32 = 1.4012984643248171e-45;

/// The next double towards -inf, as std::nextafter(X, -inf) for finite X;
/// infinities and NaN are returned unchanged.
inline double nudgeDown(double X) {
  if (!std::isfinite(X))
    return X;
  if (X == 0.0)
    return -std::numeric_limits<double>::denorm_min();
  uint64_t Bits = std::bit_cast<uint64_t>(X);
  return std::bit_cast<double>(X > 0.0 ? Bits - 1 : Bits + 1);
}

/// The next double towards +inf, as std::nextafter(X, +inf) for finite X;
/// infinities and NaN are returned unchanged.
inline double nudgeUp(double X) {
  if (!std::isfinite(X))
    return X;
  if (X == 0.0)
    return std::numeric_limits<double>::denorm_min();
  uint64_t Bits = std::bit_cast<uint64_t>(X);
  return std::bit_cast<double>(X > 0.0 ? Bits + 1 : Bits - 1);
}

/// \p R, the nearest-rounded result of an operation on \p X and \p Y,
/// nudged one ulp outward, with an overflow of finite operands brought back
/// to the largest finite bound; NaN and infinities from infinite operands
/// are returned as is. The out-of-line slow path of add/sub below, whose
/// inline fast path handles every finite sum.
double nudgeDownChecked(double R, double X, double Y);
double nudgeUpChecked(double R, double X, double Y);

namespace detail {
/// Fast path of the add/sub below: the bound of the finite nearest sum
/// \p R = X + Y, towards +inf when \p Up. When the residual test
/// R - X == Y && R - Y == X proves that no rounding happened, R is the
/// bound; otherwise R one ulp outward (an inexact sum is never zero, so
/// the step is +-1 on the bit pattern). The test's outcome depends on the
/// data and would mispredict as a branch, so it selects the step
/// arithmetically.
template <bool Up> inline double finiteSumBound(double R, double X, double Y) {
  uint64_t Bits = std::bit_cast<uint64_t>(R);
  uint64_t Exact = static_cast<uint64_t>(R - X == Y) &
                   static_cast<uint64_t>(R - Y == X);
  // +1 moves away from zero: up for a positive R, down for a negative one.
  uint64_t Step = (((Bits >> 63) ^ (Up ? 1 : 0)) << 1) - 1;
  return std::bit_cast<double>(Bits + (Step & (Exact - 1)));
}
} // namespace detail

/// Lower bound of x + y under any rounding mode.
inline double addDown(double X, double Y) {
  double R = X + Y;
  if (std::isfinite(R)) [[likely]]
    return detail::finiteSumBound<false>(R, X, Y);
  return nudgeDownChecked(R, X, Y);
}
/// Upper bound of x + y under any rounding mode.
inline double addUp(double X, double Y) {
  double R = X + Y;
  if (std::isfinite(R)) [[likely]]
    return detail::finiteSumBound<true>(R, X, Y);
  return nudgeUpChecked(R, X, Y);
}
inline double subDown(double X, double Y) {
  double R = X - Y;
  if (std::isfinite(R)) [[likely]]
    return detail::finiteSumBound<false>(R, X, -Y);
  return nudgeDownChecked(R, X, Y);
}
inline double subUp(double X, double Y) {
  double R = X - Y;
  if (std::isfinite(R)) [[likely]]
    return detail::finiteSumBound<true>(R, X, -Y);
  return nudgeUpChecked(R, X, Y);
}
double mulDown(double X, double Y);
double mulUp(double X, double Y);
/// Division; callers must not pass Y spanning zero (the interval layer
/// handles that case by splitting).
double divDown(double X, double Y);
double divUp(double X, double Y);
/// Lower bound of sqrt(x); X must be >= 0.
double sqrtDown(double X);
double sqrtUp(double X);

} // namespace rounded
} // namespace astral

#endif // ASTRAL_SUPPORT_ROUNDEDARITH_H

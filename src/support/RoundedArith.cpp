//===- support/RoundedArith.cpp - Directed-rounding float ops -------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/RoundedArith.h"

namespace astral {
namespace rounded {

// A nearest-rounded result R of an exact value V satisfies
// nextafter(R, -inf) < V < nextafter(R, +inf) whenever R is finite, so one
// outward nudge yields sound directed bounds. When the operation is provably
// exact (no rounding happened) the nudge is skipped: point values like unit
// coefficients and integral bounds then stay points, which the octagon shape
// detection and linear-form cancellation rely on.

/// Below this magnitude an FMA residual can itself round to zero (the exact
/// residual of a 106-bit product lies under the subnormal floor 2^-1074), so
/// a zero residual no longer proves exactness.
static constexpr double FmaTrustFloor = 0x1p-960;

/// True when X * Y was computed without rounding (FMA residual).
static bool mulExact(double X, double Y, double R) {
  if (!std::isfinite(R))
    return false;
  if (R == 0.0)
    return X == 0.0 || Y == 0.0; // A zero from underflow is not exact.
  if (std::fabs(R) < FmaTrustFloor)
    return false;
  return std::fma(X, Y, -R) == 0.0;
}

/// True when X / Y was computed without rounding.
static bool divExact(double X, double Y, double R) {
  if (!std::isfinite(R) || Y == 0.0)
    return false;
  if (R == 0.0)
    return X == 0.0;
  if (std::fabs(X) < FmaTrustFloor) // Residual R*Y - X can underflow.
    return false;
  return std::fma(R, Y, -X) == 0.0 && std::isfinite(R * Y);
}

// Nearest-rounded overflow of finite operands produces ±inf, but the
// directed modes produce ±DBL_MAX: the infinity must be brought back to
// the largest finite value on the inward-facing bound. A true infinite
// operand keeps its exact infinite result.
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

double mulDown(double X, double Y) {
  double R = X * Y;
  if (std::isnan(R) || mulExact(X, Y, R))
    return R;
  return nudgeDownChecked(R, X, Y);
}

double mulUp(double X, double Y) {
  double R = X * Y;
  if (std::isnan(R) || mulExact(X, Y, R))
    return R;
  return nudgeUpChecked(R, X, Y);
}

double divDown(double X, double Y) {
  double R = X / Y;
  if (std::isnan(R) || divExact(X, Y, R))
    return R;
  return nudgeDownChecked(R, X, Y);
}

double divUp(double X, double Y) {
  double R = X / Y;
  if (std::isnan(R) || divExact(X, Y, R))
    return R;
  return nudgeUpChecked(R, X, Y);
}

double sqrtDown(double X) {
  double R = std::sqrt(X);
  if (std::isnan(R))
    return R;
  double Down = nudgeDown(R);
  return Down < 0.0 ? 0.0 : Down;
}

double sqrtUp(double X) {
  double R = std::sqrt(X);
  if (std::isnan(R))
    return R;
  return nudgeUp(R);
}

} // namespace rounded
} // namespace astral

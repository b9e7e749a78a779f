"""Scalar kernels behind the special functions: complex log Gamma, the Gauss
hypergeometric series and its Pfaff map, and the log-domain Gamma ratio of the
connection coefficients.

Plain Python on complex scalars; failures raise the package's typed errors.
The two series return their sum together with its cancellation figure
max|term| / |sum|: the relative rounding error of the sum is about that figure
times the unit roundoff, and :func:`dkpscatter.specfun.hyp2f1` refuses values
whose figure is too large.
"""

from __future__ import annotations

import cmath
import math

from .errors import NonConvergenceError, PoleError

# Stirling series for log Gamma: B_{2n} / (2n (2n-1) z^{2n-1}), n = 1..8.
# Truncation error at Re(z) = 12 is ~4e-17, below double rounding.
_S1 = 1.0 / 12.0
_S2 = -1.0 / 360.0
_S3 = 1.0 / 1260.0
_S4 = -1.0 / 1680.0
_S5 = 1.0 / 1188.0
_S6 = -691.0 / 360360.0
_S7 = 1.0 / 156.0
_S8 = -3617.0 / 122400.0

_HALF_LOG_TWO_PI = 0.9189385332046727

MAX_SERIES_TERMS = 100_000

# Distance from a nonpositive integer within which Gamma counts as at a pole.
POLE_TOL = 1e-14


def _near_nonpositive_int(z: complex) -> bool:
    k = math.floor(z.real + 0.5)
    if k > 0.5:
        return False
    return abs(z - k) <= POLE_TOL


def lgamma_c(z: complex) -> complex:
    """Principal-branch log Gamma for complex z off the nonpositive integers.

    Recurrence shift into Re(w) >= 12 followed by the Stirling series.
    Subtracting principal logs preserves the principal branch: both sides are
    analytic off (-inf, 0] and agree on the positive real axis.  On the
    negative real axis the value is the limit from the upper half plane
    (the convention of cmath.log).
    """
    n = 0
    if z.real < 12.0:
        n = int(math.ceil(12.0 - z.real))
    w = z + n
    r = 1.0 / w
    r2 = r * r
    corr = r * (_S1 + r2 * (_S2 + r2 * (_S3 + r2 * (_S4 + r2 * (
        _S5 + r2 * (_S6 + r2 * (_S7 + r2 * _S8)))))))
    out = (w - 0.5) * cmath.log(w) - w + _HALF_LOG_TWO_PI + corr
    for k in range(n):
        out -= cmath.log(z + k)
    return out


def gauss_series(a: complex, b: complex, c: complex,
                 z: float) -> tuple[complex, float]:
    """Gauss hypergeometric series at real z, |z| < 1, and its cancellation
    figure max|term| / |sum|.

    Stops once ten consecutive terms each move the partial sum by less than
    1e-15 relative; raises NonConvergenceError when MAX_SERIES_TERMS is hit
    first.
    """
    s = 1.0 + 0.0j
    t = 1.0 + 0.0j
    t_max = 1.0
    quiet = 0
    for n in range(MAX_SERIES_TERMS):
        t = t * (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        s = s + t
        t_abs = abs(t)
        if t_abs > t_max:
            t_max = t_abs
        if t_abs <= 1e-15 * abs(s):
            quiet += 1
            if quiet >= 10:
                return s, (t_max / abs(s) if s else math.inf)
        else:
            quiet = 0
    raise NonConvergenceError(
        f"hyp2f1 series did not converge for ({a}, {b}, {c}, {z})")


def pfaff_series(a: complex, b: complex, c: complex,
                 z: float) -> tuple[complex, float]:
    """F(a,b;c;z) via the Pfaff map w = z/(z-1), for z in [-1, 0), and the
    cancellation figure of the mapped series.

    The mapped argument lies in [0, 1/2], where the series converges fast.
    """
    s, cond = gauss_series(a, c - b, c, z / (z - 1.0))
    return cmath.exp(-a * math.log(1.0 - z)) * s, cond


def _coeff_ratio(n1: complex, n2: complex, d1: complex, d2: complex) -> complex:
    """Gamma(n1)Gamma(n2) / (Gamma(d1)Gamma(d2)) in the log domain.

    Exactly zero when a denominator argument is at a pole; otherwise
    PoleError when a numerator argument is.  Accumulated pairwise as
    (n1/d1)(n2/d2), so an argument shared by both sides cancels exactly.
    """
    if _near_nonpositive_int(d1) or _near_nonpositive_int(d2):
        return 0.0 + 0.0j
    if _near_nonpositive_int(n1) or _near_nonpositive_int(n2):
        raise PoleError(f"Gamma pole in the numerator at {n1} or {n2}")
    return cmath.exp((lgamma_c(n1) - lgamma_c(d1)) + (lgamma_c(n2) - lgamma_c(d2)))

"""Scalar numerical kernels.

Everything here is decorated with :func:`dkpscatter._jit.njit` and written in
the subset of Python that numba compiles in nopython mode; with the JIT
disabled the same source runs as plain Python.  Kernels never raise: failure
is signalled with NaN payloads, and the public wrappers in
:mod:`dkpscatter.specfun` and :mod:`dkpscatter.scattering` turn those into
typed exceptions.
"""

from __future__ import annotations

import cmath
import math

from ._jit import njit

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

_NAN_C = complex(math.nan, math.nan)

MAX_SERIES_TERMS = 100_000

# Distance from a nonpositive integer within which Gamma counts as at a pole.
POLE_TOL = 1e-14


@njit
def _near_nonpositive_int(z: complex, tol: float) -> bool:
    k = math.floor(z.real + 0.5)
    if k > 0.5:
        return False
    return abs(z - k) <= tol


@njit
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


@njit
def gauss_series(a: complex, b: complex, c: complex, z: float) -> complex:
    """Gauss hypergeometric series at real z, |z| < 1.

    Stops once ten consecutive terms each move the partial sum by less than
    1e-15 relative; returns NaN when MAX_SERIES_TERMS is hit first.
    """
    s = 1.0 + 0.0j
    t = 1.0 + 0.0j
    quiet = 0
    for n in range(MAX_SERIES_TERMS):
        t = t * (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        s = s + t
        if abs(t) <= 1e-15 * abs(s):
            quiet += 1
            if quiet >= 10:
                return s
        else:
            quiet = 0
    return _NAN_C


@njit
def pfaff_series(a: complex, b: complex, c: complex, z: float) -> complex:
    """F(a,b;c;z) via the Pfaff map w = z/(z-1), for z in [-1, 0).

    The mapped argument lies in [0, 1/2], where the series converges fast.
    """
    w = z / (z - 1.0)
    lg = math.log(1.0 - z)
    return cmath.exp(-a * lg) * gauss_series(a, c - b, c, w)


@njit
def _f_near(a: complex, b: complex, c: complex, z: float) -> complex:
    # valid for z in [-1, 0.5]
    if abs(z) <= 0.5:
        return gauss_series(a, b, c, z)
    return pfaff_series(a, b, c, z)


@njit
def _coeff_ratio(n1: complex, n2: complex, d1: complex, d2: complex) -> complex:
    """Gamma(n1)Gamma(n2) / (Gamma(d1)Gamma(d2)) in the log domain.

    Exactly zero when a denominator argument is at a pole; otherwise NaN when
    a numerator argument is.  Accumulated pairwise as (n1/d1)(n2/d2), so an
    argument shared by both sides cancels exactly.
    """
    if _near_nonpositive_int(d1, POLE_TOL) or _near_nonpositive_int(d2, POLE_TOL):
        return 0.0 + 0.0j
    if _near_nonpositive_int(n1, POLE_TOL) or _near_nonpositive_int(n2, POLE_TOL):
        return _NAN_C
    return cmath.exp((lgamma_c(n1) - lgamma_c(d1)) + (lgamma_c(n2) - lgamma_c(d2)))


@njit
def hyp2f1_kernel(a: complex, b: complex, c: complex, z: float) -> complex:
    """F(a,b;c;z) for real z < 1, complex parameters.

    Dispatch: direct series for |z| <= 0.5 and for z in (0.5, 1); Pfaff for
    z in [-1, -0.5); inversion z -> 1/z for z < -1, whose inner arguments land
    back in [-1, 0).  The caller has already rejected c at a pole, z >= 1, and
    integer a-b when z < -1.
    """
    if z > -0.5:
        return gauss_series(a, b, c, z)
    if z >= -1.0:
        return pfaff_series(a, b, c, z)
    w = 1.0 / z
    lmz = math.log(-z)
    t1 = _coeff_ratio(c, b - a, b, c - a)
    t2 = _coeff_ratio(c, a - b, a, c - b)
    out = 0.0 + 0.0j
    if t1 != 0.0:
        f1 = _f_near(a, 1.0 - c + a, 1.0 - b + a, w)
        out += t1 * cmath.exp(-a * lmz) * f1
    if t2 != 0.0:
        f2 = _f_near(b, 1.0 - c + b, 1.0 - a + b, w)
        out += t2 * cmath.exp(-b * lmz) * f2
    return out

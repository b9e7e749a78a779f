"""Scalar numerical kernels.

Everything here is decorated with :func:`dkpscatter._jit.njit` and written in
the subset of Python that numba compiles in nopython mode; with the JIT
disabled the same source runs as plain Python.  Kernels never raise: failure
is signalled with NaN payloads or status codes, and the public wrappers in
:mod:`dkpscatter.specfun`, :mod:`dkpscatter.scattering` and
:mod:`dkpscatter.oracle` turn those into typed exceptions.
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


# Dormand-Prince 5(4) coefficients.
_C2 = 1.0 / 5.0
_C3 = 3.0 / 10.0
_C4 = 4.0 / 5.0
_C5 = 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31 = 3.0 / 40.0
_A32 = 9.0 / 40.0
_A41 = 44.0 / 45.0
_A42 = -56.0 / 15.0
_A43 = 32.0 / 9.0
_A51 = 19372.0 / 6561.0
_A52 = -25360.0 / 2187.0
_A53 = 64448.0 / 6561.0
_A54 = -212.0 / 729.0
_A61 = 9017.0 / 3168.0
_A62 = -355.0 / 33.0
_A63 = 46732.0 / 5247.0
_A64 = 49.0 / 176.0
_A65 = -5103.0 / 18656.0
_B1 = 35.0 / 384.0
_B3 = 500.0 / 1113.0
_B4 = 125.0 / 192.0
_B5 = -2187.0 / 6784.0
_B6 = 11.0 / 84.0
_E1 = 71.0 / 57600.0
_E3 = -71.0 / 16695.0
_E4 = 71.0 / 1920.0
_E5 = -17253.0 / 339200.0
_E6 = 22.0 / 525.0
_E7 = -1.0 / 40.0

# The raw 5(4) pair drifts a touch above the advertised conservation bound at
# the default tolerances, so accepted steps must beat the user tolerance by
# this factor.  Keeps defect-vs-tolerance scaling linear.
TOL_DEFLATION = 64.0


@njit
def dp54_scatter(a: float, b: float, m: float, energy: float,
                 x_start: float, x_end: float,
                 y0: complex, y1: complex,
                 rel_tol: float, abs_tol: float,
                 max_steps: int):
    """Integrate psi'' = -[(E - a tanh(bx))^2 - m^2] psi from x_start to x_end.

    Returns (psi, dpsi, steps, status); status 0 on success, 1 when max_steps
    ran out.  Adaptive Dormand-Prince 5(4) with FSAL and a PI-free step
    controller; tolerances are tightened by TOL_DEFLATION internally.
    """
    rtol = rel_tol / TOL_DEFLATION
    atol = abs_tol / TOL_DEFLATION
    x = x_start
    span = x_end - x_start
    direction = 1.0 if span > 0.0 else -1.0
    h = span * 1e-3
    steps = 0

    w = energy - a * math.tanh(b * x)
    k1_0 = y1
    k1_1 = -(w * w - m * m) * y0

    while (x_end - x) * direction > 0.0:
        if steps >= max_steps:
            return y0, y1, steps, 1
        if (x + h - x_end) * direction > 0.0:
            h = x_end - x

        u0 = y0 + h * _A21 * k1_0
        u1 = y1 + h * _A21 * k1_1
        w = energy - a * math.tanh(b * (x + _C2 * h))
        k2_0 = u1
        k2_1 = -(w * w - m * m) * u0

        u0 = y0 + h * (_A31 * k1_0 + _A32 * k2_0)
        u1 = y1 + h * (_A31 * k1_1 + _A32 * k2_1)
        w = energy - a * math.tanh(b * (x + _C3 * h))
        k3_0 = u1
        k3_1 = -(w * w - m * m) * u0

        u0 = y0 + h * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0)
        u1 = y1 + h * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1)
        w = energy - a * math.tanh(b * (x + _C4 * h))
        k4_0 = u1
        k4_1 = -(w * w - m * m) * u0

        u0 = y0 + h * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0)
        u1 = y1 + h * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1)
        w = energy - a * math.tanh(b * (x + _C5 * h))
        k5_0 = u1
        k5_1 = -(w * w - m * m) * u0

        u0 = y0 + h * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0)
        u1 = y1 + h * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1)
        w = energy - a * math.tanh(b * (x + h))
        k6_0 = u1
        k6_1 = -(w * w - m * m) * u0

        y0_new = y0 + h * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
        y1_new = y1 + h * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
        # FSAL: stage 7 is the derivative at the new point
        k7_0 = y1_new
        k7_1 = -(w * w - m * m) * y0_new

        e0 = h * (_E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0)
        e1 = h * (_E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1)

        s0 = atol + rtol * max(abs(y0), abs(y0_new))
        s1 = atol + rtol * max(abs(y1), abs(y1_new))
        err = math.sqrt(0.5 * ((abs(e0) / s0) ** 2 + (abs(e1) / s1) ** 2))

        if err <= 1.0:
            x = x + h
            y0 = y0_new
            y1 = y1_new
            k1_0 = k7_0
            k1_1 = k7_1
        steps += 1

        if err == 0.0:
            factor = 5.0
        else:
            factor = 0.9 * err ** -0.2
            if factor > 5.0:
                factor = 5.0
            elif factor < 0.2:
                factor = 0.2
        h = h * factor

    return y0, y1, steps, 0

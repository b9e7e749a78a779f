"""Kernels behind the special functions: complex log Gamma, the Gauss
hypergeometric series, and the log-domain Gamma ratio of the connection
coefficients.

Log Gamma and the Gamma ratio are plain Python on complex scalars and raise
the package's typed errors.  The series runs over an array of real arguments
at once, a block of terms at a time from term ratios that every argument
shares and powers of each argument formed once, and raises nothing: it
returns its sums, each sum's cancellation figure max|term| / |sum| (its
relative rounding error over the unit roundoff, which
:func:`dkpscatter.specfun.hyp2f1` bounds) and its first non-convergence, for
the caller to rank.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonConvergenceError, PoleError, RangeError

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
_LOG_PI = math.log(math.pi)

MAX_SERIES_TERMS = 100_000

# A series block is _BLOCK_TERMS terms of at most _BLOCK_WIDTH arguments, so the
# working set stays fixed however many arguments a batch has; MAX_SERIES_TERMS
# is a whole number of blocks.
_BLOCK_TERMS = 32
_BLOCK_WIDTH = 256

# Distance from a nonpositive integer within which Gamma counts as at a pole.
POLE_TOL = 1e-14


def _near_nonpositive_int(z: complex) -> bool:
    k = math.floor(z.real + 0.5)
    if k > 0.5:
        return False
    return abs(z - k) <= POLE_TOL


def lgamma_c(z: complex) -> complex:
    """Principal-branch log Gamma for complex z off the nonpositive integers.

    For Re z >= 1/2, a recurrence shift into Re(w) >= 12 and the Stirling
    series; subtracting principal logs keeps the principal branch.  For
    Re z < 1/2, in constant time, log pi - L(z) - log Gamma(1-z) on Im z >= 0
    (reflection) and conjugate symmetry below: L(n + r) = Log sin(pi r) - i pi n,
    n an integer and Re r in [-1/2, 1/2), is the branch of log sin(pi z)
    analytic on Im z > 0 and 0 at z = 1/2; above Im r = 1, where sin(pi r) may
    overflow, Log sin(pi r) = Log(1 - e^{2 pi i r}) - i pi r + i pi/2 - log 2.
    On the negative real axis the value is the limit from the upper half plane.
    """
    if z.real < 0.5:
        if z.imag < 0.0:
            return lgamma_c(z.conjugate()).conjugate()
        n = math.floor(z.real + 0.5)
        # a zero imaginary part as +0.0, the side sin(pi r) and its Log take
        r = complex(z.real - n, abs(z.imag))
        log_sin = cmath.log(cmath.sin(math.pi * r)) if r.imag <= 1.0 else \
            cmath.log(1.0 - cmath.exp(2j * math.pi * r)) - 1j * math.pi * r \
            + complex(-math.log(2.0), 0.5 * math.pi)
        return _LOG_PI - log_sin + 1j * math.pi * n - lgamma_c(1.0 - z)
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


@np.errstate(all="ignore")
def gauss_series(a: complex, b: complex, c: complex, z: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, tuple[int, NonConvergenceError] | None]:
    """Gauss hypergeometric series at every real z of an array, |z| < 1, each
    element's cancellation figure max|term| / |sum|, and the failure.

    Term n is t_n = t_{n-1} (a+n-1)(b+n-1) / ((c+n-1) n) z.  All elements share
    (a, b, c), so over a block of _BLOCK_TERMS terms from n0 on, t_{n0+k} =
    t_{n0} R_k z^k, R_k the product of the block's first k term ratios: R_k is
    formed once per block and z^k once per call, a block adds t_{n0} sum_k
    R_k z^k to each sum, the terms in order, and |t_{n0}| |R_k| |z|^k is the
    size of each term.  An element stops at the end of the first block whose
    last ten terms are each below 1e-15 of its sum there, or whose sum is not
    finite: its terms overflowed, or R_k did (|ab/c| above about 5e19 with z
    near 1/|ab/c|), and hyp2f1 raises RangeError.  Its result does not depend
    on the other elements.  The failure names the first element still running
    when MAX_SERIES_TERMS is hit, else None.  Callers pass at most
    _BLOCK_WIDTH elements, which keeps the working set fixed.
    """
    z = np.asarray(z, dtype=float)
    k = np.arange(_BLOCK_TERMS)
    # R_k z^k is formed as (R_k / s^k) (s z)^k, both exact: the scale s, a power
    # of two near the first term ratio and at most 2^30, keeps R_k / s^k in
    # range where the terms are, at large |ab/c| and small z
    scale = 2.0 ** min(max(math.frexp(np.abs(a * b) / np.abs(c))[1], 0), 30)
    # (s z)^1 .. (s z)^_BLOCK_TERMS, complex so that no block casts them again
    powers = np.cumprod(np.repeat(scale * z[None], _BLOCK_TERMS, axis=0), axis=0)
    sizes = np.abs(powers)
    powers = powers.astype(complex)
    # live elements carry their block-start term, partial sum and largest
    # |term| so far
    live = np.arange(z.size)
    t = np.ones(z.size, dtype=complex)
    s = t.copy()
    t_max = np.ones(z.size)
    values = np.empty(z.size, dtype=complex)
    figures = np.empty(z.size)
    if not z.size:
        return values, figures, None
    for n0 in range(0, MAX_SERIES_TERMS, _BLOCK_TERMS):
        n = k + n0
        ratios = np.cumprod((a + n) * (b + n) / ((c + n) * (1.0 + n) * scale))
        terms = ratios[:, None] * powers
        # summed as real and imaginary columns, so the term axis is never the
        # innermost and numpy adds the terms in order at any width
        block = np.add.reduce(terms.view(float), axis=0).view(complex)
        bound = np.abs(ratios)[:, None] * sizes
        t_abs = np.abs(t)
        s = s + t * block
        s_abs = np.abs(s)
        t_max = np.maximum(t_max, t_abs * bound.max(axis=0))
        # false for a NaN, so a sum that is not finite stops too
        done = ~(t_abs * bound[-10:].max(axis=0) > 1e-15 * s_abs)
        t = t * terms[-1]
        if done.any():
            values[live[done]] = s[done]
            figures[live[done]] = t_max[done] / s_abs[done]
            keep = ~done
            if not keep.any():
                return values, figures, None
            live, t, s, t_max = live[keep], t[keep], s[keep], t_max[keep]
            # compress keeps them C-ordered, as the complex view needs
            powers, sizes = (np.compress(keep, v, axis=1) for v in (powers, sizes))
    return values, figures, (int(live[0]), NonConvergenceError(
        f"hyp2f1 series did not converge for ({a}, {b}, {c}, {float(z[live[0]])})"))


def _coeff_ratio(n1: complex, n2: complex, d1: complex, d2: complex) -> complex:
    """Gamma(n1)Gamma(n2) / (Gamma(d1)Gamma(d2)) in the log domain.

    Exactly zero when a denominator argument is at a pole; otherwise
    PoleError when a numerator argument is, and RangeError when the ratio
    overflows.  Accumulated pairwise as (n1/d1)(n2/d2), so an argument shared
    by both sides cancels exactly.
    """
    if _near_nonpositive_int(d1) or _near_nonpositive_int(d2):
        return 0.0 + 0.0j
    if _near_nonpositive_int(n1) or _near_nonpositive_int(n2):
        raise PoleError(f"Gamma pole in the numerator at {n1} or {n2}")
    try:
        return cmath.exp((lgamma_c(n1) - lgamma_c(d1)) + (lgamma_c(n2) - lgamma_c(d2)))
    except OverflowError:
        raise RangeError(f"Gamma ratio ({n1}, {n2}) / ({d1}, {d2}) overflows") from None

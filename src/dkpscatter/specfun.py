"""Complex log-gamma and the Gauss hypergeometric function for the parameter
families this package needs (complex parameters, real argument z < 1)."""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import _kernels
from .errors import (
    DegenerateParametersError,
    DkpScatterError,
    IllConditionedError,
    InvalidParameterError,
    PoleError,
    RangeError,
)

__all__ = ["log_gamma", "hyp2f1"]

# Largest cancellation figure hyp2f1 returns a value for: about ten digits.
MAX_CANCELLATION = 1e6


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Valid on the complex plane off the nonpositive integers; values on the
    negative real axis follow the limit from the upper half plane.  Satisfies
    log_gamma(z+1) = log_gamma(z) + Log(z) with the principal Log.

    Raises InvalidParameterError for a non-finite z, PoleError at the
    nonpositive integers, and RangeError where the value is not finite (from
    |z| of about 1e306 on).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidParameterError(f"log_gamma argument must be finite, got {z}")
    if _kernels._near_nonpositive_int(z):
        raise PoleError(f"log_gamma pole at z={z}")
    value = _kernels.lgamma_c(z)
    if not cmath.isfinite(value):
        raise RangeError(f"log_gamma({z}) overflows")
    return value


@np.errstate(all="ignore")
def _hyp2f1_batch(a: complex, b: complex, c: complex, z: np.ndarray
                  ) -> tuple[np.ndarray, tuple[int, DkpScatterError] | None]:
    """:func:`hyp2f1` at every z of a real array, with the Gamma ratios of the
    far side evaluated once.

    Returns the values and, if hyp2f1 raises at some z, the index of the first
    such z together with the error hyp2f1 raises there (values from that index
    on are meaningless); otherwise None.  Each value is bit-identical to the
    batch of one.  The z run in order, _BLOCK_WIDTH at a time, and no series
    runs at a z past the first failure found so far.
    """
    a, b, c = complex(a), complex(b), complex(c)
    z = np.asarray(z, dtype=float)
    values = np.zeros(z.shape, dtype=complex)
    if z.size and not all(map(cmath.isfinite, (a, b, c))):
        return values, (0, InvalidParameterError(
            f"hyp2f1 parameters must be finite, got ({a}, {b}, {c})"))
    if z.size and _kernels._near_nonpositive_int(c):
        return values, (0, PoleError(f"hyp2f1 parameter c={c} at a pole"))
    # failures are (index, rank, error); the rank orders the checks hyp2f1
    # makes at one z, and the earliest index, then the lowest rank, wins
    failures = [(z.size, 0, None)]
    above = np.flatnonzero(~(np.isfinite(z) & (z < 1.0)))
    if above.size:
        failures.append((above[0], 0, InvalidParameterError(
            f"hyp2f1 argument z={float(z[above[0]])} must be finite and < 1")))
    # terms are (rank, parameters, z indices, arguments, factor): each adds
    # u = factor * F(parameters; argument) to the value at its z
    terms = []
    direct = np.flatnonzero((z > -0.5) & (z < 1.0))
    if direct.size:
        terms.append((3, (a, b, c), direct, z[direct], None))
    pfaff = np.flatnonzero((z >= -1.0) & (z <= -0.5))
    if pfaff.size:
        zp = z[pfaff]
        terms.append((3, (a, c - b, c), pfaff, zp / (zp - 1.0),
                      np.exp(-a * np.log(1.0 - zp))))
    far = np.flatnonzero(~(z >= -1.0))
    if far.size:
        # u = Gamma ratio * (1-z)^-p * F(p, c-q; 1-q+p; 1/(1-z)) for (p, q) =
        # (a, b) and (b, a) (DLMF 15.8.3); each fails after its own pole or
        # overflowing ratio
        d = a - b
        if abs(d.imag) <= 1e-12 and abs(d.real - round(d.real)) <= 1e-12:
            failures.append((far[0], 1, DegenerateParametersError(
                f"hyp2f1 inversion needs nonintegral a-b, got {d}")))
        else:
            gap = 1.0 - z[far]
            for rank, (p, q) in ((2, (a, b)), (4, (b, a))):
                try:
                    ratio = _kernels._coeff_ratio(c, q - p, q, c - p)
                except (PoleError, RangeError) as exc:
                    failures.append((far[0], rank, exc))
                    break
                if ratio != 0.0:
                    terms.append((rank + 1, (p, c - q, 1.0 - q + p), far,
                                  1.0 / gap, ratio * np.exp(-p * np.log(gap))))
    # the error of the value is cond |u|, summed over its terms; summed is
    # False where a series itself did not stay finite
    spread = np.zeros(z.shape)
    summed = np.ones(z.shape, dtype=bool)
    for lo in range(0, z.size, _kernels._BLOCK_WIDTH):
        hi = min(lo + _kernels._BLOCK_WIDTH, z.size)
        i, r, error = min(failures, key=lambda failure: failure[:2])
        for rank, params, at, w, factor in terms:
            # runs at index j only while (j, rank) is ahead of the earliest (i, r)
            i0, i1 = at.searchsorted((lo, min(hi, i + (rank < r))))
            if i1 > i0:
                f, cond, fail = _kernels.gauss_series(*params, w[i0:i1])
                if fail is not None:  # ahead of every failure so far
                    failures.append((at[i0 + fail[0]], rank, fail[1]))
                    i, r, error = failures[-1]
                u = f if factor is None else factor[i0:i1] * f
                values[at[i0:i1]] += u
                spread[at[i0:i1]] += np.hypot(u.real, u.imag) * cond
                summed[at[i0:i1]] &= np.isfinite(f)
        end = min(hi, i)
        value = values[lo:end]
        figures = np.where(value != 0, spread[lo:end]
                           / np.hypot(value.real, value.imag), math.inf)
        # a NaN figure fails the guard too
        bad = np.flatnonzero(~np.isfinite(value) | ~(figures <= MAX_CANCELLATION))
        if bad.size:
            i = lo + int(bad[0])
            zi = float(z[i])
            why = "" if summed[i] else ": its Gauss series cannot be summed in doubles"
            error = RangeError(f"hyp2f1({a}, {b}, {c}, {zi}) overflows{why}") \
                if not np.isfinite(values[i]) else IllConditionedError(
                    f"hyp2f1({a}, {b}, {c}, {zi}) loses digits to cancellation "
                    f"(figure {figures[bad[0]]:.1e} > {MAX_CANCELLATION:.0e})")
        if i < hi:
            return values, (int(i), error)
    return values, None


def hyp2f1(a: complex, b: complex, c: complex, z: float) -> complex:
    """Gauss hypergeometric F(a, b; c; z) for real z < 1.

    Every branch sums one or two terms u = factor * F(a', b'; c'; w), each
    a Gauss series: the direct series at w = z for z in (-0.5, 1); the Pfaff
    map, w = z/(z-1) in [1/3, 1/2], on [-1, -0.5]; and for z < -1 the
    two-term connection formula at w = 1/(1-z) in (0, 1/2), with factors
    Gamma ratio * (1-z)^-p (DLMF 15.8.3), which requires a - b away from the
    integers (DegenerateParametersError otherwise).  c at a nonpositive
    integer raises PoleError; a non-finite parameter, or a z that is not a
    finite number below 1, raises InvalidParameterError; a series that does
    not converge raises NonConvergenceError.

    Raises IllConditionedError when cancellation, within a series or between
    the two terms, would leave fewer than about ten correct digits, and
    RangeError when the value overflows, its message saying so where a Gauss
    series itself cannot be summed in doubles.  The cancellation figure is
    sum |u| cond / |sum u| over the terms u, cond being each series' own
    figure; above MAX_CANCELLATION it raises.
    """
    values, failure = _hyp2f1_batch(a, b, c, np.array([float(z)]))
    if failure is not None:
        raise failure[1]
    return complex(values[0])

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

    Raises PoleError at the nonpositive integers.
    """
    z = complex(z)
    if _kernels._near_nonpositive_int(z):
        raise PoleError(f"log_gamma pole at z={z}")
    return _kernels.lgamma_c(z)


@np.errstate(all="ignore")
def _hyp2f1_batch(a: complex, b: complex, c: complex, z: np.ndarray
                  ) -> tuple[np.ndarray, tuple[int, DkpScatterError] | None]:
    """:func:`hyp2f1` at every z of a real array, with the Gamma ratios of the
    inversion evaluated once.

    Returns the values and, if hyp2f1 raises at some z, the index of the first
    such z together with the error hyp2f1 raises there (values from that index
    on are meaningless); otherwise None.  Each value is bit-identical to the
    batch of one.  The z run in order, _BLOCK_WIDTH at a time, and no series
    runs at a z past the first failure found so far.
    """
    a, b, c = complex(a), complex(b), complex(c)
    z = np.asarray(z, dtype=float)
    values = np.full(z.shape, complex(math.nan, math.nan))
    if z.size and _kernels._near_nonpositive_int(c):
        return values, (0, PoleError(f"hyp2f1 parameter c={c} at a pole"))
    # failures are (index, rank, error); the rank orders the checks hyp2f1
    # makes at one z, and the earliest index, then the lowest rank, wins
    failures = [(z.size, 0, None)]
    above = np.flatnonzero(z >= 1.0)
    if above.size:
        failures.append((above[0], 0, InvalidParameterError(
            f"hyp2f1 argument z={float(z[above[0]])} not < 1")))
    # series are (rank, kernel, parameters, z indices, arguments, factor)
    series = []

    def add(rank, params, at, w, factor=None):
        # Gauss on (-0.5, 1), Pfaff on [-1, -0.5] (mapped argument in [1/3, 1/2])
        for kernel, where in ((_kernels.gauss_series, w > -0.5),
                              (_kernels.pfaff_series, ~(w > -0.5))):
            series.append((rank, kernel, params, at[where], w[where],
                           None if factor is None else factor[where]))

    near = np.flatnonzero((z >= -1.0) & (z < 1.0))
    add(3, (a, b, c), near, z[near])
    far = np.flatnonzero(~(z >= -1.0))
    if far.size:
        # u = Gamma ratio * (-z)^-p * F(p, 1-c+p; 1-q+p; 1/z) for (p, q) =
        # (a, b) and (b, a); each fails after its own pole or overflowing ratio
        d = a - b
        if abs(d.imag) <= 1e-12 and abs(d.real - round(d.real)) <= 1e-12:
            failures.append((far[0], 1, DegenerateParametersError(
                f"hyp2f1 inversion needs nonintegral a-b, got {d}")))
        else:
            zf = z[far]
            for rank, (p, q) in ((2, (a, b)), (4, (b, a))):
                try:
                    ratio = _kernels._coeff_ratio(c, q - p, q, c - p)
                except (PoleError, RangeError) as exc:
                    failures.append((far[0], rank, exc))
                    break
                if ratio != 0.0:
                    add(rank + 1, (p, 1.0 - c + p, 1.0 - q + p), far, 1.0 / zf,
                        ratio * np.exp(-p * np.log(-zf)))
    # the error of the inversion is cond |u|, summed over both terms
    values[far] = 0.0
    spread = np.zeros(z.shape)
    figures = np.zeros(z.shape)
    for lo in range(0, z.size, _kernels._BLOCK_WIDTH):
        hi = min(lo + _kernels._BLOCK_WIDTH, z.size)
        i, r, error = min(failures, key=lambda failure: failure[:2])
        for rank, kernel, params, at, w, factor in series:
            # runs at index j only while (j, rank) is ahead of the earliest (i, r)
            i0, i1 = at.searchsorted((lo, min(hi, i + (rank < r))))
            if i1 > i0:
                f, cond, fail = kernel(*params, w[i0:i1])
                if fail is not None:  # ahead of every failure so far
                    failures.append((at[i0 + fail[0]], rank, fail[1]))
                    i, r, error = failures[-1]
                if factor is None:
                    values[at[i0:i1]], figures[at[i0:i1]] = f, cond
                else:
                    u = factor[i0:i1] * f
                    values[at[i0:i1]] += u
                    spread[at[i0:i1]] += np.hypot(u.real, u.imag) * cond
        inverted = far[slice(*far.searchsorted((lo, hi)))]
        if inverted.size:
            value = values[inverted]
            modulus = np.hypot(value.real, value.imag)
            figures[inverted] = np.where(value != 0, spread[inverted] / modulus,
                                         math.inf)
        # a NaN figure fails the guard too
        bad = np.flatnonzero(~np.isfinite(values[lo:min(hi, i)])
                             | ~(figures[lo:min(hi, i)] <= MAX_CANCELLATION))
        if bad.size:
            i = lo + int(bad[0])
            value, cond, zi = complex(values[i]), float(figures[i]), float(z[i])
            error = RangeError(f"hyp2f1({a}, {b}, {c}, {zi}) overflows") \
                if not cmath.isfinite(value) else IllConditionedError(
                    f"hyp2f1({a}, {b}, {c}, {zi}) loses digits to cancellation "
                    f"(figure {cond:.1e} > {MAX_CANCELLATION:.0e})")
        if i < hi:
            return values, (int(i), error)
    return values, None


def hyp2f1(a: complex, b: complex, c: complex, z: float) -> complex:
    """Gauss hypergeometric F(a, b; c; z) for real z < 1.

    Direct series for z in (-0.5, 1); Pfaff transformation on [-1, -0.5];
    argument inversion z -> 1/z for z < -1, whose inner arguments land back
    in [-1, 0).  The inversion requires a - b away from the integers
    (DegenerateParametersError otherwise); c at a nonpositive integer raises
    PoleError; z >= 1 is out of domain; a series that does not converge
    raises NonConvergenceError.

    Raises IllConditionedError when cancellation, within a series or between
    the two inversion terms, would leave fewer than about ten correct digits
    (a cancellation figure above MAX_CANCELLATION), and RangeError when the
    value overflows.
    """
    values, failure = _hyp2f1_batch(a, b, c, np.array([float(z)]))
    if failure is not None:
        raise failure[1]
    return complex(values[0])

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
    NonConvergenceError,
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


def _series(a: complex, b: complex, c: complex,
            z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # z in [-1, 1): Pfaff on [-1, -0.5], whose mapped argument is in [1/3, 1/2]
    values = np.empty(z.shape, dtype=complex)
    figures = np.empty(z.shape)
    direct = z > -0.5
    values[direct], figures[direct] = _kernels.gauss_series(a, b, c, z[direct])
    values[~direct], figures[~direct] = _kernels.pfaff_series(a, b, c, z[~direct])
    return values, figures


def _hyp2f1_batch(a: complex, b: complex, c: complex, z: np.ndarray
                  ) -> tuple[np.ndarray, tuple[int, DkpScatterError] | None]:
    """:func:`hyp2f1` at every z of a real array, with the Gamma ratios of the
    inversion evaluated once.

    Returns the values and, if hyp2f1 raises at some z, the index of the first
    such z together with the error hyp2f1 raises there (values from that index
    on are meaningless); otherwise None.  Each value is bit-identical to the
    batch of one.
    """
    a, b, c = complex(a), complex(b), complex(c)
    z = np.asarray(z, dtype=float)
    try:
        with np.errstate(all="ignore"):
            return _evaluate(a, b, c, z)
    except NonConvergenceError as exc:
        if z.size == 1:
            return np.full(1, complex(math.nan, math.nan)), (0, exc)
    # some series did not converge: one z at a time finds the first failure
    values = np.full(z.shape, complex(math.nan, math.nan))
    for i in range(z.size):
        value, failure = _hyp2f1_batch(a, b, c, z[i:i + 1])
        if failure is not None:
            return values, (i, failure[1])
        values[i] = value[0]
    return values, None


def _evaluate(a: complex, b: complex, c: complex, z: np.ndarray
              ) -> tuple[np.ndarray, tuple[int, DkpScatterError] | None]:
    # failures are (index, rank, error); the rank orders the checks hyp2f1
    # makes at one z, and the earliest index, then the lowest rank, wins
    values = np.full(z.shape, complex(math.nan, math.nan))
    if z.size and _kernels._near_nonpositive_int(c):
        return values, (0, PoleError(f"hyp2f1 parameter c={c} at a pole"))
    failures = []
    above = np.flatnonzero(z >= 1.0)
    if above.size:
        failures.append((above[0], 0, InvalidParameterError(
            f"hyp2f1 argument z={float(z[above[0]])} not < 1")))
    figures = np.zeros(z.shape)
    near = (z >= -1.0) & (z < 1.0)
    values[near], figures[near] = _series(a, b, c, z[near])
    far = ~(z >= -1.0)
    if far.any():
        first = np.flatnonzero(far)[0]
        d = a - b
        if abs(d.imag) <= 1e-12 and abs(d.real - round(d.real)) <= 1e-12:
            failures.append((first, 1, DegenerateParametersError(
                f"hyp2f1 inversion needs nonintegral a-b, got {d}")))
        else:
            # u = Gamma ratio * (-z)^-p * F(p, 1-c+p; 1-q+p; 1/z) for (p, q) =
            # (a, b) and (b, a); its error is cond |u|, summed over both terms
            zf = z[far]
            value = np.zeros(zf.shape, dtype=complex)
            spread = np.zeros(zf.shape)
            for rank, (p, q) in ((2, (a, b)), (3, (b, a))):
                try:
                    ratio = _kernels._coeff_ratio(c, q - p, q, c - p)
                except PoleError as exc:
                    failures.append((first, rank, exc))
                    break
                if ratio != 0.0:
                    f, cond = _series(p, 1.0 - c + p, 1.0 - q + p, 1.0 / zf)
                    u = ratio * np.exp(-p * np.log(-zf)) * f
                    value += u
                    spread += np.hypot(u.real, u.imag) * cond
            values[far] = value
            modulus = np.hypot(value.real, value.imag)
            figures[far] = np.where(value != 0, spread / modulus, math.inf)
    # a NaN figure fails the guard too
    bad = np.flatnonzero(~np.isfinite(values) | ~(figures <= MAX_CANCELLATION))
    if bad.size:
        i = bad[0]
        value, cond, zi = complex(values[i]), float(figures[i]), float(z[i])
        if not cmath.isfinite(value):
            failures.append((i, 4, RangeError(
                f"hyp2f1({a}, {b}, {c}, {zi}) overflows")))
        else:
            failures.append((i, 4, IllConditionedError(
                f"hyp2f1({a}, {b}, {c}, {zi}) loses digits to cancellation "
                f"(figure {cond:.1e} > {MAX_CANCELLATION:.0e})")))
    if not failures:
        return values, None
    i, _, error = min(failures, key=lambda failure: failure[:2])
    return values, (int(i), error)


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

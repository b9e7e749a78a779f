"""Complex log-gamma and the Gauss hypergeometric function for the parameter
families this package needs (complex parameters, real argument z < 1)."""

from __future__ import annotations

import cmath
import math

from . import _kernels
from .errors import (
    DegenerateParametersError,
    IllConditionedError,
    InvalidParameterError,
    PoleError,
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
            z: float) -> tuple[complex, float]:
    # z in [-1, 1): Pfaff on [-1, -0.5], whose mapped argument is in [1/3, 1/2]
    if z > -0.5:
        return _kernels.gauss_series(a, b, c, z)
    return _kernels.pfaff_series(a, b, c, z)


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
    (a cancellation figure above MAX_CANCELLATION).
    """
    a, b, c = complex(a), complex(b), complex(c)
    z = float(z)
    if _kernels._near_nonpositive_int(c):
        raise PoleError(f"hyp2f1 parameter c={c} at a pole")
    if z >= 1.0:
        raise InvalidParameterError(f"hyp2f1 argument z={z} not < 1")
    if z >= -1.0:
        value, cond = _series(a, b, c, z)
    else:
        d = a - b
        if abs(d.imag) <= 1e-12 and abs(d.real - round(d.real)) <= 1e-12:
            raise DegenerateParametersError(
                f"hyp2f1 inversion needs nonintegral a-b, got {d}")
        # u = Gamma ratio * (-z)^-p * F(p, 1-c+p; 1-q+p; 1/z) for (p, q) =
        # (a, b) and (b, a); its error is cond |u|, summed over both terms
        value, spread = 0j, 0.0
        for p, q in ((a, b), (b, a)):
            ratio = _kernels._coeff_ratio(c, q - p, q, c - p)
            if ratio != 0.0:
                f, cond = _series(p, 1.0 - c + p, 1.0 - q + p, 1.0 / z)
                u = ratio * cmath.exp(-p * math.log(-z)) * f
                value += u
                spread += abs(u) * cond
        cond = spread / abs(value) if value else math.inf
    if cond > MAX_CANCELLATION:
        raise IllConditionedError(
            f"hyp2f1({a}, {b}, {c}, {z}) loses digits to cancellation "
            f"(figure {cond:.1e} > {MAX_CANCELLATION:.0e})")
    return value

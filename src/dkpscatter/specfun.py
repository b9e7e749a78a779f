"""Complex log-gamma and the Gauss hypergeometric function for the parameter
families this package needs (complex parameters, real argument z < 1)."""

from __future__ import annotations

from . import _kernels
from .errors import (
    DegenerateParametersError,
    InvalidParameterError,
    NonConvergenceError,
    PoleError,
)

__all__ = ["log_gamma", "hyp2f1"]


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Valid on the complex plane off the nonpositive integers; values on the
    negative real axis follow the limit from the upper half plane.  Satisfies
    log_gamma(z+1) = log_gamma(z) + Log(z) with the principal Log.

    Raises PoleError at the nonpositive integers.
    """
    z = complex(z)
    if _kernels._near_nonpositive_int(z, _kernels.POLE_TOL):
        raise PoleError(f"log_gamma pole at z={z}")
    return _kernels.lgamma_c(z)


def _check_series(value: complex, a: complex, b: complex, c: complex,
                  z: float) -> complex:
    if value != value:  # NaN: term cap hit
        raise NonConvergenceError(
            f"hyp2f1 series did not converge for ({a}, {b}, {c}, {z})")
    return value


def hyp2f1(a: complex, b: complex, c: complex, z: float) -> complex:
    """Gauss hypergeometric F(a, b; c; z) for real z < 1.

    Direct series for |z| <= 0.5 and z in (0.5, 1); Pfaff transformation on
    [-1, -0.5); argument inversion for z < -1.  The inversion requires a - b
    away from the integers (DegenerateParametersError otherwise); c at a
    nonpositive integer raises PoleError; z >= 1 is out of domain.
    """
    a, b, c = complex(a), complex(b), complex(c)
    z = float(z)
    if _kernels._near_nonpositive_int(c, _kernels.POLE_TOL):
        raise PoleError(f"hyp2f1 parameter c={c} at a pole")
    if z >= 1.0:
        raise InvalidParameterError(f"hyp2f1 argument z={z} not < 1")
    if z < -1.0:
        d = a - b
        if abs(d.imag) <= 1e-12 and abs(d.real - round(d.real)) <= 1e-12:
            raise DegenerateParametersError(
                f"hyp2f1 inversion needs nonintegral a-b, got {d}")
    return _check_series(_kernels.hyp2f1_kernel(a, b, c, z), a, b, c, z)


def _direct_series(a: complex, b: complex, c: complex, z: float) -> complex:
    # test hook: force the series path (converges for |z| < 1)
    return _check_series(
        _kernels.gauss_series(complex(a), complex(b), complex(c), float(z)),
        a, b, c, z)


def _pfaff_transform(a: complex, b: complex, c: complex, z: float) -> complex:
    # test hook: force the Pfaff path (mapped argument stays in (-1, 1) for z < 1/2)
    return _check_series(
        _kernels.pfaff_series(complex(a), complex(b), complex(c), float(z)),
        a, b, c, z)

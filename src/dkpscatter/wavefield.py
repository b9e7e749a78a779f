"""Exact interior wavefunctions of the three scattering waves, their
asymptotic plane-wave forms, and consistency residuals between the spinor
components."""

from __future__ import annotations

import cmath
import math
from typing import Literal, NamedTuple, Sequence, get_args

import numpy as np

from .algebra import SpinorTriple
from .errors import InvalidParameterError, RangeError
from .scattering import (
    Particle,
    Potential,
    _incident_kinematics,
    connection_coefficients,
    hypergeometric_parameters,
)
from .specfun import _hyp2f1_batch

__all__ = [
    "Kind",
    "ComponentResiduals",
    "wavefunction",
    "wave_profile",
    "asymptotic_wavefunction",
    "component_residuals",
]

Kind = Literal["incident", "reflected", "transmitted"]

_KINDS = get_args(Kind)

# exp argument cap: keeps e^{2bx} and every power of (1+e^{2bx}) finite
_EXPONENT_CAP = 700.0
# |nu| and |mu| cap (see wave_profile); the waves are 1.6 off mpmath at 1.7e14
_WAVE_NUMBER_CAP = 2.0 ** 40


class ComponentResiduals(NamedTuple):
    r_phi: float
    r_theta: float
    r_kg: float


class _Wave(NamedTuple):
    """One wave, amp e^{2ibkx} (1+u)^lam F(pa, pb; pc; -u) with
    u = e^{2 side b x}; its plane-wave limit amp e^{2ibkx} has phi/psi = w/m."""

    amp: complex
    side: float
    k: complex
    pa: complex
    pb: complex
    pc: complex
    lam: complex
    w: float


def _wave(kind: str, xs: np.ndarray, pot: Potential, particle: Particle,
          energy: float) -> _Wave:
    """The wave's record, after checking the kind, then every x of xs (finite,
    |2bx| <= 700), then the energy (|nu|, |mu| <= 2^40)."""
    if kind not in _KINDS:
        raise InvalidParameterError(
            f"kind must be one of {_KINDS}, got {kind!r}")
    with np.errstate(all="ignore"):
        bad = np.flatnonzero(~np.isfinite(xs)
                             | (np.abs(2.0 * pot.b * xs) > _EXPONENT_CAP))
    if bad.size:
        # the first bad x in order; at one x, non-finite before out of window
        x = float(xs[bad[0]])
        if not math.isfinite(x):
            raise InvalidParameterError("x must be finite")
        raise RangeError(f"|2bx| = {abs(2 * pot.b * x)} exceeds {_EXPONENT_CAP}")
    k = _incident_kinematics(pot, particle, energy)
    if max(abs(k.nu), abs(k.mu)) > _WAVE_NUMBER_CAP:
        raise RangeError(f"|nu| or |mu| above 2^40 at E={energy}: the phases of "
                         f"the waves have lost their digits")
    hp = hypergeometric_parameters(k)
    if kind == "transmitted":
        return _Wave(1.0, -1.0, k.mu, hp.a1, hp.b2, 1.0 + hp.a1 - hp.b1,
                     k.lam, energy - pot.a)
    coeffs = connection_coefficients(k)
    if kind == "incident":
        return _Wave(coeffs.A, 1.0, k.nu, hp.a1, hp.b1, hp.c1, k.lam,
                     energy + pot.a)
    return _Wave(coeffs.C, 1.0, -k.nu, hp.a2, hp.b2, hp.c2, k.lam,
                 energy + pot.a)


def wave_profile(xs: Sequence[float] | np.ndarray, kind: Kind, pot: Potential,
                 particle: Particle, energy: float) -> np.ndarray:
    """The wave at every x of the 1-d array xs, built once: a (3, len(xs))
    complex array whose rows are psi, phi and theta, so that column j is
    :func:`wavefunction` at xs[j], bit for bit.

    Checks the kind, then every x, then the energy, so an invalid x raises
    before any energy error.  Raises RangeError at an x whose column is not
    finite, as a wave that grows past the double range inside the window.
    Below the 2^40 cap the relative error, from the phases of A, C and e^{2ibkx},
    is about 7e-15 max(|nu|, |mu|): 6e-11 at |nu| = 1.7e4, 1e-8 near |nu| = 1e6."""
    xs = np.asarray(xs, dtype=float)
    amp, side, k, pa, pb, pc, lam, _ = _wave(kind, xs, pot, particle, energy)
    b, m = pot.b, particle.m
    u = np.exp(2.0 * side * b * xs)
    f0, failure = _hyp2f1_batch(pa, pb, pc, -u)
    # raise as a loop over x would, F, F1, then the column at one x: F1 stops
    # at F's failure, and the columns at F1's
    f1, failure1 = _hyp2f1_batch(pa + 1, pb + 1, pc + 1, -u[:failure and failure[0]])
    failure = failure1 or failure or (len(xs), None)
    xs, u, f0, f1 = (v[:failure[0]] for v in (xs, u, f0, f1))
    with np.errstate(all="ignore"):
        pref = amp * np.exp(2j * b * k * xs + lam * np.log1p(u))
        bracket = (1j * k + side * lam * (u / (1.0 + u))) * f0 \
            - side * (pa * pb / pc) * u * f1
        psi = pref * f0
        # phi = (E - V) psi / m and theta = (i/m) dpsi/dx
        dpsi = 2.0 * b * pref * bracket
        rows = np.stack((psi, (energy - pot.value(xs)) * psi / m, 1j * dpsi / m))
    finite = np.isfinite(rows).all(axis=0)
    if not finite.all():
        raise RangeError(f"{kind} wave not finite at x={float(xs[finite.argmin()])}")
    if failure[1]:
        raise failure[1]
    return rows


def wavefunction(x: float, kind: Kind, pot: Potential, particle: Particle,
                 energy: float,
                 polarization: np.ndarray | None = None) -> SpinorTriple:
    """Exact solution component (psi, phi, theta) of the requested wave.

    phi = (E - V(x)) psi / m holds identically; theta = (i/m) dpsi/dx is
    evaluated through the exact derivative of the hypergeometric form, not a
    difference quotient.  Valid wherever the incident channel propagates,
    |2bx| <= 700 and |nu|, |mu| <= 2^40; below that cap the relative error
    is about 7e-15 max(|nu|, |mu|) (see wave_profile)."""
    psi, phi, theta = wave_profile((x,), kind, pot, particle, energy)[:, 0].tolist()
    return SpinorTriple(psi, phi, theta, (1.0, 0.0, 0.0)
                        if polarization is None else polarization)


def asymptotic_wavefunction(x: float, kind: Kind, pot: Potential,
                            particle: Particle, energy: float,
                            polarization: np.ndarray | None = None) -> SpinorTriple:
    """Plane-wave limit of the same wave, including its connection-coefficient
    amplitude: A e^{2ib nu x} (incident), C e^{-2ib nu x} (reflected),
    e^{2ib mu x} (transmitted).  The middle component carries (E -+ a)/m on
    the incident/transmitted side.  Raises RangeError where it is not finite."""
    wave = _wave(kind, np.array([x], dtype=float), pot, particle, energy)
    b, m = pot.b, particle.m
    with np.errstate(all="ignore"):
        psi = complex(wave.amp * np.exp(2j * b * wave.k * x))
    rows = psi, wave.w * psi / m, 1j * (2j * b * wave.k * psi) / m
    if not all(map(cmath.isfinite, rows)):
        raise RangeError(f"{kind} wave not finite at x={x}")
    return SpinorTriple(*rows, (1.0, 0.0, 0.0) if polarization is None else polarization)


def component_residuals(x: float, kind: Kind, pot: Potential,
                        particle: Particle, energy: float,
                        h: float) -> ComponentResiduals:
    """Defects of the inter-component relations at x, with derivatives taken
    by central difference at spacing h:

      r_phi   = |phi - (E - V(x)) psi / m|          (identically zero)
      r_theta = |theta - (i/m) D_h psi|
      r_kg    = |D_h^2 psi + ((E - V(x))^2 - m^2) psi|

    Both difference stencils touch x +- h, so the window guard applies there.
    """
    if not (h > 0 and math.isfinite(h)):
        raise InvalidParameterError(f"h must be positive and finite, got {h}")
    psi, phi, theta = wave_profile((x - h, x, x + h), kind, pot, particle,
                                   energy)
    m = particle.m
    w = energy - pot.value(x)
    r_phi = abs(phi[1] - w * psi[1] / m)
    d1 = (psi[2] - psi[0]) / (2.0 * h)
    r_theta = abs(theta[1] - 1j * d1 / m)
    d2 = (psi[2] - 2.0 * psi[1] + psi[0]) / (h * h)
    r_kg = abs(d2 + (w * w - m * m) * psi[1])
    return ComponentResiduals(float(r_phi), float(r_theta), float(r_kg))

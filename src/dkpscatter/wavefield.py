"""Exact interior wavefunctions of the three scattering waves, their
asymptotic plane-wave forms, and consistency residuals between the spinor
components."""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Literal, NamedTuple, get_args

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


def _wave(kind: str, xs: Iterable[float], pot: Potential, particle: Particle,
          energy: float) -> _Wave:
    """The wave's record, after checking the kind, then every x of xs (finite,
    |2bx| <= 700), then the energy."""
    if kind not in _KINDS:
        raise InvalidParameterError(
            f"kind must be one of {_KINDS}, got {kind!r}")
    for x in xs:
        if not math.isfinite(x):
            raise InvalidParameterError("x must be finite")
        if abs(2.0 * pot.b * x) > _EXPONENT_CAP:
            raise RangeError(
                f"|2bx| = {abs(2 * pot.b * x)} exceeds {_EXPONENT_CAP}")
    k = _incident_kinematics(pot, particle, energy)
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


def _triple(psi: complex, dpsi: complex, w: float, m: float,
            polarization: np.ndarray | None) -> SpinorTriple:
    # phi = w psi / m and theta = (i/m) dpsi/dx
    return SpinorTriple(psi, w * psi / m, 1j * dpsi / m,
                        (1.0, 0.0, 0.0) if polarization is None else polarization)


def wave_profile(xs: Iterable[float], kind: Kind, pot: Potential,
                 particle: Particle, energy: float,
                 polarization: np.ndarray | None = None) -> list[SpinorTriple]:
    """:func:`wavefunction` at every x of xs, with the wave built once.

    Checks the kind, then every x, then the energy, so an invalid x raises
    before any energy error."""
    xs = [float(x) for x in xs]
    amp, side, k, pa, pb, pc, lam, _ = _wave(kind, xs, pot, particle, energy)
    b, m = pot.b, particle.m
    us = [math.exp(2.0 * side * b * x) for x in xs]
    zs = -np.array(us, dtype=float)
    f0s, failure0 = _hyp2f1_batch(pa, pb, pc, zs)
    f1s, failure1 = _hyp2f1_batch(pa + 1, pb + 1, pc + 1, zs)
    # raise as a loop over x would: the earliest x, and F before F1 at one x
    failures = [(f[0], rank, f[1]) for rank, f in enumerate((failure0, failure1))
                if f is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    out = []
    for x, u, f0, f1 in zip(xs, us, f0s.tolist(), f1s.tolist()):
        pref = amp * cmath.exp(2j * b * k * x + lam * math.log1p(u))
        bracket = (1j * k + side * lam * (u / (1.0 + u))) * f0 \
            - side * (pa * pb / pc) * u * f1
        out.append(_triple(pref * f0, 2.0 * b * pref * bracket,
                           energy - pot.value(x), m, polarization))
    return out


def wavefunction(x: float, kind: Kind, pot: Potential, particle: Particle,
                 energy: float,
                 polarization: np.ndarray | None = None) -> SpinorTriple:
    """Exact solution component (psi, phi, theta) of the requested wave.

    phi = (E - V(x)) psi / m holds identically; theta = (i/m) dpsi/dx is
    evaluated through the exact derivative of the hypergeometric form, not a
    difference quotient.  Valid wherever the incident channel propagates and
    |2bx| <= 700.
    """
    return wave_profile((x,), kind, pot, particle, energy, polarization)[0]


def asymptotic_wavefunction(x: float, kind: Kind, pot: Potential,
                            particle: Particle, energy: float,
                            polarization: np.ndarray | None = None) -> SpinorTriple:
    """Plane-wave limit of the same wave, including its connection-coefficient
    amplitude: A e^{2ib nu x} (incident), C e^{-2ib nu x} (reflected),
    e^{2ib mu x} (transmitted).  The middle component carries (E -+ a)/m on
    the incident/transmitted side respectively."""
    wave = _wave(kind, (x,), pot, particle, energy)
    b = pot.b
    psi = wave.amp * cmath.exp(2j * b * wave.k * x)
    return _triple(psi, 2j * b * wave.k * psi, wave.w, particle.m, polarization)


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
    minus, mid, plus = wave_profile((x - h, x, x + h), kind, pot, particle,
                                    energy)
    m = particle.m
    w = energy - pot.value(x)
    r_phi = abs(mid.phi - w * mid.psi / m)
    d1 = (plus.psi - minus.psi) / (2.0 * h)
    r_theta = abs(mid.theta - 1j * d1 / m)
    d2 = (plus.psi - 2.0 * mid.psi + minus.psi) / (h * h)
    r_kg = abs(d2 + (w * w - m * m) * mid.psi)
    return ComponentResiduals(r_phi, r_theta, r_kg)

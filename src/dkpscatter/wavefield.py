"""Exact interior wavefunctions of the three scattering waves, their
asymptotic plane-wave forms, and consistency residuals between the spinor
components."""

from __future__ import annotations

import cmath
import math
from typing import Literal, NamedTuple, get_args

import numpy as np

from .algebra import SpinorTriple
from .errors import InvalidParameterError, RangeError
from .scattering import (
    KinematicParams,
    Particle,
    Potential,
    _incident_kinematics,
    connection_coefficients,
    hypergeometric_parameters,
)
from .specfun import hyp2f1

__all__ = [
    "Kind",
    "ComponentResiduals",
    "wavefunction",
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


def _check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise InvalidParameterError(
            f"kind must be one of {_KINDS}, got {kind!r}")
    return kind


def _check_window(x: float, pot: Potential) -> None:
    if not math.isfinite(x):
        raise InvalidParameterError("x must be finite")
    if abs(2.0 * pot.b * x) > _EXPONENT_CAP:
        raise RangeError(
            f"|2bx| = {abs(2 * pot.b * x)} exceeds {_EXPONENT_CAP}")


def _scalar_parts(kind: str, x: float, pot: Potential, energy: float,
                  k: KinematicParams) -> tuple[complex, complex]:
    """(psi, dpsi/dx) of the requested wave at x."""
    b = pot.b
    hp = hypergeometric_parameters(k)
    lam = k.lam
    if kind == "transmitted":
        t = math.exp(-2.0 * b * x)
        at, bt, ct = hp.a1, hp.b2, 1.0 + hp.a1 - hp.b1
        pref = cmath.exp(2j * b * k.mu * x + lam * math.log1p(t))
        f0 = hyp2f1(at, bt, ct, -t)
        f1 = hyp2f1(at + 1, bt + 1, ct + 1, -t)
        psi = pref * f0
        bracket = (1j * k.mu - lam * (t / (1.0 + t))) * f0 \
            + (at * bt / ct) * t * f1
        return psi, 2.0 * b * pref * bracket

    coeffs = connection_coefficients(k)
    s = math.exp(2.0 * b * x)
    frac = s / (1.0 + s)
    if kind == "incident":
        amp, sgn, (pa, pb, pc) = coeffs.A, 1.0, (hp.a1, hp.b1, hp.c1)
    else:
        amp, sgn, (pa, pb, pc) = coeffs.C, -1.0, (hp.a2, hp.b2, hp.c2)
    pref = amp * cmath.exp(sgn * 2j * b * k.nu * x + lam * math.log1p(s))
    f0 = hyp2f1(pa, pb, pc, -s)
    f1 = hyp2f1(pa + 1, pb + 1, pc + 1, -s)
    psi = pref * f0
    bracket = (sgn * 1j * k.nu + lam * frac) * f0 - (pa * pb / pc) * s * f1
    return psi, 2.0 * b * pref * bracket


def _triple(psi: complex, dpsi: complex, x: float, pot: Potential,
            particle: Particle, energy: float,
            polarization: np.ndarray | None) -> SpinorTriple:
    m = particle.m
    phi = (energy - pot.value(x)) * psi / m
    theta = 1j * dpsi / m
    if polarization is None:
        return SpinorTriple(psi, phi, theta)
    return SpinorTriple(psi, phi, theta, polarization)


def wavefunction(x: float, kind: Kind, pot: Potential, particle: Particle,
                 energy: float,
                 polarization: np.ndarray | None = None) -> SpinorTriple:
    """Exact solution component (psi, phi, theta) of the requested wave.

    phi = (E - V(x)) psi / m holds identically; theta = (i/m) dpsi/dx is
    evaluated through the exact derivative of the hypergeometric form, not a
    difference quotient.  Valid wherever the incident channel propagates and
    |2bx| <= 700.
    """
    _check_kind(kind)
    _check_window(x, pot)
    k = _incident_kinematics(pot, particle, energy)
    psi, dpsi = _scalar_parts(kind, x, pot, energy, k)
    return _triple(psi, dpsi, x, pot, particle, energy, polarization)


def asymptotic_wavefunction(x: float, kind: Kind, pot: Potential,
                            particle: Particle, energy: float,
                            polarization: np.ndarray | None = None) -> SpinorTriple:
    """Plane-wave limit of the same wave, including its connection-coefficient
    amplitude: A e^{2ib nu x} (incident), C e^{-2ib nu x} (reflected),
    e^{2ib mu x} (transmitted).  The middle component carries (E -+ a)/m on
    the incident/transmitted side respectively."""
    _check_kind(kind)
    _check_window(x, pot)
    k = _incident_kinematics(pot, particle, energy)
    b, m = pot.b, particle.m
    if kind == "transmitted":
        pref = cmath.exp(2j * b * k.mu * x)
        w = energy - pot.a
        kx = 2.0 * b * k.mu
    else:
        coeffs = connection_coefficients(k)
        w = energy + pot.a
        if kind == "incident":
            pref = coeffs.A * cmath.exp(2j * b * k.nu * x)
            kx = 2.0 * b * k.nu
        else:
            pref = coeffs.C * cmath.exp(-2j * b * k.nu * x)
            kx = -2.0 * b * k.nu
    psi = pref
    phi = (w / m) * pref
    theta = -(kx / m) * pref  # (i/m) d/dx of a plane wave
    if polarization is None:
        return SpinorTriple(psi, phi, theta)
    return SpinorTriple(psi, phi, theta, polarization)


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
    mid = wavefunction(x, kind, pot, particle, energy)
    plus = wavefunction(x + h, kind, pot, particle, energy)
    minus = wavefunction(x - h, kind, pot, particle, energy)
    m = particle.m
    w = energy - pot.value(x)
    r_phi = abs(mid.phi - w * mid.psi / m)
    d1 = (plus.psi - minus.psi) / (2.0 * h)
    r_theta = abs(mid.theta - 1j * d1 / m)
    d2 = (plus.psi - 2.0 * mid.psi + minus.psi) / (h * h)
    r_kg = abs(d2 + (w * w - m * m) * mid.psi)
    return ComponentResiduals(r_phi, r_theta, r_kg)

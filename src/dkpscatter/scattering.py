"""Plane-wave scattering of a spin-one particle on the smooth step
V(x) = a tanh(bx): kinematic parameters, connection coefficients, reflection
and transmission, and the sharp-step limit."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import _kernels
from .errors import (
    BoundaryEnergyError,
    ChannelClosedError,
    EvanescentIncidentError,
    InvalidParameterError,
)

__all__ = [
    "Potential",
    "Particle",
    "Region",
    "KinematicParams",
    "HypergeometricParams",
    "ConnectionCoefficients",
    "ScatteringResult",
    "Currents",
    "StepRT",
    "critical_energies",
    "boundary_eps",
    "kinematics",
    "classify_region",
    "hypergeometric_parameters",
    "connection_coefficients",
    "scattering_coefficients",
    "currents",
    "step_rt",
]

_DEFAULT_BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class Potential:
    """Smooth step V(x) = a tanh(bx); height parameter a, steepness b > 0."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidParameterError("potential parameters must be finite")
        if self.b <= 0:
            raise InvalidParameterError(f"steepness b must be positive, got {self.b}")

    def value(self, x: float) -> float:
        return self.a * math.tanh(self.b * x)


@dataclass(frozen=True)
class Particle:
    """Massive spin-one particle, m > 0."""

    m: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.m) or self.m <= 0:
            raise InvalidParameterError(f"mass must be positive, got {self.m}")


class Region(Enum):
    """Energy bands of the scattering problem, labelled by the reality pattern
    of the asymptotic momenta."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    BOUNDARY = "boundary"

    @property
    def token(self) -> str:
        return self.value


class KinematicParams(NamedTuple):
    """Asymptotic wave numbers (over 2b) and the interior exponent.

    nu and mu are real (as complex with zero imaginary part) in propagating
    channels, positive-imaginary in evanescent ones; the sign of a real nu
    (mu) follows the sign of E + a (E - a).  lam is 1/2 + imaginary part for
    b < 2|a|, real in (1/2, 1] otherwise.
    """

    nu: complex
    mu: complex
    lam: complex

    @property
    def alpha(self) -> complex:
        return 1j * self.nu

    @property
    def gamma(self) -> complex:
        return 1j * self.mu


class HypergeometricParams(NamedTuple):
    a1: complex
    b1: complex
    c1: complex
    a2: complex
    b2: complex
    c2: complex


class ConnectionCoefficients(NamedTuple):
    A: complex
    B: complex
    C: complex
    D: complex


@dataclass(frozen=True)
class ScatteringResult:
    energy: float
    region: Region
    R: float
    T: float
    unitarity_defect: float


class Currents(NamedTuple):
    incident: float
    reflected: float
    transmitted: float


class StepRT(NamedTuple):
    k_incident: float
    k_transmitted: float
    R: float
    T: float


def critical_energies(pot: Potential, particle: Particle) -> tuple[float, ...]:
    """The four channel thresholds +-a +- m, sorted ascending."""
    a, m = pot.a, particle.m
    return tuple(sorted((-a - m, -a + m, a - m, a + m)))


def boundary_eps() -> float:
    """Guard half-width around the critical energies.  Overridable through
    the environment variable DKP_EPS_BOUNDARY; read on every call."""
    raw = os.environ.get("DKP_EPS_BOUNDARY", "")
    if raw.strip():
        try:
            val = float(raw)
        except ValueError:
            raise InvalidParameterError(
                f"DKP_EPS_BOUNDARY is not a number: {raw!r}") from None
        if not (0 < val < 1):
            raise InvalidParameterError(
                f"DKP_EPS_BOUNDARY out of range (0, 1): {val}")
        return val
    return _DEFAULT_BOUNDARY_EPS


def _half_wavenumber(excess: float, scale: float) -> complex:
    # sqrt(excess^2-ish)/(2b) with the sign/branch convention of the docstring
    if excess > 0:
        return complex(math.copysign(math.sqrt(excess), scale), 0.0)
    return complex(0.0, math.sqrt(-excess))


def kinematics(pot: Potential, particle: Particle, energy: float) -> KinematicParams:
    """nu, mu, lam for the given configuration.  Purely algebraic; no
    boundary guard is applied here."""
    a, b, m = pot.a, pot.b, particle.m
    e_plus = energy + a
    e_minus = energy - a
    # (e - m)(e + m) keeps its digits near a threshold, where e*e - m*m cancels
    nu = _half_wavenumber((e_plus - m) * (e_plus + m), e_plus) / (2.0 * b)
    mu = _half_wavenumber((e_minus - m) * (e_minus + m), e_minus) / (2.0 * b)
    disc = b * b - 4.0 * a * a
    if disc >= 0:
        lam = complex((b + math.sqrt(disc)) / (2.0 * b), 0.0)
    else:
        lam = complex(0.5, math.sqrt(-disc) / (2.0 * b))
    return KinematicParams(nu, mu, lam)


def classify_region(pot: Potential, particle: Particle, energy: float) -> Region:
    """Band label for the energy.

    BOUNDARY within boundary_eps() of a channel threshold, and for the band
    where both channels are evanescent (possible only for |a| < m).  Otherwise
    the label follows the reality pattern of (nu, mu): both real and above all
    thresholds I, below all V, between III; only mu imaginary II; only nu
    imaginary IV.
    """
    crits = critical_energies(pot, particle)
    eps = boundary_eps()
    for ec in crits:
        if abs(energy - ec) <= eps:
            return Region.BOUNDARY
    a, m = pot.a, particle.m
    nu_open = (energy + a) ** 2 > m * m
    mu_open = (energy - a) ** 2 > m * m
    if nu_open and mu_open:
        if energy > crits[-1]:
            return Region.I
        if energy < crits[0]:
            return Region.V
        return Region.III
    if nu_open:
        return Region.II
    if mu_open:
        return Region.IV
    return Region.BOUNDARY


def hypergeometric_parameters(k: KinematicParams) -> HypergeometricParams:
    """Parameter pairs of the two interior solutions about the left wall."""
    al, ga, lam = k.alpha, k.gamma, k.lam
    return HypergeometricParams(
        a1=al + lam - ga,
        b1=al + lam + ga,
        c1=1.0 + 2.0 * al,
        a2=-al + lam + ga,
        b2=-al + lam - ga,
        c2=1.0 - 2.0 * al,
    )


def connection_coefficients(k: KinematicParams) -> ConnectionCoefficients:
    """Matching coefficients of the incident-side expansion onto the
    transmitted solution.  B and D obey B = A b1/c1 and D = C a2/c2.

    Each is a ratio of Gamma functions evaluated in the log domain; a
    shared argument cancels exactly, so for a = 0 A = 1 and C = 0 exactly.
    Raises PoleError when a numerator argument is at a pole."""
    hp = hypergeometric_parameters(k)
    a_num, a_den = 1.0 - hp.b1 + hp.a1, 1.0 - hp.c1 + hp.a1
    c_num, c_den = 1.0 - hp.a2 + hp.b2, 1.0 - hp.c2 + hp.b2
    return ConnectionCoefficients(
        A=_kernels._coeff_ratio(a_num, 1.0 - hp.c1, a_den, 1.0 - hp.b1),
        B=_kernels._coeff_ratio(a_num, -hp.c1, a_den, -hp.b1),
        C=_kernels._coeff_ratio(c_num, 1.0 - hp.c2, c_den, 1.0 - hp.a2),
        D=_kernels._coeff_ratio(c_num, -hp.c2, c_den, -hp.a2),
    )


_TWO_PI = 2.0 * math.pi


def _propagating_rt(k: KinematicParams, a: float,
                    b: float) -> tuple[float, float]:
    """R and T for real nu and mu on the step a tanh(bx).

    R = |C/A|^2 and T = (mu/nu)/|A|^2 reduce, through |Gamma(1+iy)|^2 =
    pi y/sinh(pi y), |Gamma(1/2+iy)|^2 = pi/cosh(pi y) and Gamma(s)Gamma(1-s)
    = pi/sin(pi s) (DLMF 5.4.3, 5.4.4, 5.5.3), to

        S = sin^2(pi lam)   (= cosh^2(pi kappa) for lam = 1/2 + i kappa)
        R = (S + sinh^2 pi(nu - mu)) / (S + sinh^2 pi(nu + mu))
        T = sinh(2 pi nu) sinh(2 pi mu) / (S + sinh^2 pi(nu + mu)).

    With p = |nu|, q = |mu|, sinh^2 pi(nu +- mu) is sinh^2 pi(p + q) or
    sinh^2 pi(p - q) by the relative sign of nu and mu.  Every term is
    multiplied by 4 exp(-2 pi big), big = max(p + q, kappa), so nothing
    overflows, and the exponent of the p - q term is taken as p + q - 2
    min(p, q), so that both sinh terms and T share one scale factor and
    R + T = 1 holds to rounding.  For a = 0 (lam = 1, nu = mu) R = 0 and
    T = 1 come out exactly."""
    nu, mu, kappa = k.nu.real, k.mu.real, k.lam.imag
    p, q = abs(nu), abs(mu)
    big = max(p + q, kappa)
    scale = math.exp(_TWO_PI * (p + q - big))
    e_sum = math.expm1(-_TWO_PI * (p + q))
    e_diff = math.expm1(-_TWO_PI * abs(p - q))
    sh_sum = scale * e_sum * e_sum
    sh_diff = scale * math.exp(-2.0 * _TWO_PI * min(p, q)) * e_diff * e_diff
    # |sinh(2 pi nu) sinh(2 pi mu)| on the same scale
    prod = scale * math.expm1(-2.0 * _TWO_PI * p) \
        * math.expm1(-2.0 * _TWO_PI * q)
    if kappa:
        s = math.exp(_TWO_PI * (kappa - big)) \
            * (1.0 + math.exp(-_TWO_PI * kappa)) ** 2
    else:
        # 1 - lam without the cancellation of a lam rounded near 1 (b >> a);
        # exactly 0 for a = 0
        one_minus_lam = 2.0 * a * a / (b * (b + math.sqrt(b * b - 4.0 * a * a)))
        s = 4.0 * math.sin(math.pi * one_minus_lam) ** 2 \
            * math.exp(-_TWO_PI * big)
    if (nu < 0.0) == (mu < 0.0):
        den = s + sh_sum
        return (s + sh_diff) / den, prod / den
    den = s + sh_diff
    return (s + sh_sum) / den, -prod / den


def scattering_coefficients(pot: Potential, particle: Particle,
                            energy: float) -> ScatteringResult:
    """Reflection and transmission coefficients at the given energy.

    With both channels open, R and T come from the elementary closed form of
    the Gamma ratios (see _propagating_rt).  In the one-evanescent-channel
    bands the result is exact: R = 1, T = 0 (for an imaginary nu this follows
    from the x -> -x mirror, which swaps the channel roles).  Energies inside
    the boundary guard are rejected."""
    region = classify_region(pot, particle, energy)
    if region is Region.BOUNDARY:
        raise BoundaryEnergyError(
            f"E={energy} within {boundary_eps()} of a channel threshold "
            "(or in the fully evanescent gap)")
    if region in (Region.II, Region.IV):
        return ScatteringResult(energy, region, 1.0, 0.0, 0.0)
    refl, trans = _propagating_rt(kinematics(pot, particle, energy),
                                  pot.a, pot.b)
    return ScatteringResult(energy, region, refl, trans, refl + trans - 1.0)


def currents(pot: Potential, particle: Particle, energy: float) -> Currents:
    """Conserved-current fluxes of the three asymptotic waves:
    j_inc = 6|A|^2 b nu / m, j_ref = -6|C|^2 b nu / m, j_trans = 6 b mu / m
    (zero when the transmitted channel is evanescent).  Requires a
    propagating incident channel."""
    region = classify_region(pot, particle, energy)
    if region is Region.BOUNDARY:
        raise BoundaryEnergyError(f"E={energy} on a channel threshold band")
    k = kinematics(pot, particle, energy)
    if k.nu.imag != 0.0:
        raise EvanescentIncidentError(
            f"incident channel evanescent at E={energy}")
    cc = connection_coefficients(k)
    b_over_m = pot.b / particle.m
    j_inc = 6.0 * abs(cc.A) ** 2 * b_over_m * k.nu.real
    j_ref = -6.0 * abs(cc.C) ** 2 * b_over_m * k.nu.real
    j_trans = 6.0 * b_over_m * k.mu.real if k.mu.imag == 0.0 else 0.0
    return Currents(j_inc, j_ref, j_trans)


def step_rt(a: float, m: float, energy: float) -> StepRT:
    """Sharp-step (b -> infinity) closed form.

    k_incident = sign(E+a) sqrt((E+a)^2 - m^2), likewise k_transmitted with
    E-a; R = ((k_i - k_t)/(k_i + k_t))^2, T = 1 - R.  Raises ChannelClosed
    when either channel is evanescent or exactly at threshold."""
    for name, val in (("a", a), ("m", m), ("energy", energy)):
        if not math.isfinite(val):
            raise InvalidParameterError(f"{name} must be finite")
    if m <= 0:
        raise InvalidParameterError(f"mass must be positive, got {m}")
    disc_i = (energy + a) ** 2 - m * m
    disc_t = (energy - a) ** 2 - m * m
    if disc_i <= 0 or disc_t <= 0:
        raise ChannelClosedError(
            f"sharp-step channels not both open at E={energy}")
    k_i = math.copysign(math.sqrt(disc_i), energy + a)
    k_t = math.copysign(math.sqrt(disc_t), energy - a)
    refl = ((k_i - k_t) / (k_i + k_t)) ** 2
    return StepRT(k_i, k_t, refl, 1.0 - refl)

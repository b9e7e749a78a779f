"""Plane-wave scattering of a spin-one particle on the smooth step
V(x) = a tanh(bx): kinematic parameters, connection coefficients, reflection
and transmission, and the sharp-step limit."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import _kernels
from .errors import (
    BoundaryEnergyError,
    ChannelClosedError,
    EvanescentIncidentError,
    InvalidParameterError,
    RangeError,
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
    "BOUNDARY_EPS",
    "critical_energies",
    "kinematics",
    "classify_region",
    "hypergeometric_parameters",
    "connection_coefficients",
    "scattering_coefficients",
    "currents",
    "step_rt",
]

# Guard half-width around each channel threshold +-a +- m
BOUNDARY_EPS = 1e-9


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
    C: complex


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


def _half_wavenumber(excess: float, scale: float) -> complex:
    # sqrt(excess^2-ish)/(2b) with the sign/branch convention of the docstring
    if excess > 0:
        return complex(math.copysign(math.sqrt(excess), scale), 0.0)
    return complex(0.0, math.sqrt(-excess))


def kinematics(pot: Potential, particle: Particle, energy: float) -> KinematicParams:
    """nu, mu, lam for the given configuration.  Purely algebraic; no
    boundary guard is applied here.  Raises RangeError when b*b underflows,
    since lam needs b*b - 4a*a, which then loses its digits."""
    a, b, m = pot.a, pot.b, particle.m
    if b * b < sys.float_info.min:
        raise RangeError(f"b*b underflows at b={b}")
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


def _band(pot: Potential, particle: Particle,
          energy: float) -> tuple[Region, KinematicParams]:
    """The energy decision of every entry point: band label and kinematics,
    with kinematics computed once.

    The band follows the reality pattern of (nu, mu), whose real parts are
    zero exactly in an evanescent channel: both real with the same sign I
    (positive) or V (negative), opposite signs III, only nu real II, only mu
    real IV.  Raises InvalidParameterError for a non-finite energy,
    RangeError when nu, mu or lam leave the floating-point range, and
    BoundaryEnergyError within BOUNDARY_EPS of a threshold or where neither
    channel propagates (the gap, possible only for |a| < m)."""
    if not math.isfinite(energy):
        raise InvalidParameterError(f"energy must be finite, got {energy}")
    k = kinematics(pot, particle, energy)
    if not all(map(cmath.isfinite, k)):
        raise RangeError(
            f"kinematics out of floating-point range at E={energy}, "
            f"a={pot.a}, b={pot.b}, m={particle.m}")
    nu, mu = k.nu.real, k.mu.real
    if nu and mu:
        if (nu > 0.0) != (mu > 0.0):
            region = Region.III
        else:
            region = Region.I if nu > 0.0 else Region.V
    elif nu:
        region = Region.II
    elif mu:
        region = Region.IV
    else:
        region = Region.BOUNDARY
    for ec in critical_energies(pot, particle):
        if abs(energy - ec) <= BOUNDARY_EPS:
            region = Region.BOUNDARY
    if region is Region.BOUNDARY:
        raise BoundaryEnergyError(
            f"E={energy} within {BOUNDARY_EPS} of a channel threshold "
            "(or in the fully evanescent gap)")
    return region, k


def _incident_kinematics(pot: Potential, particle: Particle,
                         energy: float) -> KinematicParams:
    """Kinematics at an energy whose incident channel propagates."""
    region, k = _band(pot, particle, energy)
    if region is Region.IV:
        raise EvanescentIncidentError(
            f"incident channel evanescent at E={energy}")
    return k


def classify_region(pot: Potential, particle: Particle, energy: float) -> Region:
    """Band label for the energy.

    BOUNDARY within BOUNDARY_EPS of a channel threshold, and for the band
    where both channels are evanescent (possible only for |a| < m).  Otherwise
    the label follows the reality pattern of (nu, mu): both real and positive
    I, both negative V, opposite signs III; only nu real II; only mu real IV.
    Raises InvalidParameterError for a non-finite energy and RangeError where
    the kinematics leave the floating-point range."""
    try:
        return _band(pot, particle, energy)[0]
    except BoundaryEnergyError:
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
    """Matching coefficients A (incident) and C (reflected) of the
    incident-side expansion onto the transmitted solution.

    Each is a ratio of Gamma functions evaluated in the log domain; a
    shared argument cancels exactly, so for a = 0 A = 1 and C = 0 exactly.
    Raises PoleError when a numerator argument is at a pole."""
    hp = hypergeometric_parameters(k)
    a_num, a_den = 1.0 - hp.b1 + hp.a1, 1.0 - hp.c1 + hp.a1
    c_num, c_den = 1.0 - hp.a2 + hp.b2, 1.0 - hp.c2 + hp.b2
    return ConnectionCoefficients(
        A=_kernels._coeff_ratio(a_num, 1.0 - hp.c1, a_den, 1.0 - hp.b1),
        C=_kernels._coeff_ratio(c_num, 1.0 - hp.c2, c_den, 1.0 - hp.a2),
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
    same_sign = (nu < 0.0) == (mu < 0.0)
    den = s + (sh_sum if same_sign else sh_diff)
    if not den > 0.0:
        # S and the sinh^2 term both underflowed, which takes nu +- mu and
        # 1 - lam below about 1e-154
        raise RangeError(f"R and T not representable at nu={nu}, mu={mu}")
    if same_sign:
        return (s + sh_diff) / den, prod / den
    return (s + sh_sum) / den, -prod / den


def scattering_coefficients(pot: Potential, particle: Particle,
                            energy: float) -> ScatteringResult:
    """Reflection and transmission coefficients at the given energy.

    With both channels open, R and T come from the elementary closed form of
    the Gamma ratios (see _propagating_rt).  In the one-evanescent-channel
    bands the result is exact: R = 1, T = 0 (for an imaginary nu this follows
    from the x -> -x mirror, which swaps the channel roles).  Energies inside
    the boundary guard are rejected."""
    region, k = _band(pot, particle, energy)
    if region in (Region.II, Region.IV):
        return ScatteringResult(energy, region, 1.0, 0.0, 0.0)
    refl, trans = _propagating_rt(k, pot.a, pot.b)
    return ScatteringResult(energy, region, refl, trans, refl + trans - 1.0)


def currents(pot: Potential, particle: Particle, energy: float) -> Currents:
    """Conserved-current fluxes of the three asymptotic waves:
    j_inc = 6|A|^2 b nu / m, j_ref = -6|C|^2 b nu / m, j_trans = 6 b mu / m
    (zero when the transmitted channel is evanescent).  Requires a
    propagating incident channel.  Raises RangeError where |A|^2 leaves the
    normal floating-point range or a flux overflows: an underflowing |A|^2
    has lost the digits that balance the fluxes."""
    k = _incident_kinematics(pot, particle, energy)
    cc = connection_coefficients(k)
    b_over_m = pot.b / particle.m
    # products, not ** 2, which raises OverflowError instead of giving inf
    a_sq = abs(cc.A) * abs(cc.A)
    j_inc = 6.0 * a_sq * b_over_m * k.nu.real
    j_ref = -6.0 * abs(cc.C) * abs(cc.C) * b_over_m * k.nu.real
    j_trans = 6.0 * b_over_m * k.mu.real if k.mu.imag == 0.0 else 0.0
    res = Currents(j_inc, j_ref, j_trans)
    if not (a_sq >= sys.float_info.min and all(map(math.isfinite, res))):
        raise RangeError(
            f"currents out of floating-point range at E={energy}, "
            f"|A|^2={a_sq}")
    return res


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

"""Plane-wave scattering of a spin-one particle on the smooth step
V(x) = a tanh(bx): kinematic parameters, connection coefficients, reflection
and transmission, and the sharp-step limit."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import (
    BoundaryEnergyError,
    ChannelClosedError,
    DkpScatterError,
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
    "ScatteringTable",
    "BOUNDARY_EPS",
    "critical_energies",
    "kinematics",
    "classify_region",
    "hypergeometric_parameters",
    "connection_coefficients",
    "scattering_coefficients",
    "scattering_table",
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

    def value(self, x: float | np.ndarray) -> float | np.ndarray:
        """V(x) for a float or an array of x, with numpy's tanh for both, so
        that an element of an array gets the same bits as the float alone."""
        with np.errstate(over="ignore"):
            v = self.a * np.tanh(self.b * np.asarray(x, dtype=float))
        return v if v.ndim else float(v)


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
        return self._value_  # not the value property, several times slower


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


# Status of each energy of a table: its R and T hold, or the typed error the
# scalar entry points raise there (see _error)
_OK, _GUARDED, _NON_FINITE, _KINEMATICS_RANGE, _RT_RANGE = range(5)
# a table's region codes index these arrays
_REGIONS = np.array(tuple(Region), dtype=object)
_I, _II, _III, _IV, _V, _BOUNDARY = range(len(_REGIONS))
# region code by [sign(nu), sign(mu)], a sign of -1 indexing the last entry:
# both real with the same sign I (positive) or V (negative), opposite signs
# III, only nu real II, only mu real IV, neither BOUNDARY
_SIGN_REGIONS = np.array([[_BOUNDARY, _IV, _IV], [_II, _I, _III], [_II, _III, _V]])


def _exponent(a: float, m: float, energy: np.ndarray | float) -> np.ndarray:
    """The binary exponent k of max(|a|, m, |E|), per energy: (a, b, m, E) over
    2^k are exact while they stay normal, so a ratio of them has the bits of the
    inputs', and (E +- a)^2 - m^2 is in range at every exponent.  Every energy
    decision (_decide, step_rt) works on this scale."""
    energy = np.asarray(energy, dtype=float)  # a Python int may exceed int64
    return np.frexp(np.maximum(np.abs(energy), float(max(abs(a), m))))[1]


def _interior_exponent(a: float, b: float) -> tuple[complex, float]:
    """lam, and 1 - lam (0 for complex lam) free of the cancellation of a lam near
    1 (b >> a), exactly 0 for a = 0; from (a, b) over the exponent of max(|a|, b),
    where b is no smaller than on the energy's scale: lam is finite where that b
    is normal."""
    j = math.frexp(max(abs(a), b))[1]
    a, b = math.ldexp(a, -j), math.ldexp(b, -j)
    if b == 0.0:
        # |a|/b beyond 2^1074, where the energy's b is not normal either
        return complex(0.5, math.inf), 0.0
    disc = b * b - 4.0 * a * a
    if disc < 0:
        return complex(0.5, math.sqrt(-disc) / (2.0 * b)), 0.0
    root = math.sqrt(disc)
    return complex((b + root) / (2.0 * b), 0.0), 2.0 * a * a / (b * (b + root))


def _kinematics(a, b, m, energy: np.ndarray) -> np.ndarray:
    """nu and mu at every energy, as the rows of one (2, n) array, from (a, b,
    m, E) on the energy's scale (see _exponent); no checks (call under
    np.errstate(all="ignore"))."""
    # E + a and E - a, and their rounding errors (Knuth's TwoSum)
    side = np.array((a, -a))
    shifted = side + energy
    back = shifted - side
    err = (side - (shifted - back)) + (energy - back)
    # (e - m)(e + m) keeps its digits near a threshold, where e*e - m*m cancels;
    # there e -+ m is exact and err restores the digits the rounding of E +- a
    # took
    excess = ((shifted - m) + err) * ((shifted + m) + err)
    # sqrt(excess)/(2b), with the sign of E +- a, in a propagating channel,
    # and i sqrt(-excess)/(2b) in an evanescent one; -excess keeps the -0.0
    # of sqrt(-0.0) at a threshold, and dividing the parts separately gives
    # the bits of a complex division wherever they are finite
    open_ = excess > 0.0
    part = np.sqrt(np.where(open_, excess, -excess)) / (2.0 * b)
    nu_mu = np.empty(excess.shape, complex)
    nu_mu.real = np.where(open_, np.copysign(part, shifted), 0.0)
    nu_mu.imag = np.where(open_, 0.0, part)
    return nu_mu


def kinematics(pot: Potential, particle: Particle, energy: float) -> KinematicParams:
    """nu, mu, lam for the given configuration, from the energy decision, which
    forms no R or T.  Purely algebraic; no boundary guard is applied here.
    Raises InvalidParameterError for a non-finite energy and RangeError
    where b/max(|a|, m, |E|) leaves the normal range (see scattering_table)."""
    return _band(pot, particle, energy, _GUARDED)[1]


@dataclass(frozen=True, eq=False)
class ScatteringTable:
    """R and T over an energy array, as :func:`scattering_table` decides them.

    Per energy: the band (BOUNDARY where guarded), nu and mu, R and T, and
    ok, which is True where R and T hold; lam is shared.  Where ok is False,
    error(i) is the typed error scattering_coefficients raises at energy[i],
    and R and T hold no value."""

    pot: Potential
    particle: Particle
    energy: np.ndarray
    region: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    lam: complex
    R: np.ndarray
    T: np.ndarray
    ok: np.ndarray
    _status: np.ndarray

    def error(self, i: int) -> DkpScatterError | None:
        """The typed error at energy i, None where it is ok."""
        return _error(self._status[i], self.energy[i].item(), self.pot, self.particle,
                      self.nu[i], self.mu[i])


def _error(status: int, energy, pot, particle, nu, mu) -> DkpScatterError | None:
    """The typed error of a status (None for _OK) at the energy as given."""
    if status == _OK:
        return None
    if status == _GUARDED:
        return BoundaryEnergyError(
            f"E={energy} within {BOUNDARY_EPS} of a channel threshold "
            "(or in the fully evanescent gap)")
    if status == _NON_FINITE:
        return InvalidParameterError(f"energy must be finite, got {energy}")
    if status == _KINEMATICS_RANGE:
        return RangeError(
            f"kinematics out of floating-point range at E={energy}, "
            f"a={pot.a}, b={pot.b}, m={particle.m}")
    return RangeError(f"R and T not representable at nu={float(nu.real)}, "
                      f"mu={float(mu.real)}")


def _band(pot: Potential, particle: Particle, energy: float, *passing: int
          ) -> tuple[Region, KinematicParams, list[float]]:
    """Band, kinematics and the scaled (a, b, m, E) of the decision at one
    energy; raises the decision's error there unless its status is in passing."""
    _, scaled, nu_mu, region, status = _decide(pot, particle, (energy,))
    if status[0] not in (_OK, *passing):
        raise _error(status[0], energy, pot, particle, *nu_mu[:, 0])
    return (_REGIONS[region[0]], KinematicParams(*nu_mu[:, 0].tolist(),
            _interior_exponent(pot.a, pot.b)[0]), scaled[:, 0].tolist())


def _incident_kinematics(pot: Potential, particle: Particle,
                         energy: float) -> KinematicParams:
    """Kinematics at an energy whose incident channel propagates."""
    region, k, _ = _band(pot, particle, energy)
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
    Raises as kinematics does."""
    return _band(pot, particle, energy, _GUARDED)[0]


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
    Raises PoleError when a numerator argument is at a pole, and RangeError
    when A or C overflows."""
    hp = hypergeometric_parameters(k)
    a_num, a_den = 1.0 - hp.b1 + hp.a1, 1.0 - hp.c1 + hp.a1
    c_num, c_den = 1.0 - hp.a2 + hp.b2, 1.0 - hp.c2 + hp.b2
    return ConnectionCoefficients(
        A=_kernels._coeff_ratio(a_num, 1.0 - hp.c1, a_den, 1.0 - hp.b1),
        C=_kernels._coeff_ratio(c_num, 1.0 - hp.c2, c_den, 1.0 - hp.a2),
    )


_TWO_PI = 2.0 * math.pi


def _propagating_rt(nu_mu: np.ndarray, lam: complex, one_minus_lam: float, a, b, m,
                    energy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R and T for real nu and mu, the rows of nu_mu, of the mass m at the
    energies on the step a tanh(bx) (on the energy's scale, see _exponent),
    and where they are representable.

    R = |C/A|^2 and T = (mu/nu)/|A|^2 reduce, through |Gamma(1+iy)|^2 =
    pi y/sinh(pi y), |Gamma(1/2+iy)|^2 = pi/cosh(pi y) and Gamma(s)Gamma(1-s)
    = pi/sin(pi s) (DLMF 5.4.3, 5.4.4, 5.5.3), to

        S = sin^2(pi lam)   (= cosh^2(pi kappa) for lam = 1/2 + i kappa)
        R = (S + sinh^2 pi(nu - mu)) / (S + sinh^2 pi(nu + mu))
        T = sinh(2 pi nu) sinh(2 pi mu) / (S + sinh^2 pi(nu + mu)).

    With p = |nu|, q = |mu|, sinh^2 pi(nu +- mu) is sinh^2 pi(p + q) or
    sinh^2 pi(p - q) by the relative sign of nu and mu.  S is multiplied by
    4 exp(2 pi min(g, 0)) and the sinh terms by 4 exp(-2 pi max(g, 0)), g =
    kappa - (p + q) (kappa = 0 for real lam), so nothing overflows, and the
    p - q term's exponent is p + q - 2 min(p, q), so that both sinh terms
    and T share one scale and R + T = 1 holds to rounding; |p - q| itself
    is |a E|/b^2/(p + q), which does not cancel; for a = 0 (lam = 1, nu =
    mu) R = 0 and T = 1 exactly.  For b < 2|a|, kappa - (p + q) in
    doubles would err by about 2 pi |a|/b 2^-52, so g comes from the inputs,

        2b g = m^2/(|E+a| + 2bp) + m^2/(|E-a| + 2bq) - 2 max(|E| - |a|, 0)
               - b^2/(2|a| + 2b kappa),

    by sqrt(w^2 - c^2) = |w| - c^2/(|w| + sqrt(w^2 - c^2)) for (w, c) =
    (E +- a, m) and (2|a|, b), and |E+a| + |E-a| = 2 max(|E|, |a|).  So
    g is exact to rounding, and the one rule left for R and T is a normal
    denominator (it is not once nu +- mu and 1 - lam fall below about
    1e-154).  Call under np.errstate(all="ignore")."""
    p_q = np.abs(nu_mu.real)
    p, q = p_q
    if lam.imag:
        # m^2 as m m/(...), which does not underflow
        w = np.abs(np.array((energy + a, energy - a))) + 2.0 * b * p_q
        gap = (m * (m / w).sum(0) - 2.0 * np.maximum(np.abs(energy) - np.abs(a), 0.0)
               - b * b / (2.0 * np.abs(a) + 2.0 * b * lam.imag)) / (2.0 * b)
        s = (1.0 + math.exp(-_TWO_PI * lam.imag)) ** 2
    else:
        gap = -(p + q)
        s = 4.0 * math.sin(math.pi * one_minus_lam) ** 2
    s = s * np.exp(_TWO_PI * np.minimum(gap, 0.0))
    scale = np.exp(-_TWO_PI * np.maximum(gap, 0.0))
    e_sum = np.expm1(-_TWO_PI * (p + q))
    # |p - q| = |a E|/b^2/(p + q) by p^2 - q^2 = a E/b^2, without the
    # cancellation of p - q where |E| << |a| (it is exactly 0 for a = 0 or E =
    # 0); |E|/(p + q)/b is at most 1 in band III and of order 1 + sqrt(m/|a|)
    # in bands I and V, so nothing overflows
    e_diff = np.expm1(-_TWO_PI * (np.abs(energy) / (p + q) / b * (np.abs(a) / b)))
    sh_sum = scale * e_sum * e_sum
    sh_diff = scale * np.exp(-2.0 * _TWO_PI * np.minimum(p, q)) * e_diff * e_diff
    # |sinh(2 pi nu) sinh(2 pi mu)| on the same scale
    e_nu, e_mu = np.expm1(-2.0 * _TWO_PI * p_q)
    prod = scale * e_nu * e_mu
    negative = nu_mu.real < 0.0
    same_sign = negative[0] == negative[1]
    den = s + np.where(same_sign, sh_sum, sh_diff)
    refl = (s + np.where(same_sign, sh_diff, sh_sum)) / den
    trans = np.where(same_sign, prod, -prod) / den
    return refl, trans, den >= sys.float_info.min


def _decide(pot: Potential, particle: Particle, energies) -> tuple[np.ndarray, ...]:
    """scattering_table up to R and T: the energies, (a, b, m, E) on each
    energy's scale, nu and mu, region codes, and every status but _RT_RANGE."""
    energy = np.asarray(energies, dtype=float)
    if energy.ndim != 1:
        raise InvalidParameterError(f"energies must be 1-d, got shape {energy.shape}")
    with np.errstate(all="ignore"):
        k = -_exponent(pot.a, particle.m, energy)
        scaled = np.ldexp(np.array([[pot.a], [pot.b], [particle.m], [0.0]], float), k)
        scaled[3] = np.ldexp(energy, k)
        nu_mu = _kinematics(*scaled)
        region = _SIGN_REGIONS[tuple(np.subtract(nu_mu.real > 0.0, nu_mu.real < 0.0,
                                                 dtype=np.int8))]
        status = np.where((region == _BOUNDARY) | (np.abs(np.subtract.outer(
            critical_energies(pot, particle), energy)).min(axis=0) <= BOUNDARY_EPS),
            _GUARDED, _OK)
        region[status == _GUARDED] = _BOUNDARY
        # nu and mu overflow, or round to 0, where the scaled b is not normal
        b = scaled[1]
        status[(b < sys.float_info.min) | (b > sys.float_info.max)] = _KINEMATICS_RANGE
        status[~np.isfinite(energy)] = _NON_FINITE
    return energy, scaled, nu_mu, region, status


def scattering_table(pot: Potential, particle: Particle,
                     energies: Sequence[float] | np.ndarray) -> ScatteringTable:
    """R and T at every energy of a 1-d array in one numpy pass, after the
    energy decision of every entry point (bands as in classify_region).

    An energy is not ok, by precedence, where it is not finite
    (InvalidParameterError); where b/max(|a|, m, |E|), the scale of every
    value (see _exponent), is not normal (RangeError); within BOUNDARY_EPS of a
    threshold or where neither channel propagates (BoundaryEnergyError, band
    BOUNDARY); where R and T are not representable (RangeError).
    In bands II and IV, R and T are exactly 1 and 0."""
    energy, scaled, nu_mu, region, status = _decide(pot, particle, energies)
    lam, one_minus_lam = _interior_exponent(pot.a, pot.b)
    with np.errstate(all="ignore"):
        refl, trans, representable = _propagating_rt(nu_mu, lam, one_minus_lam, *scaled)
        evanescent = (region == _II) | (region == _IV)
        status[(status == _OK) & ~(evanescent | representable)] = _RT_RANGE
    return ScatteringTable(pot, particle, energy, _REGIONS[region], nu_mu[0], nu_mu[1],
                           lam, np.where(evanescent, 1.0, refl),
                           np.where(evanescent, 0.0, trans), status == _OK, status)


def scattering_coefficients(pot: Potential, particle: Particle,
                            energy: float) -> ScatteringResult:
    """Reflection and transmission coefficients at the given energy.

    With both channels open, R and T come from the elementary closed form of
    the Gamma ratios (see _propagating_rt).  In the one-evanescent-channel
    bands the result is exact: R = 1, T = 0 (for an imaginary nu this follows
    from the x -> -x mirror, which swaps the channel roles).  Energies inside
    the boundary guard are rejected.  This is scattering_table at one
    energy."""
    table = scattering_table(pot, particle, (energy,))
    if not table.ok[0]:
        raise _error(table._status[0], energy, pot, particle, table.nu[0], table.mu[0])
    refl, trans = table.R[0].item(), table.T[0].item()
    return ScatteringResult(energy, table.region[0], refl, trans, refl + trans - 1.0)


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
    E-a; R = ((k_i - k_t)/(k_i + k_t))^2, T = 1 - R, on the scale of max(|a|,
    m, |E|).  Raises ChannelClosed when either channel is evanescent or exactly
    at threshold, and RangeError where E +- a overflows or where k_i + k_t is
    0, the pole of R (E = 0 in band III)."""
    for name, val in (("a", a), ("m", m), ("energy", energy)):
        if not math.isfinite(val):
            raise InvalidParameterError(f"{name} must be finite")
    if m <= 0:
        raise InvalidParameterError(f"mass must be positive, got {m}")
    if math.isinf(energy + a) or math.isinf(energy - a):
        raise RangeError(f"sharp-step momenta out of floating-point range at "
                         f"E={energy}, a={a}, m={m}")
    k = int(_exponent(a, m, energy))
    a_s, m_s, e_s = (math.ldexp(v, -k) for v in (a, m, energy))
    disc_i = (e_s + a_s) ** 2 - m_s * m_s
    disc_t = (e_s - a_s) ** 2 - m_s * m_s
    if disc_i <= 0 or disc_t <= 0:
        raise ChannelClosedError(
            f"sharp-step channels not both open at E={energy}")
    k_i = math.copysign(math.sqrt(disc_i), e_s + a_s)
    k_t = math.copysign(math.sqrt(disc_t), e_s - a_s)
    if k_i + k_t == 0.0:
        raise RangeError(f"sharp-step R at its pole k_i = -k_t at E={energy}, a={a}")
    refl = ((k_i - k_t) / (k_i + k_t)) ** 2
    # |k_i| <= |E + a| 2^-k and |k_t| <= |E - a| 2^-k: no overflow here
    return StepRT(math.ldexp(k_i, k), math.ldexp(k_t, k), refl, 1.0 - refl)

"""Independent numerical check of the analytic reflection/transmission:
direct integration of the second-order field equation across the step with a
plane-wave decomposition at the walls.

The integrator is a 4th-order Magnus transfer-matrix propagator (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151) with slice doubling; it calls
no Gamma or hypergeometric function."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelClosedError, NonConvergenceError
from .scattering import Particle, Potential, Region, _band

__all__ = ["NumericRT", "numeric_rt"]

# The window is [-14.5/b, 14.5/b]: tanh(14.5) >= 1 - 1e-12, so both walls sit
# on the flat tails of the step.
_SPAN = 14.5

# Slice count of the first pass, and slices built and reduced at a time; the
# batch bounds peak memory whatever the slice count.
_FIRST_SLICES = 64
_BATCH = 1024
# Two successive passes agree when R and T each differ by at most
# _RT_TOL max(1, |R|, |T|); no pass may take more than _MAX_SLICES slices.
_RT_TOL = 1e-11
_MAX_SLICES = 524_288
# Gauss points sit at the slice midpoint +- sqrt(3)/6 h; the commutator term
# of the 4th-order Magnus exponent carries sqrt(3)/12 h^2.
_GAUSS = math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0


@dataclass(frozen=True)
class NumericRT:
    """R and T by integration; steps counts the slices of every pass, and
    error_estimate is max(|dR|, |dT|) between the last two passes."""

    R: float
    T: float
    unitarity_defect: float
    steps: int
    error_estimate: float


def _magnus_pass(a: float, b: float, m: float, energy: float,
                 x_start: float, h: float, n: int,
                 y: np.ndarray) -> np.ndarray:
    """Carry the state y = (psi, dpsi) across n slices of signed width h.

    Each slice is the 4th-order Magnus step of psi'' = -q psi, q = (E - V)^2
    - m^2, from q at its two Gauss points; its exponent is traceless, so the
    exponential is cosh(s) I + sinh(s)/s Omega with s^2 = c^2 - h^2 (q1 +
    q2)/2, and every slice has determinant 1.  Slices are built _BATCH at a
    time and each batch is reduced pairwise before it meets the state.
    """
    for lo in range(0, n, _BATCH):
        mid = x_start + h * (np.arange(lo, min(lo + _BATCH, n)) + 0.5)
        w1 = energy - a * np.tanh(b * (mid - _GAUSS * h))
        w2 = energy - a * np.tanh(b * (mid + _GAUSS * h))
        q1 = (w1 - m) * (w1 + m)
        q2 = (w2 - m) * (w2 + m)
        c = _COMMUTATOR * h * h * (q2 - q1)
        lower = -0.5 * h * (q1 + q2)
        s2 = c * c + h * lower
        osc = s2 <= 0.0
        root = np.sqrt(np.abs(s2))
        # each branch reads its own slices only, so cosh never sees a long
        # oscillatory slice
        r_osc = np.where(osc, root, 0.0)
        r_exp = np.where(osc, 0.0, root)
        diag = np.where(osc, np.cos(r_osc), np.cosh(r_exp))
        # sin(s)/s or sinh(s)/s; root > 0 wherever osc is false
        ratio = np.where(osc, np.sinc(r_osc / np.pi),
                         np.sinh(r_exp) / np.where(osc, 1.0, root))
        mats = np.empty((len(mid), 2, 2))
        mats[:, 0, 0] = diag + ratio * c
        mats[:, 0, 1] = ratio * h
        mats[:, 1, 0] = ratio * lower
        mats[:, 1, 1] = diag - ratio * c
        # n is a power of two, so every batch halves evenly
        while len(mats) > 1:
            mats = mats[1::2] @ mats[0::2]
        y = mats[0] @ y
    return y


def numeric_rt(pot: Potential, particle: Particle, energy: float) -> NumericRT:
    """R and T by direct integration, independent of the gamma-function route.

    A pure transmitted plane wave of unit amplitude is imposed at x = 14.5/b
    and carried to x = -14.5/b, where the field is split into incident and
    reflected plane waves.  Passes of 64, 128, ... slices, from the first
    that advances the fastest wave by at most pi per slice, run until R and
    T of two successive passes agree to 1e-11 max(1, |R|, |T|); a pass whose
    R or T is not finite never counts, and NonConvergenceError is raised when
    the next pass would take more than 524,288 slices.  Requires both
    channels propagating (regions I, III, V).  Every slice has determinant 1,
    so the unitarity defect stays at rounding level.
    """
    region, k = _band(pot, particle, energy)
    if region in (Region.II, Region.IV):
        raise ChannelClosedError(
            f"plane-wave decomposition needs both channels open, region {region.token}")
    x_right = _SPAN / pot.b
    k_inc = 2.0 * pot.b * k.nu.real
    k_trans = 2.0 * pot.b * k.mu.real
    y0 = np.array([1.0, 1j * k_trans])
    n, total, prev = _FIRST_SLICES, 0, None
    # a pass whose slices advance the fastest wave by more than pi aliases,
    # and two aliased passes can agree on a wrong R and T, so none is run;
    # q, and with it the wave number, peaks on the tails
    while n * math.pi < 2.0 * x_right * max(abs(k_inc), abs(k_trans)):
        n *= 2
    while n <= _MAX_SLICES:
        # an under-resolved pass may overflow, or leave R and T out of range;
        # the finiteness check judges it
        with np.errstate(all="ignore"):
            psi, dpsi = _magnus_pass(pot.a, pot.b, particle.m, energy,
                                     x_right, -2.0 * x_right / n, n, y0)
            # twice the incident and reflected amplitudes, up to unit phases
            twice_in = psi + dpsi / (1j * k_inc)
            twice_ref = psi - dpsi / (1j * k_inc)
            refl = float(abs(twice_ref / twice_in) ** 2)
            inv = 2.0 / abs(twice_in)
            trans = float(k_trans / k_inc * inv * inv)
        total += n
        n *= 2
        if not (math.isfinite(refl) and math.isfinite(trans)):
            prev = None
            continue
        if prev is not None:
            err = max(abs(refl - prev[0]), abs(trans - prev[1]))
            if err <= _RT_TOL * max(1.0, abs(refl), abs(trans)):
                return NumericRT(refl, trans, refl + trans - 1.0, total, err)
        prev = refl, trans
    raise NonConvergenceError(
        f"R and T did not converge within {_MAX_SLICES} slices per pass "
        f"at E={energy}")

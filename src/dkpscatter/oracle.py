"""Independent numerical check of the analytic reflection/transmission:
direct integration of the second-order field equation across the step with a
plane-wave decomposition at the walls.

The integrator is a 6th-order Magnus transfer-matrix propagator with three
Gauss points per slice (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009)
151) and slice doubling; it calls no Gamma or hypergeometric function."""

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
# The Gauss nodes of a slice sit at its midpoint and at +-sqrt(15)/10 h
# from it; alpha2 of the 6th-order Magnus exponent carries sqrt(15)/3 h.
_NODE = math.sqrt(15.0) / 10.0
_ALPHA2 = math.sqrt(15.0) / 3.0


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

    Each slice is the 6th-order Magnus step of y' = A y, A = [[0, 1], [-q,
    0]], q = (E - V)^2 - m^2, from A_1, A_2, A_3 at the Gauss nodes 1/2 -
    sqrt(15)/10, 1/2 and 1/2 + sqrt(15)/10 of the slice: with alpha1 = h
    A_2, alpha2 = sqrt(15) h/3 (A_3 - A_1), alpha3 = 10h/3 (A_3 - 2 A_2 +
    A_1), C1 = [alpha1, alpha2] and C2 = -[alpha1, 2 alpha3 + C1]/60, the
    exponent is

        Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.

    Omega is traceless, so its exponential is cosh(s) I + sinh(s)/s Omega
    with s^2 = -det Omega, and every slice has determinant 1.  Slices are
    built _BATCH at a time and each batch is reduced pairwise before it
    meets the state.
    """
    # tanh(u -+ d) = (t -+ tau)/(1 -+ t tau) gives the outer nodes from the
    # midpoint's tanh t
    tau = math.tanh(b * _NODE * h)
    for lo in range(0, n, _BATCH):
        mid = x_start + h * (np.arange(lo, min(lo + _BATCH, n)) + 0.5)
        t = np.tanh(b * mid)
        t_tau = t * tau
        w1 = energy - a * ((t - tau) / (1.0 - t_tau))
        w2 = energy - a * t
        w3 = energy - a * ((t + tau) / (1.0 + t_tau))
        q1 = (w1 - m) * (w1 + m)
        q2 = (w2 - m) * (w2 + m)
        q3 = (w3 - m) * (w3 + m)
        # in the basis U = [[0, 1], [0, 0]], L = [[0, 0], [1, 0]], H = [[1, 0],
        # [0, -1]], with [U, L] = H, [H, U] = 2U and [H, L] = -2L: alpha1 = h U
        # - p L, alpha2 = e L, alpha3 = f L, and Omega = upper U + lower L +
        # c H
        p = h * q2
        e = (-_ALPHA2 * h) * (q3 - q1)
        f = (-10.0 / 3.0 * h) * (q3 - 2.0 * q2 + q1)
        e2 = e * e
        hp = h * p
        upper = h + (h * h / 3600.0) * (h * e2 - 20.0 * f)
        lower = f / 12.0 - p - (h / 3600.0) * (f * (20.0 * p - f) + e2 * (30.0 + hp))
        c = (-h / 12.0) * e * (1.0 + hp / 15.0 - h / 600.0 * f)
        s2 = c * c + upper * lower
        root = np.sqrt(np.abs(s2))
        # cos and sin(s)/s where s^2 < 0, cosh and sinh(s)/s where s^2 > 0,
        # each from its own slices only, so cosh never sees a long
        # oscillatory slice; both are 1 at s = 0
        osc = s2 < 0.0
        hyp = s2 > 0.0
        diag = np.ones_like(root)
        np.cos(root, out=diag, where=osc)
        np.cosh(root, out=diag, where=hyp)
        ratio = np.ones_like(root)
        np.sin(root, out=ratio, where=osc)
        np.sinh(root, out=ratio, where=hyp)
        np.divide(ratio, root, out=ratio, where=root > 0.0)
        mats = np.empty((len(mid), 2, 2))
        mats[:, 0, 0] = diag + ratio * c
        mats[:, 0, 1] = ratio * upper
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
    # (a, b, m, E) on the scale of the energy decision
    region, k, (a, b, m, energy_scaled) = _band(pot, particle, energy)
    if region in (Region.II, Region.IV):
        raise ChannelClosedError(
            f"plane-wave decomposition needs both channels open, region {region.token}")
    x_right = _SPAN / b
    k_inc = 2.0 * b * k.nu.real
    k_trans = 2.0 * b * k.mu.real
    # the state grows by 1/sqrt|T| across a barrier; long double carries it
    # to about e^11356 where the platform has the x87 format (e^709 in
    # doubles), so a deep-tunnelling T underflows to 0 instead of every pass
    # overflowing
    y0 = np.array([1.0, 1j * k_trans], dtype=np.clongdouble)
    n, total, prev = _FIRST_SLICES, 0, None
    # a pass whose slices advance the fastest wave by more than pi aliases,
    # and two aliased passes can agree on a wrong R and T, so none is run;
    # q, and with it the wave number, peaks on the tails
    fastest = max(abs(k_inc), abs(k_trans))
    while n <= _MAX_SLICES and n * math.pi < 2.0 * x_right * fastest:
        n *= 2
    while n <= _MAX_SLICES:
        # an under-resolved pass may overflow, or leave R and T out of range;
        # the finiteness check judges it
        with np.errstate(all="ignore"):
            psi, dpsi = _magnus_pass(a, b, m, energy_scaled,
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

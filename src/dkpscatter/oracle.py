"""Independent numerical check of the analytic reflection/transmission:
direct integration of the second-order field equation across the step with a
plane-wave decomposition at the walls.

The integrator is a 4th-order Magnus transfer-matrix propagator (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151) with slice doubling; it calls
no Gamma or hypergeometric function."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelClosedError, InvalidParameterError, NonConvergenceError
from .scattering import Particle, Potential, Region, _band

__all__ = ["IntegrationSettings", "NumericRT", "numeric_rt"]

# b * x_right must reach the flat tail: tanh >= 1 - 1e-12 needs b x >= 14.163
_DEFAULT_SPAN = 14.5
_FLATNESS = 1.0 - 1e-12

# Slice count of the first pass, and slices built and reduced at a time; the
# batch bounds peak memory whatever the slice count.
_FIRST_SLICES = 64
_BATCH = 1024
# Gauss points sit at the slice midpoint +- sqrt(3)/6 h; the commutator term
# of the 4th-order Magnus exponent carries sqrt(3)/12 h^2.
_GAUSS = math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0


@dataclass(frozen=True)
class IntegrationSettings:
    """Propagator controls.

    The slice count doubles until two successive passes agree in psi and
    dpsi to abs_tol + rel_tol |y|; max_steps caps the slices of one pass.
    Tolerances must lie in (0, 1e-4]; the window edge x_right (defaulting to
    14.5/b) must satisfy tanh(b x_right) >= 1 - 1e-12 so the walls sit on the
    flat tails of the step.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_steps: int = 1_000_000
    x_right: float | None = None

    def __post_init__(self) -> None:
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (isinstance(tol, float) and 0.0 < tol <= 1e-4):
                raise InvalidParameterError(
                    f"{name} must lie in (0, 1e-4], got {tol}")
        if not (isinstance(self.max_steps, int) and self.max_steps > 0):
            raise InvalidParameterError("max_steps must be a positive integer")
        if self.x_right is not None and not (
                math.isfinite(self.x_right) and self.x_right > 0):
            raise InvalidParameterError("x_right must be positive and finite")

    def window(self, pot: Potential) -> tuple[float, float]:
        """(x_left, x_right) for this potential, flatness-checked."""
        xr = self.x_right if self.x_right is not None else _DEFAULT_SPAN / pot.b
        if math.tanh(pot.b * xr) < _FLATNESS:
            raise InvalidParameterError(
                f"x_right={xr} leaves tanh(b x_right) below {_FLATNESS}")
        return -xr, xr


@dataclass(frozen=True)
class NumericRT:
    R: float
    T: float
    unitarity_defect: float
    steps: int


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


def _integrate(pot: Potential, particle: Particle, energy: float,
               settings: IntegrationSettings,
               x_start: float, x_end: float,
               psi0: complex, dpsi0: complex) -> tuple[complex, complex, int]:
    """Propagate (psi, dpsi) from x_start to x_end.

    Passes of _FIRST_SLICES, then twice as many slices, ... run until two
    successive passes agree to abs_tol + rel_tol |y| in psi and dpsi alike;
    the later one is returned with the total count of slices propagated.  A
    pass whose state is not finite never counts.  Raises NonConvergence when
    the next pass would take more than max_steps slices.
    """
    y0 = np.array([psi0, dpsi0], dtype=complex)
    span = x_end - x_start
    n, total, prev = _FIRST_SLICES, 0, None
    while n <= settings.max_steps:
        # an under-resolved pass may overflow; the finiteness check judges it
        with np.errstate(over="ignore", invalid="ignore"):
            y = _magnus_pass(pot.a, pot.b, particle.m, energy,
                             x_start, span / n, n, y0)
        total += n
        finite = bool(np.isfinite(y).all())
        if finite and prev is not None and np.all(
                np.abs(y - prev) <= settings.abs_tol + settings.rel_tol * np.abs(y)):
            return complex(y[0]), complex(y[1]), total
        prev = y if finite else None
        n *= 2
    raise NonConvergenceError(
        f"propagator did not converge within {settings.max_steps} slices "
        f"per pass at E={energy}")


def numeric_rt(pot: Potential, particle: Particle, energy: float,
               settings: IntegrationSettings | None = None) -> NumericRT:
    """R and T by direct integration, independent of the gamma-function route.

    A pure transmitted plane wave is imposed at x_right and carried to
    x_left, where the field is split into incident and reflected plane waves.
    Requires both channels propagating (regions I, III, V).  Every slice has
    determinant 1, so the unitarity defect stays at rounding level whatever
    the tolerance; steps is the total count of slices over all passes.
    """
    if settings is None:
        settings = IntegrationSettings()
    region, k = _band(pot, particle, energy)
    if region in (Region.II, Region.IV):
        raise ChannelClosedError(
            f"plane-wave decomposition needs both channels open, region {region.token}")
    x_left, x_right = settings.window(pot)
    k_inc = 2.0 * pot.b * k.nu.real
    k_trans = 2.0 * pot.b * k.mu.real
    psi0 = cmath.exp(1j * k_trans * x_right)
    psi, dpsi, steps = _integrate(pot, particle, energy, settings,
                                  x_right, x_left, psi0, 1j * k_trans * psi0)
    half_sum = 0.5 * (psi + dpsi / (1j * k_inc))
    half_diff = 0.5 * (psi - dpsi / (1j * k_inc))
    amp_in = half_sum / cmath.exp(1j * k_inc * x_left)
    amp_ref = half_diff / cmath.exp(-1j * k_inc * x_left)
    refl = abs(amp_ref / amp_in) ** 2
    trans = (k_trans / k_inc) / abs(amp_in) ** 2
    return NumericRT(refl, trans, refl + trans - 1.0, steps)

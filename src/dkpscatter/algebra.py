"""Ten-dimensional spin-one beta matrices, spinor assembly, and the matrix
form of the wave operator.

Component layout of the ten-spinor (0-indexed entries c0..c9, polarization
unit vector V):

    c2, c3, c4  =  psi * V          (upper vector block)
    c5, c6      =  phi * V1, V2
    c1          =  phi * V3
    c9          =  theta * V1
    c8          = -theta * V2
    c0          =  theta * V3
    c7          =  0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "BetaSet",
    "SpinorTriple",
    "beta_matrices",
    "trilinear_residual",
    "assemble_spinor",
    "dkp_residual",
]


class BetaSet(NamedTuple):
    beta0: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    beta3: np.ndarray
    metric: np.ndarray

    def __getitem__(self, mu: int) -> np.ndarray:  # type: ignore[override]
        return (self.beta0, self.beta1, self.beta2, self.beta3)[mu]


def _spin_one_generators() -> list[np.ndarray]:
    # (s_i)_{jk} = -i eps_{ijk}
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[k, j, i] = -1.0
    return [-1j * eps[i] for i in range(3)]


def beta_matrices() -> BetaSet:
    """The four 10x10 beta matrices and the metric diag(1, -1, -1, -1).

    Satisfy b^mu b^nu b^lam + b^lam b^nu b^mu = g^{mu nu} b^lam
    + g^{nu lam} b^mu.  Fresh writable copies on every call.
    """
    spin = _spin_one_generators()
    eye3 = np.eye(3)
    b0 = np.zeros((10, 10), dtype=complex)
    b0[1:4, 4:7] = eye3
    b0[4:7, 1:4] = eye3
    spatial = []
    for i in range(3):
        bi = np.zeros((10, 10), dtype=complex)
        bi[0, 4:7] = eye3[i]
        bi[4:7, 0] = -eye3[i]
        bi[1:4, 7:10] = -1j * spin[i]
        bi[7:10, 1:4] = -1j * spin[i]
        spatial.append(bi)
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    return BetaSet(b0, spatial[0], spatial[1], spatial[2], metric)


# read only, by dkp_residual; beta_matrices() hands out fresh copies
_BETAS = beta_matrices()


def trilinear_residual(betas: BetaSet | None = None) -> float:
    """Max-abs residual of the defining trilinear relation over all 64 index
    triples.  Exactly 0.0 for the built-in matrices."""
    if betas is None:
        betas = beta_matrices()
    g = betas.metric
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            for lam in range(4):
                bm, bn, bl = betas[mu], betas[nu], betas[lam]
                res = bm @ bn @ bl + bl @ bn @ bm \
                    - g[mu, nu] * bl - g[nu, lam] * bm
                worst = max(worst, float(np.abs(res).max()))
    return worst


@dataclass(eq=False)
class SpinorTriple:
    """Scalar field components at one position, plus the polarization
    direction along which they are embedded into the ten-spinor."""

    psi: complex
    phi: complex
    theta: complex
    polarization: np.ndarray = (1.0, 0.0, 0.0)  # any 3-sequence; kept as an array

    def __post_init__(self) -> None:
        # plain float checks: this runs once per wavefunction call
        v = self.polarization
        if isinstance(v, np.ndarray):
            v = v.tolist()  # any shape but (3,) then fails to unpack as floats
        try:
            x, y, z = map(float, v)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                "polarization must be a finite 3-vector") from None
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise InvalidParameterError("polarization must be a finite 3-vector")
        if abs(math.hypot(x, y, z) - 1.0) > 1e-12:
            raise InvalidParameterError("polarization must be a unit vector")
        self.polarization = np.array((x, y, z))


def assemble_spinor(triple: SpinorTriple) -> np.ndarray:
    """Embed (psi, phi, theta) into the ten-spinor along the polarization.

    Linear in the three scalars; entry c7 is identically zero.
    """
    v = triple.polarization
    out = np.zeros(10, dtype=complex)
    out[2:5] = triple.psi * v
    out[5] = triple.phi * v[0]
    out[6] = triple.phi * v[1]
    out[1] = triple.phi * v[2]
    out[9] = triple.theta * v[0]
    out[8] = -triple.theta * v[1]
    out[0] = triple.theta * v[2]
    return out


def dkp_residual(solution: Callable[[float], SpinorTriple], x: float, h: float,
                 pot, particle, energy: float) -> float:
    """Max-abs row residual of the first-order matrix wave equation

        [ b0 (E - V(x)) + i b1 d/dx - m I ] Psi_10 = 0

    with d/dx taken by central difference at spacing h.  `pot` provides a and
    b of V(x) = a tanh(bx); `particle` provides the mass m.
    """
    if h <= 0:
        raise InvalidParameterError("h must be positive")
    s_minus = assemble_spinor(solution(x - h))
    s_mid = assemble_spinor(solution(x))
    s_plus = assemble_spinor(solution(x + h))
    w = energy - pot.a * math.tanh(pot.b * x)
    ds = (s_plus - s_minus) / (2.0 * h)
    res = w * (_BETAS.beta0 @ s_mid) + 1j * (_BETAS.beta1 @ ds) \
        - particle.m * s_mid
    return float(np.abs(res).max())

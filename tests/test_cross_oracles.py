"""Optional cross-checks against third-party references.  These duplicate
none of the frozen-fixture tests: they recompute the references live, so a
drift in either implementation shows up.  Skipped when the extras are not
installed."""

import cmath

import numpy as np
import pytest

from dkpscatter import (
    Particle,
    Potential,
    hyp2f1,
    log_gamma,
    numeric_rt,
    scattering_coefficients,
)

mpmath = pytest.importorskip("mpmath")
solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp


POT = Potential(a=5.0, b=3.0)
PAR = Particle(m=1.0)


def test_log_gamma_against_mpmath():
    rng = np.random.default_rng(3)
    with mpmath.workdps(40):
        for _ in range(40):
            z = complex(rng.uniform(-15, 25), rng.uniform(0.3, 20))
            ref = complex(mpmath.loggamma(mpmath.mpc(z)))
            val = log_gamma(z)
            assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)), f"z={z}"


def test_hyp2f1_against_mpmath():
    cases = [
        (complex(0.5, 3.294266991616996), complex(0.5, 3.871617260806622),
         complex(1.0, 3.986086914367133), -7.38905609893065),
        (complex(0.5, 3.2106190392177716), complex(0.5, 2.4468564233917984),
         complex(1.0, 2.4776781245530843), -403.4287934927351),
        (complex(0.3, 0.2), complex(1.1, -0.4), complex(2.5, 0.0), -0.75),
        (complex(0.5, 0.0), complex(1.5, 0.0), complex(2.25, 0.0), 0.8),
    ]
    with mpmath.workdps(40):
        for a, b, c, z in cases:
            ref = complex(mpmath.hyp2f1(a, b, c, z))
            val = hyp2f1(a, b, c, z)
            assert abs(val - ref) <= 1e-11 * abs(ref), f"z={z}"


@pytest.mark.parametrize("energy", [2.5, 7.0])
def test_numeric_rt_against_scipy(energy):
    # independent integrator and an in-test plane-wave decomposition
    a, b, m = POT.a, POT.b, PAR.m
    xr = 14.5 / b
    e_plus, e_minus = energy + a, energy - a
    k_inc = np.copysign(np.sqrt(e_plus ** 2 - m * m), e_plus)
    k_trans = np.copysign(np.sqrt(e_minus ** 2 - m * m), e_minus)

    def rhs(x, y):
        w = energy - a * np.tanh(b * x)
        return [y[1], -(w * w - m * m) * y[0]]

    psi0 = cmath.exp(1j * k_trans * xr)
    sol = solve_ivp(
        rhs, (xr, -xr), [psi0, 1j * k_trans * psi0],
        method="DOP853", rtol=1e-12, atol=1e-12)
    assert sol.success
    psi, dpsi = sol.y[0][-1], sol.y[1][-1]
    amp_in = 0.5 * (psi + dpsi / (1j * k_inc)) / cmath.exp(-1j * k_inc * xr)
    amp_ref = 0.5 * (psi - dpsi / (1j * k_inc)) / cmath.exp(1j * k_inc * xr)
    r_ref = abs(amp_ref / amp_in) ** 2
    t_ref = (k_trans / k_inc) / abs(amp_in) ** 2

    num = numeric_rt(POT, PAR, energy)
    ana = scattering_coefficients(POT, PAR, energy)
    for val in (num.R, ana.R):
        assert abs(val - r_ref) <= 1e-7
    for val in (num.T, ana.T):
        assert abs(val - t_ref) <= 1e-7

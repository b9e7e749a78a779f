"""Direct-integration route: settings validation, agreement with frozen
fixtures, conservation properties, and failure modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkpscatter import (
    BoundaryEnergyError,
    ChannelClosedError,
    IntegrationSettings,
    InvalidParameterError,
    NonConvergenceError,
    Particle,
    Potential,
    Region,
    numeric_rt,
    scattering_coefficients,
)
from dkpscatter.oracle import _integrate

# Same independent fixtures as the analytic tests (high-order integrator at
# relative tolerance 1e-13, separate implementation).
ODE_RT_FIXTURES = [
    (1.5, 2.2795320113133766, -1.2795320113135569),
    (2.5, 2.191764318011325, -1.1917643180115085),
    (3.5, 1.8401099461220165, -0.8401099461220254),
    (7.0, 0.03902243669932923, 0.960977563300833),
    (8.5, 0.001378855329519443, 0.998621144670541),
]


class TestSettings:
    def test_defaults(self):
        s = IntegrationSettings()
        assert s.rel_tol == 1e-10 and s.abs_tol == 1e-10
        assert s.max_steps == 1_000_000 and s.x_right is None

    @pytest.mark.parametrize("bad", [0.0, -1e-10, 1e-3, 2.0])
    def test_tolerance_range(self, bad):
        with pytest.raises(InvalidParameterError):
            IntegrationSettings(rel_tol=bad)
        with pytest.raises(InvalidParameterError):
            IntegrationSettings(abs_tol=bad)

    def test_tolerance_type(self):
        with pytest.raises(InvalidParameterError):
            IntegrationSettings(rel_tol="1e-10")

    def test_max_steps_positive_int(self):
        with pytest.raises(InvalidParameterError):
            IntegrationSettings(max_steps=0)
        with pytest.raises(InvalidParameterError):
            IntegrationSettings(max_steps=10.5)

    def test_window_flatness(self):
        pot = Potential(5.0, 3.0)
        # b x_right = 12 leaves tanh visibly short of 1
        with pytest.raises(InvalidParameterError):
            IntegrationSettings(x_right=4.0).window(pot)
        assert IntegrationSettings(x_right=5.0).window(pot) == (-5.0, 5.0)
        xl, xr = IntegrationSettings().window(pot)
        assert xr == 14.5 / 3.0 and xl == -xr

    def test_x_right_positive(self):
        with pytest.raises(InvalidParameterError):
            IntegrationSettings(x_right=-2.0)


class TestNumericRT:
    @pytest.mark.parametrize("energy,r_ref,t_ref", ODE_RT_FIXTURES)
    def test_against_fixtures(self, pot, particle, energy, r_ref, t_ref):
        res = numeric_rt(pot, particle, energy)
        assert abs(res.R - r_ref) <= 1e-7
        assert abs(res.T - t_ref) <= 1e-7

    def test_default_unitarity(self, pot, particle):
        for energy in (1.5, 2.5, 7.0, -7.0):
            res = numeric_rt(pot, particle, energy)
            assert abs(res.unitarity_defect) <= 1e-9, f"E={energy}"
            assert res.steps > 0

    def test_error_bounded_by_tolerance(self, pot, particle):
        # the error against the closed form stays within the tolerance and
        # never grows as it tightens; every slice has determinant 1, so the
        # unitarity defect sits at rounding level at every tolerance
        ana = scattering_coefficients(pot, particle, 2.5)
        errors = []
        for tol in (1e-5, 1e-6, 1e-8, 1e-10):
            s = IntegrationSettings(rel_tol=tol, abs_tol=tol)
            res = numeric_rt(pot, particle, 2.5, s)
            errors.append(max(abs(res.R - ana.R), abs(res.T - ana.T)))
            assert errors[-1] <= tol, f"tol={tol}"
            assert abs(res.R + res.T - 1.0) <= 1e-12, f"tol={tol}"
        assert all(fine <= coarse for coarse, fine in zip(errors, errors[1:]))

    def test_high_energy_long_window(self):
        # (|E| + a)/b = 70: far more oscillations across the window than at
        # the fixtures
        pot, particle = Potential(5.0, 0.5), Particle(1.0)
        res = numeric_rt(pot, particle, 30.0)
        ana = scattering_coefficients(pot, particle, 30.0)
        assert abs(res.R - ana.R) <= 1e-9
        assert abs(res.T - ana.T) <= 1e-9
        assert abs(res.R + res.T - 1.0) <= 1e-11

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(band=st.sampled_from([Region.I, Region.III, Region.V]),
           a=st.floats(1.5, 20.0), log_excess=st.floats(-3.0, 1.3),
           frac=st.floats(-0.99, 0.99), ratio=st.floats(1.0, 30.0))
    def test_agrees_with_closed_form(self, band, a, log_excess, frac, ratio):
        # m = 1; bands I/V sit 10^log_excess past the outer thresholds, band
        # III at frac of the way to its edges; b is set by (|E| + a)/b = ratio
        if band is Region.III:
            energy = frac * (a - 1.0)
        else:
            energy = a + 1.0 + 10.0 ** log_excess
            if band is Region.V:
                energy = -energy
        pot, particle = Potential(a, (abs(energy) + a) / ratio), Particle(1.0)
        res = numeric_rt(pot, particle, energy)
        ana = scattering_coefficients(pot, particle, energy)
        assert ana.region is band
        scale = max(1.0, abs(ana.R), abs(ana.T))
        assert abs(res.R - ana.R) <= 1e-8 * scale
        assert abs(res.T - ana.T) <= 1e-8 * scale

    def test_free_particle(self):
        pot = Potential(0.0, 2.0)
        res = numeric_rt(pot, Particle(1.0), 3.0)
        assert res.R <= 1e-16
        assert abs(res.T - 1.0) <= 1e-9

    def test_custom_window(self, pot, particle):
        res = numeric_rt(pot, particle, 7.0, IntegrationSettings(x_right=6.0))
        assert abs(res.R - 0.03902243669932923) <= 1e-7

    def test_step_budget_exhaustion(self, pot, particle):
        with pytest.raises(NonConvergenceError):
            numeric_rt(pot, particle, 7.0, IntegrationSettings(max_steps=100))

    @pytest.mark.parametrize("energy", [5.0, -5.0])
    def test_closed_channel_rejected(self, pot, particle, energy):
        with pytest.raises(ChannelClosedError):
            numeric_rt(pot, particle, energy)

    def test_boundary_rejected(self, pot, particle):
        with pytest.raises(BoundaryEnergyError):
            numeric_rt(pot, particle, 6.0)


class TestIntegrator:
    def test_wronskian_preserved(self, pot, particle):
        # two independent solutions keep W = psi1 dpsi2 - psi2 dpsi1 constant
        settings = IntegrationSettings()
        xl, xr = settings.window(pot)
        p1, d1, _ = _integrate(pot, particle, 7.0, settings, xr, xl,
                               1.0 + 0.0j, 0.0 + 0.0j)
        p2, d2, _ = _integrate(pot, particle, 7.0, settings, xr, xl,
                               0.0 + 0.0j, 1.0 + 0.0j)
        wronskian = p1 * d2 - p2 * d1
        assert abs(wronskian - 1.0) <= 1e-9

    def test_free_amplitude_preserved(self):
        # |psi| of a free plane wave is a unit constant of the motion
        pot = Potential(0.0, 2.0)
        settings = IntegrationSettings()
        xl, xr = settings.window(pot)
        k = (3.0 ** 2 - 1.0) ** 0.5
        psi0 = complex(1.0, 0.0)
        psi, _, _ = _integrate(pot, Particle(1.0), 3.0, settings, xr, xl,
                               psi0, 1j * k * psi0)
        assert abs(abs(psi) - 1.0) <= 1e-9

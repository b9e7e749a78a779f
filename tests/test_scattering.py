"""Kinematics, band classification, connection coefficients, reflection and
transmission, conserved currents, and the sharp-step limit."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dkpscatter import (
    BoundaryEnergyError,
    ChannelClosedError,
    EvanescentIncidentError,
    InvalidParameterError,
    Particle,
    PoleError,
    Potential,
    Region,
    StepRT,
    boundary_eps,
    classify_region,
    connection_coefficients,
    critical_energies,
    currents,
    hypergeometric_parameters,
    kinematics,
    scattering_coefficients,
    step_rt,
)


class TestPotentialAndParticle:
    def test_value(self):
        pot = Potential(5.0, 3.0)
        assert pot.value(0.0) == 0.0
        assert abs(pot.value(10.0) - 5.0) <= 1e-12
        assert abs(pot.value(-10.0) + 5.0) <= 1e-12

    def test_steepness_positive(self):
        with pytest.raises(InvalidParameterError):
            Potential(5.0, 0.0)
        with pytest.raises(InvalidParameterError):
            Potential(5.0, -2.0)

    def test_finite_parameters(self):
        with pytest.raises(InvalidParameterError):
            Potential(math.inf, 1.0)
        with pytest.raises(InvalidParameterError):
            Particle(math.nan)

    def test_mass_positive(self):
        with pytest.raises(InvalidParameterError):
            Particle(0.0)
        with pytest.raises(InvalidParameterError):
            Particle(-1.0)


class TestKinematics:
    def test_high_energy_values(self, pot, particle):
        k = kinematics(pot, particle, 7.0)
        assert abs(k.nu - math.sqrt(143.0) / 6.0) <= 1e-15
        assert abs(k.mu - math.sqrt(3.0) / 6.0) <= 1e-15
        assert k.nu.imag == 0.0 and k.mu.imag == 0.0
        assert abs(k.lam - complex(0.5, math.sqrt(91.0) / 6.0)) <= 1e-15

    def test_superradiant_band_values(self, pot, particle):
        k = kinematics(pot, particle, 2.5)
        assert abs(k.nu.real - 1.238839062276542) <= 1e-14
        assert abs(k.mu.real - (-0.3818813079129866)) <= 1e-15
        assert k.mu.real < 0  # transmitted momentum reversed in this band

    def test_negative_energy_signs(self, pot, particle):
        k = kinematics(pot, particle, -7.0)
        assert k.nu.real < 0 and k.mu.real < 0
        assert abs(k.nu.real + math.sqrt(3.0) / 6.0) <= 1e-15
        assert abs(k.mu.real + math.sqrt(143.0) / 6.0) <= 1e-15

    def test_evanescent_branch_positive_imaginary(self, pot, particle):
        k = kinematics(pot, particle, 5.0)
        assert k.mu == complex(0.0, 1.0 / 6.0)
        assert k.nu.imag == 0.0
        k4 = kinematics(pot, particle, -5.0)
        assert k4.nu.imag > 0 and k4.nu.real == 0.0

    def test_real_interior_exponent(self, particle):
        # b >= 2a keeps lam real: lam = (b + sqrt(b^2 - 4a^2)) / (2b)
        k = kinematics(Potential(1.0, 3.0), particle, 7.0)
        assert k.lam == complex((3.0 + math.sqrt(5.0)) / 6.0, 0.0)

    def test_alpha_gamma_aliases(self, pot, particle):
        k = kinematics(pot, particle, 7.0)
        assert k.alpha == 1j * k.nu
        assert k.gamma == 1j * k.mu


class TestRegions:
    def test_critical_energies_sorted(self, pot, particle):
        assert critical_energies(pot, particle) == (-6.0, -4.0, 4.0, 6.0)

    @pytest.mark.parametrize("energy,region", [
        (7.0, Region.I),
        (10.0, Region.I),
        (5.0, Region.II),
        (4.2, Region.II),
        (2.5, Region.III),
        (0.0, Region.III),
        (-3.5, Region.III),
        (-5.0, Region.IV),
        (-7.0, Region.V),
        (6.0, Region.BOUNDARY),
        (4.0, Region.BOUNDARY),
        (-4.0, Region.BOUNDARY),
        (-6.0, Region.BOUNDARY),
        (6.0 + 5e-10, Region.BOUNDARY),  # inside the default guard
        (6.0 + 1e-6, Region.I),
    ])
    def test_classification(self, pot, particle, energy, region):
        assert classify_region(pot, particle, energy) is region

    def test_token_strings(self):
        assert Region.III.token == "III"
        assert Region.BOUNDARY.token == "boundary"

    def test_shallow_step_gap(self, particle):
        # a < m: both channels evanescent between a-m and m-a
        pot = Potential(0.3, 1.0)
        assert classify_region(pot, particle, 0.0) is Region.BOUNDARY
        assert classify_region(pot, particle, 2.0) is Region.I

    def test_guard_width_from_environment(self, pot, particle, monkeypatch):
        monkeypatch.setenv("DKP_EPS_BOUNDARY", "0.5")
        assert boundary_eps() == 0.5
        assert classify_region(pot, particle, 4.3) is Region.BOUNDARY
        monkeypatch.delenv("DKP_EPS_BOUNDARY")
        assert classify_region(pot, particle, 4.3) is Region.II

    @pytest.mark.parametrize("raw", ["abc", "-1e-3", "0", "1.5", "inf"])
    def test_invalid_guard_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("DKP_EPS_BOUNDARY", raw)
        with pytest.raises(InvalidParameterError):
            boundary_eps()


class TestHypergeometricParameters:
    def test_frozen_values(self, pot, particle):
        hp = hypergeometric_parameters(kinematics(pot, particle, 7.0))
        tol = 1e-14
        assert abs(hp.a1 - complex(0.5, 3.294266991616996)) <= tol
        assert abs(hp.b1 - complex(0.5, 3.871617260806622)) <= tol
        assert abs(hp.c1 - complex(1.0, 3.986086914367132)) <= tol
        assert abs(hp.a2 - complex(0.5, -0.1144696535605101)) <= tol
        assert abs(hp.b2 - complex(0.5, -0.6918199227501359)) <= tol
        assert abs(hp.c2 - complex(1.0, -3.986086914367132)) <= tol

    def test_internal_relations(self, pot, particle):
        k = kinematics(pot, particle, 2.5)
        hp = hypergeometric_parameters(k)
        assert abs(hp.a1 + hp.a2 - 2 * k.lam) <= 1e-15
        assert abs(hp.b1 + hp.b2 - 2 * k.lam) <= 1e-15
        assert abs(hp.c1 + hp.c2 - 2.0) <= 1e-15
        # third parameter of the transmitted solution
        assert abs((1.0 + hp.a1 - hp.b1) - (1.0 - 2.0 * k.gamma)) <= 1e-15


class TestConnectionCoefficients:
    def test_subdominant_ratios(self, pot, particle):
        hp_k = kinematics(pot, particle, 7.0)
        hp = hypergeometric_parameters(hp_k)
        cc = connection_coefficients(hp_k)
        assert abs(cc.B / cc.A - hp.b1 / hp.c1) <= 1e-12 * abs(hp.b1 / hp.c1)
        assert abs(cc.D / cc.C - hp.a2 / hp.c2) <= 1e-12 * abs(hp.a2 / hp.c2)

    def test_free_case_exact(self, particle):
        # a = 0: the coefficient products cancel term by term, so A and C
        # must come out bitwise exact, not merely close
        cc = connection_coefficients(kinematics(Potential(0.0, 3.0), particle, 7.0))
        assert cc.A == 1.0 + 0.0j
        assert cc.C == 0.0 + 0.0j

    def test_threshold_numerator_pole_raises(self, pot, particle):
        # nu = 0 at E = -a + m puts Gamma(1 - c1) = Gamma(0) in A
        with pytest.raises(PoleError):
            connection_coefficients(kinematics(pot, particle, -4.0))

    def test_one_evanescent_channel_full_reflection(self, pot, particle):
        cc = connection_coefficients(kinematics(pot, particle, 5.0))
        assert abs(abs(cc.C / cc.A) ** 2 - 1.0) <= 1e-13


# From an independent high-order integration of the second-order reduction
# (relative tolerance 1e-13), decomposed against the asymptotic plane waves.
ODE_RT_FIXTURES = [
    (1.5, 2.2795320113133766, -1.2795320113135569),
    (2.5, 2.191764318011325, -1.1917643180115085),
    (3.5, 1.8401099461220165, -0.8401099461220254),
    (7.0, 0.03902243669932923, 0.960977563300833),
    (8.5, 0.001378855329519443, 0.998621144670541),
]


class TestScatteringCoefficients:
    @pytest.mark.parametrize("energy,r_ref,t_ref", ODE_RT_FIXTURES)
    def test_against_integration_fixtures(self, pot, particle, energy, r_ref, t_ref):
        res = scattering_coefficients(pot, particle, energy)
        assert abs(res.R - r_ref) <= 1e-9
        assert abs(res.T - t_ref) <= 1e-9

    def test_unitarity_across_bands(self, pot, particle):
        energies = []
        for grid in (np.linspace(6.2, 9.8, 25), np.linspace(-3.8, 3.8, 25),
                     np.linspace(-9.8, -6.2, 25)):
            energies.extend(grid.tolist())
        for energy in energies:
            res = scattering_coefficients(pot, particle, energy)
            assert abs(res.R + res.T - 1.0) <= 1e-12, f"E={energy}"
            assert res.unitarity_defect == res.R + res.T - 1.0

    def test_amplified_reflection_only_in_band_iii(self, pot, particle):
        for energy in (7.0, 8.5, -7.0, -8.5):
            res = scattering_coefficients(pot, particle, energy)
            assert res.region in (Region.I, Region.V)
            assert 0.0 <= res.R < 1.0 and 0.0 < res.T <= 1.0
        for energy in (-3.5, -1.0, 0.0, 1.5, 2.5, 3.5):
            res = scattering_coefficients(pot, particle, energy)
            assert res.region is Region.III
            assert res.R > 1.0 and res.T < 0.0

    def test_evanescent_bands_exact(self, pot, particle):
        for energy in (4.5, 5.0, 5.5, -4.5, -5.0, -5.5):
            res = scattering_coefficients(pot, particle, energy)
            assert res.R == 1.0 and res.T == 0.0 and res.unitarity_defect == 0.0

    def test_boundary_guard(self, pot, particle):
        for energy in (6.0, 4.0, -4.0, -6.0, 6.0 + 1e-10):
            with pytest.raises(BoundaryEnergyError):
                scattering_coefficients(pot, particle, energy)

    def test_free_particle_exact(self, particle):
        pot = Potential(0.0, 3.0)
        for energy in (1.5, 2.0, 5.0, 9.0):
            res = scattering_coefficients(pot, particle, energy)
            assert res.R == 0.0
            assert res.T == 1.0

    def test_sharp_limit_matches_step_formula(self, particle):
        res = scattering_coefficients(Potential(5.0, 1e4), particle, 2.5)
        ref = step_rt(5.0, 1.0, 2.5)
        assert abs(res.R - ref.R) <= 1e-4


def _gamma_route_rt(a, b, m, energy):
    """R = |C/A|^2 and T = (mu/nu)/|A|^2 at 50 digits, from mp.loggamma of
    the connection-coefficient arguments, independent of the closed form."""
    with mp.workdps(50):
        a, b, m, energy = (mp.mpf(v) for v in (a, b, m, energy))

        def half_wavenumber(excess):
            return mp.sign(excess) * mp.sqrt(excess ** 2 - m ** 2) / (2 * b)

        nu, mu = half_wavenumber(energy + a), half_wavenumber(energy - a)
        disc = b * b - 4 * a * a
        lam = ((b + mp.sqrt(disc)) / (2 * b) if disc >= 0
               else mp.mpc(0.5, mp.sqrt(-disc) / (2 * b)))
        al, ga = 1j * nu, 1j * mu
        a1, b1, c1 = al + lam - ga, al + lam + ga, 1 + 2 * al
        a2, b2, c2 = -al + lam + ga, -al + lam - ga, 1 - 2 * al
        lg = mp.loggamma
        log_a = lg(1 - b1 + a1) + lg(1 - c1) - lg(1 - c1 + a1) - lg(1 - b1)
        log_c = lg(1 - a2 + b2) + lg(1 - c2) - lg(1 - c2 + b2) - lg(1 - a2)
        refl = mp.exp(2 * (mp.re(log_c) - mp.re(log_a)))
        trans = mu / nu * mp.exp(-2 * mp.re(log_a))
        return float(refl), float(trans)


# High energy, shallow and steep steps, a tall step, a real interior
# exponent in band III, a tall shallow step just above its top threshold,
# band III with kappa far above |nu| + |mu| (T underflows to -0.0), 1e-6
# inside each threshold of (5, 3, 1), 1.4e-8 below -a - m (where
# (E + a)^2 - m^2 cancels), and E = 0 with b >> a (where lam rounds near 1).
EXTREME_POINTS = [
    (5.0, 3.0, 1e8), (5.0, 3.0, 1e7), (5.0, 0.01, 1e4), (500.0, 1.0, 2.5),
    (5.0, 1e6, 2.5), (5.0, 20.0, 0.3), (410.0, 0.1, 411.0 + 1e-4),
    (5.0, 1e-3, 3.9),
    (5.0, 3.0, 6.0 + 1e-6), (5.0, 3.0, 4.0 - 1e-6),
    (5.0, 3.0, -4.0 + 1e-6), (5.0, 3.0, -6.0 - 1e-6),
    (15.294991516776768, 0.01597963620779877, -16.29499153081392),
    (1.5, 1e5, 0.0), (2.0, 1e4, 0.0),
]


class TestExtremeParameters:
    @pytest.mark.parametrize("a,b,energy", EXTREME_POINTS)
    def test_against_mpmath_gamma_route(self, a, b, energy):
        res = scattering_coefficients(Potential(a, b), Particle(1.0), energy)
        r_ref, t_ref = _gamma_route_rt(a, b, 1.0, energy)
        scale = max(1.0, abs(r_ref), abs(t_ref))
        assert abs(res.R - r_ref) <= 1e-12 * scale
        assert abs(res.T - t_ref) <= 1e-12 * scale
        assert abs(res.R + res.T - 1.0) <= 1e-12

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(log_b=st.floats(-2.0, 6.0), a=st.floats(0.0, 500.0),
           band=st.sampled_from([Region.I, Region.III, Region.V]),
           log_excess=st.floats(-8.0, 8.0), frac=st.floats(-1.0, 1.0))
    def test_unitarity_and_signs(self, log_b, a, band, log_excess, frac):
        # m = 1; bands I/V sit 10^log_excess past the outer thresholds, band
        # III at frac of the way to its edges
        if band is Region.III:
            energy = frac * (a - 1.0)
        else:
            energy = min(a + 1.0 + 10.0 ** log_excess, 1e8)
            if band is Region.V:
                energy = -energy
        pot, particle = Potential(a, 10.0 ** log_b), Particle(1.0)
        assume(classify_region(pot, particle, energy) is band)
        res = scattering_coefficients(pot, particle, energy)
        assert math.isfinite(res.R) and math.isfinite(res.T)
        # relative to the larger coefficient: near E = 0 with b >> a, R
        # reaches 1e5 and more, where doubles are spaced wider than 1e-12
        assert abs(res.R + res.T - 1.0) <= 1e-12 * max(1.0, res.R)
        if band is Region.III:
            # R = 1 - T rounds to 1.0 once -T drops below half an ulp of 1,
            # as it does for deep tunnelling (kappa well above |nu| + |mu|)
            assert res.T < 0.0
            assert res.R > 1.0 or (res.R == 1.0 and -res.T <= 2.0 ** -52)
        else:
            assert 0.0 <= res.R < 1.0


class TestCurrents:
    @pytest.mark.parametrize("energy", [7.0, 2.5, 1.5, -7.0])
    def test_current_identities(self, pot, particle, energy):
        j = currents(pot, particle, energy)
        res = scattering_coefficients(pot, particle, energy)
        assert abs(-j.reflected / j.incident - res.R) <= 1e-12 * max(1.0, res.R)
        assert abs(j.transmitted / j.incident - res.T) <= 1e-12 * max(1.0, abs(res.T))
        balance = abs(j.incident + j.reflected - j.transmitted)
        assert balance <= 1e-12 * abs(j.incident)

    def test_reflected_opposes_incident(self, pot, particle):
        j = currents(pot, particle, 7.0)
        assert j.incident > 0 and j.reflected < 0

    def test_blocked_transmission_carries_no_flux(self, pot, particle):
        j = currents(pot, particle, 5.0)
        assert j.transmitted == 0.0
        assert abs(j.incident + j.reflected) <= 1e-12 * abs(j.incident)

    def test_evanescent_incident_rejected(self, pot, particle):
        with pytest.raises(EvanescentIncidentError):
            currents(pot, particle, -5.0)

    def test_boundary_rejected(self, pot, particle):
        with pytest.raises(BoundaryEnergyError):
            currents(pot, particle, 4.0)


class TestStepRT:
    def test_frozen_point(self):
        res = step_rt(5.0, 1.0, 2.5)
        assert abs(res.k_incident - 7.433034373659253) <= 1e-14
        assert abs(res.k_transmitted - (-2.29128784747792)) <= 1e-14
        assert abs(res.R - 3.5768222247683066) <= 1e-13
        assert abs(res.T - (-2.5768222247683066)) <= 1e-13

    def test_matches_momentum_mismatch_form(self):
        # recompute from scratch with plain arithmetic
        a, m, e = 5.0, 1.0, 2.5
        ki = math.sqrt((e + a) ** 2 - m * m)
        kt = -math.sqrt((e - a) ** 2 - m * m)
        res = step_rt(a, m, e)
        assert res == StepRT(ki, kt, ((ki - kt) / (ki + kt)) ** 2,
                             1.0 - ((ki - kt) / (ki + kt)) ** 2)

    def test_unitarity(self):
        for e in (1.5, 2.5, 3.5, 7.0, 9.0):
            res = step_rt(5.0, 1.0, e)
            assert res.R + res.T == 1.0

    @pytest.mark.parametrize("energy", [4.5, 5.5, 6.0, -5.0])
    def test_closed_channels_rejected(self, energy):
        with pytest.raises(ChannelClosedError):
            step_rt(5.0, 1.0, energy)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            step_rt(math.nan, 1.0, 2.5)
        with pytest.raises(InvalidParameterError):
            step_rt(5.0, -1.0, 2.5)

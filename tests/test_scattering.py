"""Kinematics, band classification, connection coefficients, reflection and
transmission, conserved currents, and the sharp-step limit."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from mp_reference import band, elementary_rt, gamma_rt
from mp_reference import kinematics as mp_kinematics

from dkpscatter import (
    BoundaryEnergyError,
    ChannelClosedError,
    DkpScatterError,
    EvanescentIncidentError,
    InvalidParameterError,
    NonConvergenceError,
    Particle,
    PoleError,
    Potential,
    RangeError,
    Region,
    StepRT,
    asymptotic_wavefunction,
    classify_region,
    connection_coefficients,
    critical_energies,
    currents,
    hypergeometric_parameters,
    kinematics,
    numeric_rt,
    scattering_coefficients,
    scattering_table,
    step_rt,
    wave_profile,
    wavefunction,
)
from dkpscatter import scattering


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


class TestBandRule:
    @seed(int("b89375b5213dc0ca26c3b13134dc71066c6fc77636f956c3a67ac0980f2da4df"
              "cfceed1c4066e89c6f328ad9277c9cb3", 16))
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(log_m=st.floats(-3.0, 3.0), log_ratio=st.floats(-3.0, 8.0),
           a_sign=st.sampled_from([1.0, -1.0, 0.0]), log_b=st.floats(-2.0, 2.0),
           threshold=st.integers(0, 3),
           place=st.sampled_from(["on", "near", "anywhere"]),
           log_offset=st.floats(-12.0, -6.0), offset_sign=st.sampled_from([1.0, -1.0]),
           frac=st.floats(-1.5, 1.5))
    def test_matches_threshold_comparison(self, log_m, log_ratio, a_sign, log_b,
                                          threshold, place, log_offset,
                                          offset_sign, frac):
        # |a|/m from 1e-3 (the evanescent gap) to 1e8, either sign or a = 0;
        # energies on a threshold, 1e-12 to 1e-6 off one, or across all bands
        m = 10.0 ** log_m
        a = a_sign * m * 10.0 ** log_ratio
        ec = critical_energies(Potential(a, 1.0), Particle(m))[threshold]
        if place == "on":
            energy = ec
        elif place == "near":
            energy = ec + offset_sign * 10.0 ** log_offset
        else:
            energy = frac * (abs(a) + m)
        pot, particle = Potential(a, 10.0 ** log_b), Particle(m)
        assert classify_region(pot, particle, energy).token == band(a, m, energy)


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

    def test_overflow_raises(self):
        # |A| is about e^3283 at (a, b, m, E) = (25, 0.002, 10, 0.8): cmath.exp of
        # the log ratio raised a raw OverflowError
        with pytest.raises(RangeError):
            connection_coefficients(
                kinematics(Potential(25.0, 0.002), Particle(10.0), 0.8))

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
        for energy in (1.5, 2.0, 5.0, 9.0, -2.0, -9.0):
            res = scattering_coefficients(pot, particle, energy)
            assert res.R == 0.0
            assert res.T == 1.0

    def test_sharp_limit_matches_step_formula(self, particle):
        res = scattering_coefficients(Potential(5.0, 1e4), particle, 2.5)
        ref = step_rt(5.0, 1.0, 2.5)
        assert abs(res.R - ref.R) <= 1e-4


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


@st.composite
def _large_ratio_points(draw):
    """(a, b, m, E) with a/b up to 1e20 and m down to 1e-9 a: band III at
    0.999 of the way to its edges, or bands I and V m 10^(-6..3) past the
    outer thresholds."""
    a = 10.0 ** draw(st.floats(-3.0, 3.0))
    b = a / 10.0 ** draw(st.floats(-2.0, 20.0))
    m = a * 10.0 ** draw(st.floats(-9.0, -0.01))
    region = draw(st.sampled_from([Region.I, Region.III, Region.V]))
    if region is Region.III:
        energy = 0.999 * draw(st.floats(-(a - m), a - m))
    else:
        energy = a + m + m * 10.0 ** draw(st.floats(-6.0, 3.0))
        if region is Region.V:
            energy = -energy
    return a, b, m, energy


class TestExtremeParameters:
    @pytest.mark.parametrize("a,b,energy", EXTREME_POINTS)
    def test_against_mpmath_gamma_route(self, a, b, energy):
        res = scattering_coefficients(Potential(a, b), Particle(1.0), energy)
        r_ref, t_ref = gamma_rt(a, b, 1.0, energy)
        scale = max(1.0, abs(r_ref), abs(t_ref))
        assert abs(res.R - r_ref) <= 1e-12 * scale
        assert abs(res.T - t_ref) <= 1e-12 * scale
        assert abs(res.R + res.T - 1.0) <= 1e-12

    @pytest.mark.parametrize("a,b,m,energy", [
        # band III with b >> |a| and |E| << |a|, where |nu| - |mu| ~ aE/b^2
        # cancels in doubles and is the whole denominator
        (1.0, 1e8, 0.1, 1e-8),
        (1.0, 1e16, 0.5, 1e-15),
        # band I 1.01e-9 past a + m, where the rounding of E - a was most of
        # (E - a)^2 - m^2
        (0.3, 1.0, 1.0, 1.30000000101),
    ])
    def test_exact_wave_number_gap(self, a, b, m, energy):
        res = scattering_coefficients(Potential(a, b), Particle(m), energy)
        r_ref, t_ref = gamma_rt(a, b, m, energy)
        tol = 1e-12 * max(1.0, abs(r_ref), abs(t_ref))
        assert abs(res.R - r_ref) <= tol and abs(res.T - t_ref) <= tol

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

    @seed(int("f1a760bf44a5fbb16072cb5491c2614e062d4142678eb12a3534be5bf79c47ff"
              "d5c567e7a6510fd868bfe6ae4f64362f", 16))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(point=_large_ratio_points())
    def test_large_ratio_against_mpmath(self, point):
        # kappa and |nu| + |mu| near a/b, up to 1e20; only the guard may raise
        a, b, m, energy = point
        try:
            res = scattering_coefficients(Potential(a, b), Particle(m), energy)
        except BoundaryEnergyError:
            return
        r_ref, t_ref = gamma_rt(a, b, m, energy)
        tol = 1e-12 * max(1.0, abs(r_ref), abs(t_ref))
        assert abs(res.R - r_ref) <= tol and abs(res.T - t_ref) <= tol


ENTRY_POINTS = {
    "scattering_coefficients": scattering_coefficients,
    "classify_region": classify_region,
    "currents": currents,
    "kinematics": kinematics,
    "numeric_rt": numeric_rt,
    "wavefunction": lambda pot, par, e: wavefunction(0.1, "incident", pot, par, e),
    "asymptotic_wavefunction":
        lambda pot, par, e: asymptotic_wavefunction(0.1, "reflected", pot, par, e),
}


# (a, b, E, error, the entry points that raise it)
_TYPED_ERRORS = [
    (5.0, 3.0, math.inf, InvalidParameterError, sorted(ENTRY_POINTS)),
    (5.0, 3.0, -math.inf, InvalidParameterError, sorted(ENTRY_POINTS)),
    (5.0, 3.0, math.nan, InvalidParameterError, sorted(ENTRY_POINTS)),
    # a Gamma ratio of the waves and fluxes overflows at |nu| = 5e154
    (1e155, 1.0, 0.0, RangeError, ["asymptotic_wavefunction", "currents", "wavefunction"]),
    # nu and mu of 1e-300, 1 - lam of 1e-600: the R/T denominator and |A|^2
    # underflow, and |2bx| = 2e299 at x = 0.1
    (5.0, 1e300, 7.0, RangeError,
     ["asymptotic_wavefunction", "currents", "scattering_coefficients", "wavefunction"]),
    # a/b, and E/b, of 1e310: nu, mu and lam overflow
    (1e10, 1e-300, 0.0, RangeError, sorted(ENTRY_POINTS)),
    (5.0, 1e-300, 1e10, RangeError, sorted(ENTRY_POINTS)),
    (5.0, 1e-310, 7.0, RangeError, sorted(ENTRY_POINTS)),
    # |nu| of 1.7e199 and 8.7e199, past the waves' 2^40: no digit of their
    # phases is left
    (5.0, 3.0, 1e200, RangeError, ["asymptotic_wavefunction", "wavefunction"]),
    (1e-300, 1e-200, 2.0, RangeError, ["asymptotic_wavefunction", "wavefunction"]),
]

# points whose inputs are far from 1 but whose ratios are ordinary, where
# every entry point raised RangeError while (E + a)^2 or b^2 left the range:
# (a, b, E, the entry points that return there or reach their own limit)
_LIFTED = [
    (5.0, 3.0, 1e200, ["classify_region", "currents", "kinematics", "numeric_rt",
                       "scattering_coefficients"]),
    (1e155, 1.0, 0.0, ["classify_region", "kinematics", "numeric_rt",
                       "scattering_coefficients"]),
    (5.0, 1e300, 7.0, ["classify_region", "kinematics", "numeric_rt"]),
    (1e-300, 1e-200, 2.0, ["classify_region", "currents", "kinematics", "numeric_rt",
                           "scattering_coefficients"]),
]


class TestOutOfRangeInputs:
    @pytest.mark.parametrize("a,b,energy,error,entry", [
        (*row[:4], entry) for row in _TYPED_ERRORS for entry in row[4]])
    def test_typed_error(self, entry, a, b, energy, error):
        with pytest.raises(error):
            ENTRY_POINTS[entry](Potential(a, b), Particle(1.0), energy)

    @pytest.mark.parametrize("a,b,energy,entry", [
        (*row[:3], entry) for row in _LIFTED for entry in row[3]])
    def test_lifted_refusal(self, a, b, energy, entry):
        pot, particle = Potential(a, b), Particle(1.0)
        if entry == "numeric_rt" and b < 1e300:
            # |nu| from 5e154 up needs more slices than the cap
            with pytest.raises(NonConvergenceError):
                numeric_rt(pot, particle, energy)
            return
        res = ENTRY_POINTS[entry](pot, particle, energy)
        if entry == "scattering_coefficients":
            # R = 2, T = -1 in band III at (1e155, 1, 1, 0); R = 0, T = 1
            # in band I at the others
            r_ref, t_ref = elementary_rt(a, b, 1.0, energy)
            assert abs(res.R - r_ref) <= 1e-15 and abs(res.T - t_ref) <= 1e-15
        elif entry == "classify_region":
            assert res.token == band(a, 1.0, energy)
        elif entry == "kinematics":
            for value, ref in zip(res, mp_kinematics(a, b, 1.0, energy)):
                assert abs(value - complex(ref)) <= 1e-15 * abs(ref)
        elif entry == "numeric_rt":
            # b = 1e300 is the sharp step
            ref = step_rt(a, 1.0, energy)
            assert abs(res.R - ref.R) <= 1e-10 and abs(res.T - ref.T) <= 1e-10
        else:
            assert all(map(math.isfinite, res))
            assert abs(res.incident + res.reflected - res.transmitted) \
                <= 1e-12 * res.incident

    def test_underflowing_rt_terms(self):
        # band III at E = 0 with nu = -mu ~ 1e-150 and 1 - lam ~ 1e-300:
        # every term of R and T underflows
        with pytest.raises(RangeError):
            scattering_coefficients(Potential(3.0, 1e150), Particle(1.0), 0.0)

    @pytest.mark.parametrize("a,b,energy", [
        (3.0, 1e150, 0.0),    # |A|^2 underflows: the incident flux reads 0
        (3.2, 0.002, -1.6),   # |T| ~ 5e-312, so |A|^2 overflows
    ])
    def test_currents_out_of_range(self, a, b, energy):
        with pytest.raises(RangeError):
            currents(Potential(a, b), Particle(1.0), energy)

    def test_kinematics_underflowing_b_squared(self):
        # b*b underflows at b = 1e-160 and 1e-300 as the inputs are, but not
        # on the scale lam and nu are formed on
        for b in (1e-160, 1.5e-154, 1e-300):
            k = kinematics(Potential(0.0, b), Particle(1.0), 2.0)
            assert k.lam == 1.0 and k.mu == k.nu
            assert abs(k.nu - math.sqrt(3.0) / (2.0 * b)) <= 1e-15 * k.nu.real

    @seed(int("993d45f648d3494766474ff9d9f3ed76d6a7c4c93ecca9d5a378b9f704ed7e48"
              "4edb383f366a364fc660f5efd9d2f04b", 16))
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(log_a=st.floats(-300.0, 300.0), log_b=st.floats(-300.0, 300.0),
           log_m=st.floats(-300.0, 300.0), log_e=st.floats(-300.0, 300.0),
           a_sign=st.sampled_from([1.0, -1.0]), e_sign=st.sampled_from([1.0, -1.0]))
    def test_finite_and_unitary_or_typed_error(self, log_a, log_b, log_m, log_e,
                                               a_sign, e_sign):
        pot = Potential(a_sign * 10.0 ** log_a, 10.0 ** log_b)
        particle, energy = Particle(10.0 ** log_m), e_sign * 10.0 ** log_e
        try:
            res = scattering_coefficients(pot, particle, energy)
        except DkpScatterError:
            pass
        else:
            assert math.isfinite(res.R) and math.isfinite(res.T)
            assert abs(res.R + res.T - 1.0) <= 1e-12 * max(1.0, res.R)
        for entry in (classify_region, kinematics, currents,
                      lambda pot, particle, e: step_rt(pot.a, particle.m, e)):
            try:
                values = entry(pot, particle, energy)
            except DkpScatterError:
                continue
            if entry is not classify_region:
                assert all(map(cmath.isfinite, values))


def _bits(x):
    return np.float64(x).tobytes()


# parameter sets of test_typed_error and test_underflowing_rt_terms, a gap
# (|a| < m) and the (5, 3, 1) step
_ARRAY_PARAMS = [
    (5.0, 3.0, 1.0), (1e155, 1.0, 1.0), (5.0, 1e300, 1.0), (1e-300, 1e-200, 1.0),
    (3.0, 1e150, 1.0), (0.3, 1.0, 1.0), (0.0, 2.0, 1.0), (1.0, 1e81, 0.5),
]


@st.composite
def _energy_arrays(draw):
    """(a, b, m) at the extremes above, log-uniform over 1e+-300 or moderate,
    and up to 16 energies: exact thresholds and thresholds +-1e-9, the
    window around them (the gap for |a| < m), non-finite values, +-1e200, 0,
    and log-uniform magnitudes over 1e+-300."""
    log = st.floats(-300.0, 300.0)
    sign = st.sampled_from([1.0, -1.0])
    a, b, m = draw(st.one_of(
        st.sampled_from(_ARRAY_PARAMS),
        st.tuples(st.builds(lambda s, x: s * 10.0 ** x, sign, log),
                  log.map(lambda x: 10.0 ** x), log.map(lambda x: 10.0 ** x)),
        st.tuples(st.floats(-10.0, 10.0), st.floats(-3.0, 6.0).map(lambda x: 10.0 ** x),
                  st.floats(0.3, 3.0))))
    thresholds = (-a - m, -a + m, a - m, a + m)
    near = st.builds(lambda t, d: t + d, st.sampled_from(thresholds),
                     st.sampled_from([0.0, 1e-9, -1e-9, 1.01e-9, -1.01e-9, 1e-6]))
    window = abs(a) + 3.0 * m
    energy = st.one_of(
        near,
        st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 0.0]),
        st.floats(-window, window),
        st.builds(lambda s, x: s * 10.0 ** x, sign, log))
    return a, b, m, draw(st.lists(energy, min_size=1, max_size=16))


class TestArrayPath:
    """The array path against its batch of one, scattering_coefficients."""

    @seed(int("ddd7ca06ea21fd4e79680afbe23c689fc3fd7bd10036ac833e12900190588327"
              "2ab6cde1d03c398e6e4e309ae76844d8", 16))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_energy_arrays())
    @example(case=(5.0, 1e300, 1.0, [7.0]))  # R and T alone not representable
    def test_matches_scalar_and_reference(self, case):
        a, b, m, energies = case
        pot, particle = Potential(a, b), Particle(m)
        table = scattering_table(pot, particle, np.array(energies))

        def same_kinematics(i, energy):
            # kinematics decides without R and T, and gets the table's bits
            k = kinematics(pot, particle, energy)
            assert np.array(k, complex).tobytes() == np.array(
                (table.nu[i], table.mu[i], table.lam), complex).tobytes()

        for i, energy in enumerate(energies):
            try:
                res = scattering_coefficients(pot, particle, energy)
            except DkpScatterError as exc:
                err = table.error(i)
                assert not table.ok[i]
                assert type(err) is type(exc) and str(err) == str(exc)
                if str(exc).startswith("R and T not representable"):
                    same_kinematics(i, energy)
                continue
            assert table.ok[i] and table.error(i) is None
            same_kinematics(i, energy)
            assert table.region[i] is res.region is classify_region(pot, particle, energy)
            assert _bits(table.R[i]) == _bits(res.R)
            assert _bits(table.T[i]) == _bits(res.T)
            if res.region in (Region.II, Region.IV):
                assert (res.R, res.T) == (1.0, 0.0)
                continue
            nu, mu = table.nu[i].real, table.mu[i].real
            r_ref, t_ref = elementary_rt(a, b, m, energy)
            # the exponents 2 pi (|nu| + |mu|) and 2 pi kappa carry a rounding
            # error of about eps times their size into R and T
            big = max(abs(nu) + abs(mu), table.lam.imag)
            tol = (1e-14 + 2.0 * math.pi * big * 2.0 ** -52) \
                * max(1.0, abs(r_ref), abs(t_ref))
            assert abs(res.R - r_ref) <= tol and abs(res.T - t_ref) <= tol

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_energy_arrays(), k=st.integers(-1000, 1000))
    def test_power_of_two_scale(self, case, k):
        # the table at 2^k (a, b, m, E) has the bits of the table at (a, b, m,
        # E) wherever both are ok; only the absolute guard tells them apart
        a, b, m, energies = case
        with np.errstate(over="ignore"):
            scaled = np.ldexp([a, b, m, *energies], k)
        exact = np.ldexp(scaled, -k) == [a, b, m, *energies]
        assume(exact[:3].all())
        tables = [scattering_table(Potential(a_, b_), Particle(m_), e)
                  for a_, b_, m_, *e in ([a, b, m, *energies], scaled.tolist())]
        for i in np.flatnonzero(exact[3:]):
            errors = [table.error(i) for table in tables]
            if not any(isinstance(err, BoundaryEnergyError) for err in errors):
                assert [type(err) for err in errors[1:]] == [type(errors[0])]
            if tables[0].ok[i] and tables[1].ok[i]:
                assert tables[0].region[i] is tables[1].region[i]
                assert tables[0].lam == tables[1].lam
                for field in ("R", "T", "nu", "mu"):
                    first, second = (getattr(table, field)[i] for table in tables)
                    assert first.tobytes() == second.tobytes()

    def test_integer_parameters(self):
        # Python ints for a, b, m and E give the bits of the same floats: numpy
        # scales a Python int by a power of two in float16 unless told otherwise
        ints, floats = (5, 3, 1), (5.0, 3.0, 1.0)
        for energy in (2, 8, -7):
            tables = [scattering_table(Potential(a, b), Particle(m), (energy,))
                      for a, b, m in (ints, floats)]
            for field in ("R", "T", "nu", "mu"):
                first, second = (getattr(table, field) for table in tables)
                assert first.tobytes() == second.tobytes()
            assert tables[0].lam == tables[1].lam
            results = [(numeric_rt(Potential(a, b), Particle(m), e), step_rt(a, m, e))
                       for a, b, m, e in ((*ints, energy), (*floats, float(energy)))]
            assert results[0] == results[1]
        # and an int beyond int64, which numpy cannot take as an integer
        assert step_rt(5, 1, 10**20) == step_rt(5.0, 1.0, 1e20)
        assert scattering_table(Potential(10**20, 3), Particle(1), (2,)).R[0] == 2.0

    def test_subnormal_denominator(self):
        # band III at E = 0 with 1 - lam ~ a^2/b^2: the denominator is S alone,
        # 4 sin^2(pi (1 - lam)), subnormal at b = 1e81, where R kept about
        # three digits; normal at b = 1e77
        particle = Particle(0.5)
        with pytest.raises(RangeError, match="not representable"):
            scattering_coefficients(Potential(1.0, 1e81), particle, 0.0)
        pot = Potential(1.0, 1e77)
        res = scattering_coefficients(pot, particle, 0.0)
        r_ref, t_ref = elementary_rt(1.0, 1e77, 0.5, 0.0)
        assert abs(res.R - r_ref) <= 1e-14 * r_ref
        assert abs(res.T - t_ref) <= 1e-14 * r_ref

    def test_exponent_rounding_past_one(self):
        # kappa and 2|nu| round to the same double, about 5e56, far past the
        # reach of a gap taken as their difference; the gap formed from the
        # inputs is -1.2e-58, so R = 2 and T = -1 (mpmath at 200 digits)
        res = scattering_coefficients(Potential(9269899972396.64, 8.771065157137887e-45),
                                      Particle(1.1332601923732985e-115),
                                      -1.1537069532307314)
        assert res.R == 2.0 and res.T == -1.0

    def test_rounding_of_negligible_terms(self):
        # big = |nu| + |mu| ~ 1.4e15 puts the exponents' rounding error near
        # 2, but S is e^{-9e15} of the sinh terms, so no term with that error
        # reaches R and T, which keep every digit
        res = scattering_coefficients(Potential(5.0, 3.0), Particle(1.0), 4.3e15)
        r_ref, t_ref = elementary_rt(5.0, 3.0, 1.0, 4.3e15)
        assert abs(res.R - r_ref) <= 1e-16 and abs(res.T - t_ref) <= 1e-16

    def test_rounding_of_a_moderate_gap(self):
        # band III with a/b from 1e13 to 1e15: kappa - (|nu| + |mu|) is of
        # order 1 and, as a difference of two doubles near a/b, carried an
        # exponent error of up to 1.4 into R and T; T from 60-digit mpmath
        for a, b, m, t_ref in [(1.0, 1e-15, 2.5e-8, -0.140366922694120),
                               (1.0, 1e-13, 3e-7, -0.0591645112940785),
                               (1.0, 2e-15, 3.2e-8, -0.200188583612823)]:
            pot, particle = Potential(a, b), Particle(m)
            res = scattering_coefficients(pot, particle, 0.0)
            table = scattering_table(pot, particle, [0.0, 0.0])
            assert res.region is Region.III and table.ok.all()
            for refl, trans in [(res.R, res.T), *zip(table.R, table.T)]:
                assert abs(trans - t_ref) <= 1e-14 and abs(refl - (1.0 - t_ref)) <= 1e-14

    def test_tokens(self, pot, particle):
        # every band, guarded and non-finite energies included
        table = scattering_table(pot, particle, [-8.0, -5.0, -4.0, 0.0, 5.0, 7.0, math.nan])
        assert table.tokens.tolist() == [region.token for region in table.region]
        assert table.tokens.tolist() == ["V", "IV", "boundary", "III", "II", "I", "boundary"]

    def test_energies_must_be_one_dimensional(self, pot, particle):
        with pytest.raises(InvalidParameterError):
            scattering_table(pot, particle, 7.0)
        with pytest.raises(InvalidParameterError):
            scattering_table(pot, particle, [[7.0]])


class _Formed(Exception):
    pass


class TestDecisionWithoutRT:
    """Every entry point but scattering_coefficients and scattering_table
    decides its energy without forming R and T."""

    @pytest.mark.parametrize("energy", [7.0, 2.5])
    def test_rt_never_formed(self, monkeypatch, pot, particle, energy):
        def formed(*args):
            raise _Formed

        monkeypatch.setattr(scattering, "_propagating_rt", formed)
        k = kinematics(pot, particle, energy)
        assert classify_region(pot, particle, energy).token == band(5.0, 1.0, energy)
        assert all(map(math.isfinite, currents(pot, particle, energy)))
        connection_coefficients(k)
        for kind in ("incident", "reflected", "transmitted"):
            assert np.isfinite(wave_profile((-0.5, 0.0, 0.5), kind, pot, particle,
                                            energy)).all()
            asymptotic_wavefunction(-3.0, kind, pot, particle, energy)
        assert abs(numeric_rt(pot, particle, energy).unitarity_defect) < 1e-10
        with pytest.raises(_Formed):
            scattering_coefficients(pot, particle, energy)
        with pytest.raises(_Formed):
            scattering_table(pot, particle, (energy,))


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

    @pytest.mark.parametrize("a,energy", [(5.0, 0.0), (5.0, 5e-324), (1e200, 3.0),
                                          (1e308, 1.7e308)])
    def test_out_of_range(self, a, energy):
        # k_i = -k_t, the pole of R, at the first three (k_i and k_t round to
        # opposite values at the third); E + a overflows at the last
        with pytest.raises(RangeError):
            step_rt(a, 1.0, energy)

    @pytest.mark.parametrize("a,m,energy", [
        (1e-160, 1e-161, 5e-161), (1e-300, 1e-301, 5e-301), (5.0, 1.0, 1e200),
        (1e300, 1e299, 5e299), (1.0, 0.3, 1.3 + 1e-13), (5.0, 1.0, 6.0 + 1e-9),
        (15.294991516776768, 1.0, -16.29499153081392)])
    def test_far_from_unit_scale(self, a, m, energy):
        # (E +- a)^2 underflows, or overflows, as the inputs are: R =
        # 3.89356603575848 at the first, second and fourth, and 2.5e-399,
        # which rounds to 0, at the third.  The last three sit just past a
        # threshold, where (E +- a)^2 - m^2 cancels: k_t (k_i at the last) is
        # 4.6e-5, 2.5e-10 and 4.5e-10 off when formed as a difference of squares
        res = step_rt(a, m, energy)
        with mp.workdps(50):
            k_i, k_t = (mp.sign(w) * mp.sqrt(w * w - mp.mpf(m) ** 2)
                        for w in (mp.fadd(energy, a, exact=True),
                                  mp.fsub(energy, a, exact=True)))
            r_ref = float(((k_i - k_t) / (k_i + k_t)) ** 2)
            assert abs(res.k_incident - k_i) <= 1e-15 * abs(k_i)
            assert abs(res.k_transmitted - k_t) <= 1e-15 * abs(k_t)
        assert abs(res.R - r_ref) <= 1e-15 * r_ref and res.T == 1.0 - res.R

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            step_rt(math.nan, 1.0, 2.5)
        with pytest.raises(InvalidParameterError):
            step_rt(5.0, -1.0, 2.5)

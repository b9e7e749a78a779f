"""Direct-integration route: agreement with frozen fixtures and with the
closed form, conservation properties, and failure modes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkpscatter import (
    BoundaryEnergyError,
    ChannelClosedError,
    DkpScatterError,
    NonConvergenceError,
    Particle,
    Potential,
    Region,
    numeric_rt,
    scattering_coefficients,
)
from dkpscatter import oracle
from dkpscatter.oracle import _magnus_pass, _passes

# Same independent fixtures as the analytic tests (high-order integrator at
# relative tolerance 1e-13, separate implementation).
ODE_RT_FIXTURES = [
    (1.5, 2.2795320113133766, -1.2795320113135569),
    (2.5, 2.191764318011325, -1.1917643180115085),
    (3.5, 1.8401099461220165, -0.8401099461220254),
    (7.0, 0.03902243669932923, 0.960977563300833),
    (8.5, 0.001378855329519443, 0.998621144670541),
]

# R, T, steps and error_estimate at those energies as passes run one at a
# time gave them, before the passes of up to 1,024 slices were built together
PINNED_BITS = [
    (1.5, "0x1.23c7b477635fcp+1", "-0x1.478f68eec6bdap+0", 4032, "0x1.ef00000000000p-38"),
    (2.5, "0x1.188bbbb133027p+1", "-0x1.311777626606fp+0", 4032, "0x1.3944000000000p-37"),
    (3.5, "0x1.d7117207a38a2p+0", "-0x1.ae22e40f4712fp-1", 4032, "0x1.09ca000000000p-38"),
    (7.0, "0x1.3fabfb2de282ap-5", "0x1.ec05404d21d21p-1", 4032, "0x1.038b000000000p-40"),
    (8.5, "0x1.69756a2f7a056p-10", "0x1.ff4b454ae8441p-1", 1984, "0x1.5338000000000p-39"),
]


class TestNumericRT:
    @pytest.mark.parametrize("energy,r_ref,t_ref", ODE_RT_FIXTURES)
    def test_against_fixtures(self, pot, particle, energy, r_ref, t_ref):
        res = numeric_rt(pot, particle, energy)
        assert abs(res.R - r_ref) <= 1e-7
        assert abs(res.T - t_ref) <= 1e-7

    @pytest.mark.parametrize("k", [520, 900])
    def test_power_of_two_scale(self, pot, particle, k):
        # the integration runs on the ratios of (a, b, m, E): at 2^k times
        # (5, 3, 1, E), where (E +- a)^2 overflows as the inputs are, every
        # pass and so R, T and the slice count are those at (5, 3, 1, E)
        far_pot = Potential(math.ldexp(5.0, k), math.ldexp(3.0, k))
        far_particle = Particle(math.ldexp(1.0, k))
        for energy, _, _ in ODE_RT_FIXTURES:
            ref = numeric_rt(pot, particle, energy)
            res = numeric_rt(far_pot, far_particle, math.ldexp(energy, k))
            assert (res.R.hex(), res.T.hex(), res.steps) \
                == (ref.R.hex(), ref.T.hex(), ref.steps)

    def test_default_unitarity(self, pot, particle):
        for energy in (1.5, 2.5, 7.0, -7.0):
            res = numeric_rt(pot, particle, energy)
            assert abs(res.unitarity_defect) <= 1e-9, f"E={energy}"
            assert res.steps > 0

    def test_error_bounded_by_tolerance(self, pot, particle):
        # the last two passes differ by at most the stopping tolerance, and
        # the difference, reported as error_estimate, bounds the true error
        res = numeric_rt(pot, particle, 2.5)
        ana = scattering_coefficients(pot, particle, 2.5)
        scale = max(1.0, abs(res.R), abs(res.T))
        assert 0.0 < res.error_estimate <= 1e-11 * scale
        assert max(abs(res.R - ana.R), abs(res.T - ana.T)) <= res.error_estimate
        assert abs(res.R + res.T - 1.0) <= 1e-12

    @pytest.mark.parametrize("energy", [2.5, 7.0])
    def test_slice_count(self, pot, particle, energy):
        # 4,032 slices with the 6th-order step (passes of 64 to 2,048); the
        # 4th-order step took 32,704
        assert numeric_rt(pot, particle, energy).steps <= 8128

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
           frac=st.floats(-0.99, 0.99), ratio=st.floats(1.0, 1000.0))
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

    @pytest.mark.parametrize("a,b,energy", [
        (5.0, 0.01, 7.0),    # (|E| + a)/b = 1200
        (5.0, 0.05, 7.0),
        (500.0, 1.0, 2.5),   # q ~ a^2 across the whole window
    ])
    def test_long_windows(self, a, b, energy):
        pot, particle = Potential(a, b), Particle(1.0)
        res = numeric_rt(pot, particle, energy)
        ana = scattering_coefficients(pot, particle, energy)
        scale = max(1.0, abs(ana.R), abs(ana.T))
        assert abs(res.R - ana.R) <= 1e-10 * scale
        assert abs(res.T - ana.T) <= 1e-10 * scale

    def test_aliased_passes_never_count(self):
        # 64 and 128 slices advance the wave by 47 and 24 radians a slice
        # here, and agree to 1e-11 on R = 1, T = 0; the true T is -1.3e-6
        pot, particle = Potential(5.0, 5.0 / 107.0), Particle(1.0)
        res = numeric_rt(pot, particle, 0.0)
        ana = scattering_coefficients(pot, particle, 0.0)
        assert abs(res.T - ana.T) <= 1e-10
        assert abs(res.R - ana.R) <= 1e-10

    def test_deep_tunnelling(self):
        # band III with |T| ~ 5e-312: coarse passes overflow, and a result
        # must come back finite and close or as a typed error
        pot, particle = Potential(3.2, 0.002), Particle(1.0)
        ana = scattering_coefficients(pot, particle, -1.6)
        try:
            res = numeric_rt(pot, particle, -1.6)
        except DkpScatterError:
            return
        scale = max(1.0, abs(ana.R), abs(ana.T))
        assert abs(res.R - ana.R) <= 1e-8 * scale
        assert abs(res.T - ana.T) <= 1e-8 * scale

    @pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024,
                        reason="long double is double here")
    def test_barrier_beyond_double_range(self):
        # band III at E = 0 with a barrier of about e^800: the state leaves the
        # double range on every pass, and T underflows to 0
        pot, particle = Potential(1.5, 1.5 / 1000.0), Particle(1.0)
        res = numeric_rt(pot, particle, 0.0)
        ana = scattering_coefficients(pot, particle, 0.0)
        assert (ana.R, ana.T) == (1.0, 0.0)
        assert res.R == 1.0 and res.T == 0.0

    @pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024,
                        reason="long double is double here")
    def test_non_finite_pass_never_counts(self, monkeypatch):
        # band III behind a barrier beyond the double range: the
        # 65,536-slice pass overflows in its float64 batch product, and the
        # next two passes agree on the closed form's R = 1, T = -0.0
        finite = []

        def recorded(*args):
            y = _magnus_pass(*args)
            finite.append(bool(np.isfinite(y).all()))
            return y

        monkeypatch.setattr(oracle, "_magnus_pass", recorded)
        pot, particle = Potential(2.0, 5e-4), Particle(1.0)
        res = numeric_rt(pot, particle, 0.5)
        ana = scattering_coefficients(pot, particle, 0.5)
        assert not all(finite)
        assert finite[-2:] == [True, True]
        assert (res.R, res.T) == (ana.R, ana.T)

    def test_step_budget_exhaustion(self, pot, particle, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SLICES", 100)
        with pytest.raises(NonConvergenceError):
            numeric_rt(pot, particle, 7.0)

    @pytest.mark.parametrize("energy", [1e5, 1e6])
    def test_pass_that_cannot_be_compared(self, pot, particle, monkeypatch,
                                          energy):
        # the aliasing floor puts the first pass at 524,288 slices at E = 1e5
        # and past the cap at 1e6: no second pass fits, so none runs
        runs = _recorded_passes(monkeypatch)
        built = _recorded_slices(monkeypatch)
        with pytest.raises(NonConvergenceError,
                           match="more slices per pass than 524,288 allow"):
            numeric_rt(pot, particle, energy)
        assert runs == [] and built == []

    @pytest.mark.parametrize("energy", [5.0, -5.0])
    def test_closed_channel_rejected(self, pot, particle, energy):
        with pytest.raises(ChannelClosedError):
            numeric_rt(pot, particle, energy)

    def test_boundary_rejected(self, pot, particle):
        with pytest.raises(BoundaryEnergyError):
            numeric_rt(pot, particle, 6.0)


def _recorded_passes(monkeypatch):
    """(arguments, slices, state) of every pass numeric_rt compares."""
    runs = []

    def recorded(*args):
        for n, y in _passes(*args):
            runs.append((args, n, y))
            yield n, y

    monkeypatch.setattr(oracle, "_passes", recorded)
    return runs


def _recorded_slices(monkeypatch):
    """The slice count of every call that builds slices."""
    built = []
    slices = oracle._slices

    def recorded(*args):
        built.append(len(args[-1]))
        return slices(*args)

    monkeypatch.setattr(oracle, "_slices", recorded)
    return built


def _alone(a, b, m, energy, x_right, n, y):
    """The state of the pass of n slices run alone."""
    return _magnus_pass(a, b, m, energy, x_right, -2.0 * x_right / n, n, y)


class TestGroupedPasses:
    """The passes of up to _BATCH slices are built in one array, and each has
    the bits of the same pass run alone."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(band=st.sampled_from([Region.I, Region.III, Region.V]),
           a=st.floats(1.5, 20.0), log_excess=st.floats(-3.0, 1.3),
           frac=st.floats(-0.99, 0.99), ratio=st.floats(1.0, 1000.0),
           first=st.sampled_from([64, 128, 256, 512, 1024]))
    def test_each_pass_as_alone(self, band, a, log_excess, frac, ratio, first):
        # the bands and widths of test_agrees_with_closed_form, m = 1, from
        # any first pass; coarse passes may overflow, and must do so alike
        if band is Region.III:
            energy = frac * (a - 1.0)
        else:
            energy = a + 1.0 + 10.0 ** log_excess
            if band is Region.V:
                energy = -energy
        b = (abs(energy) + a) / ratio
        x_right = 14.5 / b
        y = np.array([1.0, 0.75j], dtype=np.clongdouble)
        count = (oracle._BATCH // first).bit_length()
        with np.errstate(all="ignore"):
            grouped = list(itertools.islice(
                _passes(a, b, 1.0, energy, x_right, first, y), count))
            assert [n for n, _ in grouped] == [first << i for i in range(count)]
            for n, state in grouped:
                np.testing.assert_array_equal(
                    state, _alone(a, b, 1.0, energy, x_right, n, y))

    @pytest.mark.parametrize("energy,r_bits,t_bits,steps,err_bits", PINNED_BITS)
    def test_fixture_bits(self, pot, particle, energy, r_bits, t_bits, steps,
                          err_bits):
        res = numeric_rt(pot, particle, energy)
        assert (res.R.hex(), res.T.hex(), res.steps, res.error_estimate.hex()) \
            == (r_bits, t_bits, steps, err_bits)

    @pytest.mark.parametrize("a,b,energy,first", [
        (5.0, 3.0, 7.0, 64),      # the whole group
        (5.0, 3.0, 50.0, 256),    # the aliasing floor starts the group
        (5.0, 0.5, 30.0, 1024),   # a group of one pass at the floor
    ])
    def test_compared_passes(self, monkeypatch, a, b, energy, first):
        # numeric_rt compares the passes in order from the first, each as
        # alone, and steps counts only those it compared
        runs = _recorded_passes(monkeypatch)
        res = numeric_rt(Potential(a, b), Particle(1.0), energy)
        sizes = [n for _, n, _ in runs]
        assert sizes == [first << i for i in range(len(sizes))]
        assert res.steps == sum(sizes)
        for args, n, state in runs:
            assert args[5] == first
            np.testing.assert_array_equal(
                state, _alone(*args[:5], n, args[6]))

    def test_cap_below_group(self, pot, particle, monkeypatch):
        # the cap is read at call time: with it at 256, the group ends there,
        # and no slice of a longer pass is built
        monkeypatch.setattr(oracle, "_MAX_SLICES", 256)
        runs = _recorded_passes(monkeypatch)
        built = _recorded_slices(monkeypatch)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            numeric_rt(pot, particle, 7.0)
        assert [n for _, n, _ in runs] == [64, 128, 256]
        assert built == [64 + 128 + 256]
        for args, n, state in runs:
            np.testing.assert_array_equal(
                state, _alone(*args[:5], n, args[6]))


# slices of one fixed-count pass across the full window
_SLICES = 16384


def _window_pass(pot, particle, energy, psi0, dpsi0, slices=_SLICES):
    x_right = 14.5 / pot.b
    return _magnus_pass(pot.a, pot.b, particle.m, energy, x_right,
                        -2.0 * x_right / slices, slices,
                        np.array([psi0, dpsi0], dtype=complex))


class TestIntegrator:
    def test_wronskian_preserved(self, pot, particle):
        # two independent solutions keep W = psi1 dpsi2 - psi2 dpsi1 constant
        p1, d1 = _window_pass(pot, particle, 7.0, 1.0, 0.0)
        p2, d2 = _window_pass(pot, particle, 7.0, 0.0, 1.0)
        wronskian = p1 * d2 - p2 * d1
        assert abs(wronskian - 1.0) <= 1e-9

    def test_sixth_order(self, pot, particle):
        # each doubling of the slices cuts the error of a 6th-order step 64
        # times (a 4th-order one 16 times); a wrong coefficient in the
        # exponent lowers the order, which slice doubling alone would hide
        ref = _window_pass(pot, particle, 7.0, 1.0, 0.0, 65536)
        errs = [np.abs(_window_pass(pot, particle, 7.0, 1.0, 0.0, n) - ref).max()
                for n in (128, 256, 512)]
        assert errs[0] >= 40.0 * errs[1] and errs[1] >= 40.0 * errs[2]

    def test_free_amplitude_preserved(self):
        # |psi| of a free plane wave is a unit constant of the motion
        k = (3.0 ** 2 - 1.0) ** 0.5
        psi, _ = _window_pass(Potential(0.0, 2.0), Particle(1.0), 3.0,
                              1.0, 1j * k)
        assert abs(abs(psi) - 1.0) <= 1e-9

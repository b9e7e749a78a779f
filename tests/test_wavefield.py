"""Interior wavefunctions: frozen spot values, the superposition identity,
plane-wave asymptotics, component relations, and input guards."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mp_reference import wave

from dkpscatter import (
    BoundaryEnergyError,
    DegenerateParametersError,
    DkpScatterError,
    EvanescentIncidentError,
    IllConditionedError,
    InvalidParameterError,
    NonConvergenceError,
    Particle,
    Potential,
    RangeError,
    asymptotic_wavefunction,
    component_residuals,
    connection_coefficients,
    kinematics,
    wave_profile,
    wavefunction,
)
from dkpscatter import scattering, wavefield
from dkpscatter.oracle import _magnus_pass

# psi spot values frozen from 40-digit evaluation of the hypergeometric forms
PSI_SPOTS = [
    ("transmitted", 7.0, -0.8,
     complex(-0.44537233771237644, -0.009598622106722713)),
    ("transmitted", 2.5, 0.6,
     complex(0.181415773348213, -1.0073947521920086)),
]


class TestSpotValues:
    @pytest.mark.parametrize("kind,energy,x,ref", PSI_SPOTS)
    def test_transmitted_psi(self, pot, particle, kind, energy, x, ref):
        val = wavefunction(x, kind, pot, particle, energy).psi
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_incident_psi_over_amplitude(self, pot, particle):
        ref = complex(1.5611778529651597, 1.4337782915803514)
        cc = connection_coefficients(kinematics(pot, particle, 7.0))
        val = wavefunction(0.4, "incident", pot, particle, 7.0).psi / cc.A
        assert abs(val - ref) <= 1e-12 * abs(ref)


class TestScale:
    @pytest.mark.parametrize("k", [520, 900])
    @pytest.mark.parametrize("kind", ["incident", "reflected", "transmitted"])
    def test_power_of_two_scale(self, pot, particle, kind, k):
        # the waves depend on bx and the ratios of (a, b, m, E): at 2^k times
        # (5, 3, 1, 7) and 2^-k x, psi, phi and theta keep their bits
        xs = np.linspace(-3.0, 3.0, 41)
        ref = wave_profile(xs, kind, pot, particle, 7.0)
        res = wave_profile(np.ldexp(xs, -k), kind,
                           Potential(math.ldexp(5.0, k), math.ldexp(3.0, k)),
                           Particle(math.ldexp(1.0, k)), math.ldexp(7.0, k))
        assert res.tobytes() == ref.tobytes()


class TestSuperposition:
    # the transmitted solution equals incident + reflected at every x
    @pytest.mark.parametrize("energy", [7.0, 2.5])
    @pytest.mark.parametrize("x", [-1.33, 0.8])
    def test_interior(self, pot, particle, energy, x):
        t = wavefunction(x, "transmitted", pot, particle, energy)
        i = wavefunction(x, "incident", pot, particle, energy)
        r = wavefunction(x, "reflected", pot, particle, energy)
        scale = max(abs(t.psi), 1.0)
        assert abs(t.psi - (i.psi + r.psi)) <= 1e-10 * scale
        assert abs(t.phi - (i.phi + r.phi)) <= 1e-10 * scale * 12.0
        assert abs(t.theta - (i.theta + r.theta)) <= 1e-10 * scale * 12.0

    @pytest.mark.parametrize("x", [-3.0, -2.7])
    def test_left_tail(self, pot, particle, x):
        t = wavefunction(x, "transmitted", pot, particle, 7.0)
        i = wavefunction(x, "incident", pot, particle, 7.0)
        r = wavefunction(x, "reflected", pot, particle, 7.0)
        assert abs(t.psi - (i.psi + r.psi)) <= 1e-8
        assert abs(t.phi - (i.phi + r.phi)) <= 1e-8 * 12.0
        assert abs(t.theta - (i.theta + r.theta)) <= 1e-8 * 12.0


class TestAsymptotics:
    @pytest.mark.parametrize("energy", [7.0, 2.5])
    def test_right_tail_transmitted(self, pot, particle, energy):
        for x, tol in ((3.0, 1e-7), (3.5, 1e-8), (4.0, 1e-8)):
            exact = wavefunction(x, "transmitted", pot, particle, energy)
            plane = asymptotic_wavefunction(x, "transmitted", pot, particle, energy)
            assert abs(exact.psi - plane.psi) <= tol
            assert abs(exact.phi - plane.phi) <= 10.0 * tol
            assert abs(exact.theta - plane.theta) <= 10.0 * tol

    @pytest.mark.parametrize("energy", [7.0, 2.5])
    @pytest.mark.parametrize("kind", ["incident", "reflected"])
    def test_left_tail_plane_waves(self, pot, particle, energy, kind):
        for x, tol in ((-3.0, 1e-7), (-3.5, 1e-8), (-4.0, 1e-8)):
            exact = wavefunction(x, kind, pot, particle, energy)
            plane = asymptotic_wavefunction(x, kind, pot, particle, energy)
            assert abs(exact.psi - plane.psi) <= tol
            assert abs(exact.phi - plane.phi) <= 10.0 * tol
            assert abs(exact.theta - plane.theta) <= 10.0 * tol

    def test_plane_wave_component_ratios(self, pot, particle):
        k = kinematics(pot, particle, 7.0)
        inc = asymptotic_wavefunction(-3.0, "incident", pot, particle, 7.0)
        ref = asymptotic_wavefunction(-3.0, "reflected", pot, particle, 7.0)
        tra = asymptotic_wavefunction(3.0, "transmitted", pot, particle, 7.0)
        two_b = 2.0 * pot.b
        assert abs(inc.theta / inc.psi + two_b * k.nu / particle.m) <= 1e-13
        assert abs(ref.theta / ref.psi - two_b * k.nu / particle.m) <= 1e-13
        assert abs(tra.theta / tra.psi + two_b * k.mu / particle.m) <= 1e-13
        assert abs(inc.phi / inc.psi - 12.0) <= 1e-13
        assert abs(tra.phi / tra.psi - 2.0) <= 1e-13

    def test_middle_component_ratio_tracks_potential(self, pot, particle):
        # phi/psi = (E - V(x))/m: 12 - o(1) deep left, 2 + o(1) deep right
        left = wavefunction(-3.0, "incident", pot, particle, 7.0)
        right = wavefunction(3.0, "transmitted", pot, particle, 7.0)
        assert abs(left.phi / left.psi - 12.0) <= 1e-6
        assert abs(right.phi / right.psi - 2.0) <= 3e-7

    def test_blocked_band_decays_rightward(self, pot, particle):
        # E in the upper evanescent band: transmitted tail falls off
        a05 = abs(wavefunction(0.5, "transmitted", pot, particle, 5.0).psi)
        a15 = abs(wavefunction(1.5, "transmitted", pot, particle, 5.0).psi)
        assert a15 < 0.5 * a05


class TestComponentResiduals:
    def test_middle_relation_exact(self, pot, particle):
        res = component_residuals(0.3, "transmitted", pot, particle, 7.0, 1e-4)
        assert res.r_phi == 0.0
        assert res.r_theta <= 1e-6
        assert res.r_kg <= 1e-6

    def test_free_particle(self):
        pot = Potential(0.0, 1.0)
        res = component_residuals(0.7, "transmitted", pot, Particle(1.0), 2.0, 1e-4)
        assert res.r_phi == 0.0
        assert res.r_theta <= 1e-6
        assert res.r_kg <= 1e-6

    def test_second_order_convergence_spot(self, pot, particle):
        coarse = component_residuals(0.3, "transmitted", pot, particle, 7.0, 1e-3)
        fine = component_residuals(0.3, "transmitted", pot, particle, 7.0, 5e-4)
        assert 3.5 <= coarse.r_kg / fine.r_kg <= 4.5

    def test_step_validation(self, pot, particle):
        with pytest.raises(InvalidParameterError):
            component_residuals(0.3, "transmitted", pot, particle, 7.0, 0.0)
        with pytest.raises(InvalidParameterError):
            component_residuals(0.3, "transmitted", pot, particle, 7.0, -1e-4)


class TestAgainstIntegration:
    def test_transmitted_carried_across_the_step(self, pot, particle):
        # seed the integrator with the exact field on the right tail and
        # carry it to the far side; the closed form must match there
        energy = 7.0
        start = wavefunction(4.0, "transmitted", pot, particle, energy)
        dpsi0 = -1j * particle.m * start.theta
        n = 16384
        psi, dpsi = _magnus_pass(pot.a, pot.b, particle.m, energy, 4.0,
                                 -6.0 / n, n, np.array([start.psi, dpsi0]))
        end = wavefunction(-2.0, "transmitted", pot, particle, energy)
        assert abs(psi - end.psi) <= 1e-8
        assert abs(1j * dpsi / particle.m - end.theta) <= 1e-8


class TestGuards:
    def test_unknown_kind(self, pot, particle):
        with pytest.raises(InvalidParameterError):
            wavefunction(0.0, "outgoing", pot, particle, 7.0)

    def test_window_limit(self, pot, particle):
        with pytest.raises(RangeError):
            wavefunction(120.0, "transmitted", pot, particle, 7.0)
        with pytest.raises(InvalidParameterError):
            wavefunction(math.inf, "transmitted", pot, particle, 7.0)

    def test_boundary_energy(self, pot, particle):
        with pytest.raises(BoundaryEnergyError):
            wavefunction(0.0, "transmitted", pot, particle, 4.0)

    def test_evanescent_incident(self, pot, particle):
        with pytest.raises(EvanescentIncidentError):
            wavefunction(0.0, "transmitted", pot, particle, -5.0)
        with pytest.raises(EvanescentIncidentError):
            asymptotic_wavefunction(0.0, "incident", pot, particle, -5.0)

    def test_polarization_passthrough(self, pot, particle):
        plain = wavefunction(0.5, "incident", pot, particle, 7.0)
        turned = wavefunction(0.5, "incident", pot, particle, 7.0,
                              polarization=(0.0, 1.0, 0.0))
        assert turned.psi == plain.psi
        assert turned.phi == plain.phi
        assert turned.theta == plain.theta
        assert tuple(turned.polarization) == (0.0, 1.0, 0.0)


# at b = 3 these reach the series, Pfaff and inversion ranges of hyp2f1 on
# both sides of x = 0 (u = e^{6x} for the incident and reflected waves,
# e^{-6x} for the transmitted one)
PROFILE_XS = (-1.0, -0.3, -0.1, -0.05, 0.0, 0.05, 0.1, 0.3, 1.0)
KINDS = ("incident", "reflected", "transmitted")

# the errors of profiles that fail, pinned from the per-x evaluation: band II
# at the degenerate 2|mu| = 1; an incident wave whose shifted F1 cancels from
# x = 83 on; at b = 0.2, an incident wave whose F1 fails one x before its F,
# and a reflected wave whose F and F1 fail at the same x
BAND_TWO = (5.0, 0.2, 1.0, 5.0 + math.sqrt(0.96))
BAND_TWO_XS = np.linspace(-10.0, 10.0, 200).tolist()
WIDE_XS = np.linspace(-50.0, 50.0, 201).tolist()
PROFILE_ERRORS = [
    ("incident", BAND_TWO, BAND_TWO_XS, IllConditionedError,
     "hyp2f1((1.000000000000003+52.33040670628998j), "
     "(-3.219646771412954e-15+52.33040670628998j), (1+54.67081441278001j), "
     "-0.31799213054688297) loses digits to cancellation (figure 1.1e+06 > 1e+06)"),
    ("reflected", BAND_TWO, BAND_TWO_XS, DegenerateParametersError,
     "hyp2f1 inversion needs nonintegral a-b, got (-1.0000000000000062+0j)"),
    ("transmitted", BAND_TWO, BAND_TWO_XS, IllConditionedError,
     "hyp2f1((1.000000000000003+52.33040670628998j), "
     "(1.000000000000003-2.3404077064900335j), (2.000000000000006+0j), "
     "-0.9801001658274844) loses digits to cancellation (figure 9.7e+11 > 1e+06)"),
    ("incident", (5.0, 3.0, 1.0, 7.0), [float(x) for x in range(101)],
     IllConditionedError,
     "hyp2f1((1.5+3.294266991616996j), (1.5+3.871617260806622j), "
     "(2+3.986086914367133j), -1.8995555035181914e+216) loses digits to "
     "cancellation (figure inf > 1e+06)"),
    ("incident", (8.0, 0.2, 1.0, -1.6), WIDE_XS, IllConditionedError,
     "hyp2f1((1.5+79.66979203175927j), (1.5+31.930918982639238j), "
     "(2+31.60696125855822j), -0.20189651799465538) loses digits to "
     "cancellation (figure 1.2e+06 > 1e+06)"),
    ("reflected", (5.0, 0.2, 1.0, 5.5), WIDE_XS, IllConditionedError,
     "hyp2f1((-1.6650635094610964-1.1356817005586173j), "
     "(2.6650635094610964-1.1356817005586173j), (1-52.26136240091718j), "
     "-1.2214027581601699) loses digits to cancellation (figure 1.0e+10 > 1e+06)"),
]

# (pot, particle, energy) of waves that leave the double range at x = 506
OVERFLOW_POINT = (Potential(0.9082687991438897, 0.6175463073941782),
                  Particle(1.4120168037117617), 1.0490044015840585)


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWaveProfile:
    @pytest.mark.parametrize("energy", [7.0, 2.5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_wavefunction(self, pot, particle, kind, energy):
        profile = wave_profile(PROFILE_XS, kind, pot, particle, energy)
        assert profile.shape == (3, len(PROFILE_XS))
        for x, (psi, phi, theta) in zip(PROFILE_XS, profile.T):
            want = wavefunction(x, kind, pot, particle, energy)
            assert (psi, phi, theta) == (want.psi, want.phi, want.theta)

    @pytest.mark.parametrize("kind", ["incident", "reflected"])
    def test_one_build_per_call(self, monkeypatch, pot, particle, kind):
        coeffs = _count_calls(monkeypatch, wavefield, "connection_coefficients")
        bands = _count_calls(monkeypatch, scattering, "scattering_table")
        wave_profile(PROFILE_XS, kind, pot, particle, 7.0)
        assert (len(coeffs), len(bands)) == (1, 1)
        component_residuals(0.3, kind, pot, particle, 7.0, 1e-4)
        assert (len(coeffs), len(bands)) == (2, 2)

    @pytest.mark.parametrize("bad", [0, 4, 8])
    def test_out_of_window_anywhere(self, pot, particle, bad):
        xs = list(PROFILE_XS)
        xs[bad] = 120.0
        for kind in KINDS:
            with pytest.raises(RangeError):
                wave_profile(xs, kind, pot, particle, 7.0)
        xs[bad] = math.nan
        with pytest.raises(InvalidParameterError):
            wave_profile(xs, "incident", pot, particle, 7.0)

    @pytest.mark.parametrize("energy,error", [
        (4.0, BoundaryEnergyError), (6.0 + 5e-10, BoundaryEnergyError),
        (-5.0, EvanescentIncidentError)])
    def test_energy_errors_match_wavefunction(self, pot, particle, energy, error):
        for kind in KINDS:
            with pytest.raises(error) as single:
                wavefunction(0.3, kind, pot, particle, energy)
            with pytest.raises(error) as many:
                wave_profile(PROFILE_XS, kind, pot, particle, energy)
            assert str(many.value) == str(single.value)

    def test_error_order(self, pot, particle):
        # the kind is checked first, then every x, then the energy
        with pytest.raises(InvalidParameterError):
            wave_profile((120.0,), "outgoing", pot, particle, 4.0)
        with pytest.raises(RangeError):
            wave_profile((0.0, 120.0), "incident", pot, particle, 4.0)
        # the first bad x in order wins, whatever is wrong with a later one
        with pytest.raises(RangeError):
            wave_profile((0.0, 120.0, math.nan), "incident", pot, particle, 7.0)
        with pytest.raises(InvalidParameterError):
            wave_profile((math.nan, 120.0), "incident", pot, particle, 7.0)


    @pytest.mark.parametrize("kind,params,xs,error,message", PROFILE_ERRORS)
    def test_first_error_of_a_profile(self, kind, params, xs, error, message):
        # the error a loop over x raises: the earliest x, F before F1 at one x
        a, b, m, energy = params
        with pytest.raises(error) as exc:
            wave_profile(xs, kind, Potential(a, b), Particle(m), energy)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind,params,xs,error,message", PROFILE_ERRORS)
    def test_shifted_f_stops_where_f_fails(self, monkeypatch, kind, params, xs,
                                           error, message):
        # F1 only matters before F's first failure, so it runs over exactly
        # the x ahead of it
        calls = []
        inner = wavefield._hyp2f1_batch

        def recorded(a, b, c, z):
            values, failure = inner(a, b, c, z)
            calls.append((z.size, failure))
            return values, failure

        monkeypatch.setattr(wavefield, "_hyp2f1_batch", recorded)
        a, b, m, energy = params
        with pytest.raises(error):
            wave_profile(xs, kind, Potential(a, b), Particle(m), energy)
        (n0, failure0), (n1, _) = calls
        assert n0 == len(xs)
        assert n1 == (failure0[0] if failure0 else len(xs))

    @pytest.mark.parametrize("at,error", [(0, NonConvergenceError),
                                          (1, NonConvergenceError), (2, RangeError)])
    def test_non_finite_column_ranked_by_x(self, monkeypatch, at, error):
        # the column at x = 506 is not finite; an evaluation failure of F
        # there or ahead of it raises first, as a loop over x would raise
        inner = wavefield._hyp2f1_batch

        def failing(a, b, c, z):
            values, failure = inner(a, b, c, z)
            if failure is None and z.size > at:
                failure = (at, NonConvergenceError("injected"))
            return values, failure

        monkeypatch.setattr(wavefield, "_hyp2f1_batch", failing)
        with pytest.raises(error):
            wave_profile([500.0, 506.0, 510.0], "reflected", *OVERFLOW_POINT)

    @seed(int("bedef4221d7504b1b67a5cd46452c21608c3cc02e51ed9e65da530e63f52ac7b"
              "be00ea1d500d65e71b1a942712298037", 16))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(a=st.floats(2.0, 8.0), band=st.sampled_from(["I", "III"]),
           frac=st.floats(0.0, 1.0), q=st.floats(1.0, 3.0),
           kind=st.sampled_from(KINDS), order=st.randoms(use_true_random=False))
    def test_batch_independent_at_branch_edges(self, a, band, frac, q, kind, order):
        # u = 0.5, 1 and 2 are where hyp2f1 switches between the series, the
        # Pfaff map and the inversion; each x of a batch, duplicates included,
        # must give exactly what it gives alone
        energy = a + 1.2 + 1.8 * frac if band == "I" else (a - 1.2) * (2 * frac - 1)
        b = (abs(energy) + a) / q
        side = -1.0 if kind == "transmitted" else 1.0
        edges = [_edge_x(u, side, b) for u in (0.5, 1.0, 2.0)]
        xs = edges * 2 + [x + d / b for x in edges for d in (-0.3, 0.3)]
        order.shuffle(xs)
        pot, par = Potential(a, b), Particle(1.0)
        profile = wave_profile(xs, kind, pot, par, energy)
        for x, got in zip(xs, profile.T):
            alone = wave_profile((x,), kind, pot, par, energy)[:, 0]
            assert tuple(got) == tuple(alone)
        for x in edges:
            got_psi, _, got_theta = profile[:, xs.index(x)]
            psi, theta = wave(kind, a, b, 1.0, energy, x)
            assert abs(got_psi - psi) <= 1e-12 * abs(psi)
            assert abs(got_theta - theta) <= 1e-12 * abs(theta)


def _edge_x(u, side, b):
    """An x with exp(2 side b x) == u: ln(u) / (2 side b) or a float next to
    it, where one of the three gives u exactly."""
    x = math.log(u) / (2.0 * side * b)
    for near in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
        if math.exp(2.0 * side * b * near) == u:
            return near
    return x


def _right_or_raises(kind, a, b, energy, x):
    # the wave matches mpmath to 1e-8 relative, or a typed error is raised
    try:
        w = wavefunction(x, kind, Potential(a, b), Particle(1.0), energy)
    except DkpScatterError:
        return
    psi, theta = wave(kind, a, b, 1.0, energy, x)
    assert abs(w.psi - psi) <= 1e-8 * abs(psi)
    assert abs(w.theta - theta) <= 1e-8 * abs(theta)


class TestConditioningGuard:
    def test_large_parameters_raise(self):
        # the Pfaff series cancels by 1e15 here; unguarded, |psi| = 1.9e9, not 0.5
        with pytest.raises(IllConditionedError):
            wavefunction(0.0, "transmitted", Potential(5.0, 0.05), Particle(1.0), 7.0)

    @pytest.mark.parametrize("kind", ["incident", "reflected"])
    def test_near_degenerate_band_two_raises(self, kind):
        # 1e-7 above 2|mu| = 1 the two inversion terms cancel
        energy = 5.0 + math.sqrt(0.96) + 1e-7
        with pytest.raises(IllConditionedError):
            wavefunction(1.0, kind, Potential(5.0, 0.2), Particle(1.0), energy)

    @pytest.mark.parametrize("kind", ["incident", "reflected", "transmitted"])
    @pytest.mark.parametrize("energy", [6.5e12, -6.5e12])
    def test_wave_number_cap(self, kind, energy):
        # |nu| = 0.985 2^40 at (5, 3, 1, +-6.5e12): within 1e-2 of mpmath;
        # 3% higher the cap refuses, as it does at E = 1e200
        pot, particle = Potential(5.0, 3.0), Particle(1.0)
        for x in (0.0, 0.1, -3.0):
            w = wavefunction(x, kind, pot, particle, energy)
            psi, theta = wave(kind, 5.0, 3.0, 1.0, energy, x)
            assert abs(w.psi - psi) <= 1e-2 * max(abs(psi), 1e-300)
            assert abs(w.theta - theta) <= 1e-2 * max(abs(theta), 1e-300)
        for far in (1.03 * energy, 1e200):
            with pytest.raises(RangeError, match="above 2\\^40"):
                wavefunction(0.1, kind, pot, particle, far)

    @pytest.mark.parametrize("kind", ["incident", "reflected"])
    def test_deep_tunnelling_overflow_raises(self, kind):
        # |T| ~ 5e-312 puts |A| near the overflow limit; the hyp2f1 sum
        # overflows to nan+infj, which was returned as psi = nan+nanj
        for x in (0.5, 1.0, 5.0):
            with pytest.raises(RangeError):
                wavefunction(x, kind, Potential(3.2, 0.002), Particle(1.0), -1.6)

    @pytest.mark.parametrize("kind", ["incident", "reflected"])
    def test_overflowing_wave_raises(self, kind):
        # the wave grows past the double range between x = 500 and 506, inside
        # the window |2bx| <= 700: a typed error, not inf or a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(wave_profile([500.0], kind, *OVERFLOW_POINT)).all()
            with pytest.raises(RangeError, match=f"^{kind} wave not finite at x=506.0$"):
                wave_profile([500.0, 506.0, 510.0], kind, *OVERFLOW_POINT)
            with pytest.raises(RangeError):
                wavefunction(506.0, kind, *OVERFLOW_POINT)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(log_a=st.floats(math.log(0.1), math.log(50.0)),
           log_b=st.floats(math.log(0.03), math.log(30.0)),
           frac=st.floats(-1.0, 1.0), bx=st.floats(-3.0, 3.0),
           kind=st.sampled_from(["incident", "reflected", "transmitted"]))
    def test_right_or_raises(self, log_a, log_b, frac, bx, kind):
        a, b = math.exp(log_a), math.exp(log_b)
        _right_or_raises(kind, a, b, frac * (a + 4.0), bx / b)

    @pytest.mark.parametrize("two_mu", [1, 2, 3, 4])
    @pytest.mark.parametrize("offset", [-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])
    def test_band_two_across_integer_two_mu(self, two_mu, offset):
        # band II of a = 5, b = 0.2, m = 1: |mu| = sqrt(1 - (E-5)^2) / 0.4
        energy = 5.0 + math.sqrt(1.0 - (0.2 * two_mu) ** 2) + offset
        for kind in ("incident", "reflected"):
            for x in (-2.0, 1.0, 3.0):
                _right_or_raises(kind, 5.0, 0.2, energy, x)


class TestFarSide:
    # the transmitted wave's far side, z = -e^{-2bx} < -1, runs the two-term
    # connection formula at 1/(1-z); these waves exist and must not raise
    def test_band_two_transmitted(self):
        a, b, m, energy = BAND_TWO
        xs = np.linspace(-10.0, -0.1, 100)
        psi, _, theta = wave_profile(xs, "transmitted", Potential(a, b),
                                     Particle(m), energy)
        for x, got_psi, got_theta in zip(xs, psi, theta):
            ref_psi, ref_theta = wave("transmitted", a, b, m, energy, x)
            assert abs(got_psi - ref_psi) <= 1e-10 * abs(ref_psi)
            assert abs(got_theta - ref_theta) <= 1e-10 * abs(ref_theta)

    def test_small_b_transmitted(self):
        # |nu| is about 2e3 at b = 0.003
        xs = (-1000.0, -800.0, -500.0, -200.0)
        psi, _, theta = wave_profile(xs, "transmitted", Potential(5.0, 0.003),
                                     Particle(1.0), 7.0)
        for x, got_psi, got_theta in zip(xs, psi, theta):
            ref_psi, ref_theta = wave("transmitted", 5.0, 0.003, 1.0, 7.0, x)
            assert abs(got_psi - ref_psi) <= 1e-11 * abs(ref_psi)
            assert abs(got_theta - ref_theta) <= 1e-11 * abs(ref_theta)

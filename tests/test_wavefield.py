"""Interior wavefunctions: frozen spot values, the superposition identity,
plane-wave asymptotics, component relations, and input guards."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkpscatter import (
    BoundaryEnergyError,
    DkpScatterError,
    EvanescentIncidentError,
    IllConditionedError,
    IntegrationSettings,
    InvalidParameterError,
    Particle,
    Potential,
    RangeError,
    asymptotic_wavefunction,
    component_residuals,
    connection_coefficients,
    kinematics,
    wavefunction,
)
from dkpscatter.oracle import _integrate

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
        psi, dpsi, _ = _integrate(pot, particle, energy, IntegrationSettings(),
                                  4.0, -2.0, start.psi, dpsi0)
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


def _mpmath_wave(kind, a, b, m, energy, x):
    """(psi, theta) of the wave at 40 digits: the hypergeometric forms with
    mp.loggamma amplitudes, and theta = (i/m) psi' by mp.diff."""
    with mp.workdps(40):
        a, b, m, energy = (mp.mpf(v) for v in (a, b, m, energy))

        def half(e):
            q = (e - m) * (e + m)
            return (mp.sign(e) * mp.sqrt(q) if q > 0 else 1j * mp.sqrt(-q)) / (2 * b)

        nu, mu = half(energy + a), half(energy - a)
        disc = b * b - 4 * a * a
        lam = ((b + mp.sqrt(disc)) / (2 * b) if disc >= 0
               else mp.mpc(0.5, mp.sqrt(-disc) / (2 * b)))
        al, ga = 1j * nu, 1j * mu
        a1, b1, c1 = al + lam - ga, al + lam + ga, 1 + 2 * al
        a2, b2, c2 = -al + lam + ga, -al + lam - ga, 1 - 2 * al
        lg = mp.loggamma

        def psi(x):
            if kind == "transmitted":
                t = mp.exp(-2 * b * x)
                return (mp.exp(2j * b * mu * x + lam * mp.log1p(t))
                        * mp.hyp2f1(a1, b2, 1 + a1 - b1, -t))
            s = mp.exp(2 * b * x)
            if kind == "incident":
                amp = lg(1 - b1 + a1) + lg(1 - c1) - lg(1 - c1 + a1) - lg(1 - b1)
                return (mp.exp(amp + 2j * b * nu * x + lam * mp.log1p(s))
                        * mp.hyp2f1(a1, b1, c1, -s))
            amp = lg(1 - a2 + b2) + lg(1 - c2) - lg(1 - c2 + b2) - lg(1 - a2)
            return (mp.exp(amp - 2j * b * nu * x + lam * mp.log1p(s))
                    * mp.hyp2f1(a2, b2, c2, -s))

        x = mp.mpf(x)
        return complex(psi(x)), complex(1j * mp.diff(psi, x) / m)


def _right_or_raises(kind, a, b, energy, x):
    # the wave matches mpmath to 1e-8 relative, or a typed error is raised
    try:
        w = wavefunction(x, kind, Potential(a, b), Particle(1.0), energy)
    except DkpScatterError:
        return
    psi, theta = _mpmath_wave(kind, a, b, 1.0, energy, x)
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

"""Special-function layer: complex log-gamma and the hypergeometric evaluator
with its transformation paths."""

import cmath
import math

import numpy as np
import pytest

from dkpscatter import (
    DegenerateParametersError,
    IllConditionedError,
    InvalidParameterError,
    NonConvergenceError,
    Particle,
    PoleError,
    Potential,
    hyp2f1,
    hypergeometric_parameters,
    kinematics,
    log_gamma,
)
from dkpscatter._kernels import gauss_series, pfaff_series

# Reference values frozen from 40-digit arbitrary-precision evaluation.
LOG_GAMMA_TABLE = {
    complex(0.5, 14.0): complex(-21.07221004192388, 22.949779692295984),
    complex(-3.2, 4.5): complex(-12.06224354301713, -4.922227174358813),
    complex(20.0, -7.0): complex(38.10939975017325, -20.93844014883169),
    complex(-7.5, -2.5): complex(-15.181329891661834, 19.893107334171912),
    complex(12.0, 0.0): complex(17.502307845873887, 0.0),
    complex(0.5, 0.0): complex(0.5723649429247001, 0.0),
    complex(0.001, 0.001): complex(6.560604473837553, -0.7859737349296534),
    complex(4.2, -0.7): complex(1.9831090428198708, -0.9219981222201764),
    complex(-0.5, 0.25): complex(1.0133816533627673, -3.130339593633146),
    complex(60.0, 80.0): complex(140.7434471619671, 343.5870136844544),
}


class TestLogGamma:
    def test_reference_table(self):
        for z, ref in LOG_GAMMA_TABLE.items():
            val = log_gamma(z)
            assert abs(val - ref) <= 1e-13 * abs(ref), f"z={z}"

    def test_integer_factorials(self):
        assert abs(log_gamma(5.0) - math.log(24.0)) <= 1e-14
        assert abs(log_gamma(1.0)) <= 1e-14
        assert abs(log_gamma(2.0)) <= 1e-14

    def test_recurrence(self):
        # log G(z+1) = log G(z) + Log z on 100 random points, |z| <= 20
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z) > 20 or abs(z) < 1e-2:
                continue
            k = round(z.real)
            if k <= 0 and abs(z - k) < 1e-3:
                continue
            lhs = log_gamma(z + 1)
            rhs = log_gamma(z) + cmath.log(z)
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            assert rel <= 1e-12, f"z={z}: rel={rel}"
            checked += 1

    def test_conjugate_symmetry(self):
        for z in (1.3 + 2.7j, -4.4 + 9.1j, 0.2 - 15j):
            assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0, complex(-3.0, 0.0)):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_just_off_pole_is_finite(self):
        val = log_gamma(complex(-3.0, 1e-10))
        assert math.isfinite(val.real) and math.isfinite(val.imag)

    def test_unit_imaginary_modulus(self):
        # |G(1+i)|^2 = pi / sinh(pi)
        val = math.exp(2.0 * log_gamma(complex(1.0, 1.0)).real)
        assert abs(val - math.pi / math.sinh(math.pi)) <= 1e-10

    def test_large_imaginary_modulus_ratio(self):
        # |G(1+50i)|^2 / |G(0.5+50i)|^2 = 50 coth(50 pi) = 50 to double precision
        log_ratio = log_gamma(complex(1.0, 50.0)) - log_gamma(complex(0.5, 50.0))
        assert abs(math.exp(2.0 * log_ratio.real) - 50.0) <= 50.0 * 1e-12


# (a, b, c, z) -> F frozen from 40-digit evaluation; first three exercise the
# z < -1 inversion path with the scattering parameter families.
HYP_TABLE = [
    (complex(0.5, 3.294266991616996), complex(0.5, 3.871617260806622),
     complex(1.0, 3.986086914367133), -7.38905609893065,
     complex(0.5806142771639482, -0.343441608212321)),
    (complex(0.5, 3.2106190392177716), complex(0.5, 2.4468564233917984),
     complex(1.0, 2.4776781245530843), -403.4287934927351,
     complex(-0.06314404731123936, 0.16797285264745446)),
    (complex(0.5, 3.294266991616996), complex(0.5, 3.871617260806622),
     complex(1.0, 3.986086914367133), -65659969.13733051,
     complex(-0.00037674918897920057, -0.00011071892455322775)),
    (complex(0.3, 0.2), complex(1.1, -0.4), complex(2.5, 0.0), -0.75,
     complex(0.9039625970559737, -0.024108983018731735)),
    (complex(0.5, 0.0), complex(1.5, 0.0), complex(2.25, 0.0), 0.8,
     complex(1.5796726521989397, 0.0)),
]


class TestHyp2f1:
    def test_log_two_identity(self):
        assert abs(hyp2f1(1.0, 1.0, 2.0, -1.0) - math.log(2.0)) <= 1e-10

    def test_geometric_identity(self):
        # F(1,2;2;z) = 1/(1-z)
        assert abs(hyp2f1(1.0, 2.0, 2.0, -1.0) - 0.5) <= 1e-13

    def test_binomial_identity(self):
        # F(a,b;b;z) = (1-z)^(-a), complex exponent
        a = complex(0.7, 0.3)
        val = hyp2f1(a, 2.5, 2.5, -0.6)
        ref = cmath.exp(-a * math.log(1.6))
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_frozen_values(self):
        for a, b, c, z, ref in HYP_TABLE:
            val = hyp2f1(a, b, c, z)
            assert abs(val - ref) <= 1e-11 * abs(ref), f"z={z}"

    def test_path_consistency(self):
        # direct series vs Pfaff transformation on -1 < z <= -0.5
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            a = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            b = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            c = complex(rng.uniform(0.5, 3), rng.uniform(-3, 3))
            if (c - a - b).real <= 0.05:
                continue
            z = rng.uniform(-1.0, -0.5)
            direct, _ = gauss_series(a, b, c, z)
            mapped, _ = pfaff_series(a, b, c, z)
            assert abs(direct - mapped) <= 1e-9 * abs(direct)
            checked += 1

    def test_unit_argument_uses_terminating_path(self):
        # z = -1 must not recurse through the inversion formula
        val = hyp2f1(complex(0.5, 1.1), complex(0.5, -0.4), complex(1.4, 0.7), -1.0)
        assert math.isfinite(val.real) and math.isfinite(val.imag)

    def test_degenerate_difference_raises(self):
        with pytest.raises(DegenerateParametersError):
            hyp2f1(1.5, 0.5, 2.3, -2.0)

    def test_degenerate_only_beyond_minus_one(self):
        # integer a-b is fine where the inversion formula is not used
        val = hyp2f1(1.5, 0.5, 2.3, -0.9)
        assert math.isfinite(val.real)

    def test_c_pole_raises(self):
        with pytest.raises(PoleError):
            hyp2f1(0.5, 0.5, -2.0, 0.3)

    def test_domain_limit(self):
        with pytest.raises(InvalidParameterError):
            hyp2f1(0.5, 0.5, 1.5, 1.0)

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergenceError):
            hyp2f1(0.3, 0.4, 0.5, 0.99999)

    def test_cancellation_figure(self):
        # positive terms: the figure is max|term| / sum = 1 / F < 1
        value, cond = gauss_series(1.0, 1.0, 2.0, 0.5)
        assert abs(value - 2.0 * math.log(2.0)) <= 1e-15
        assert cond == 1.0 / abs(value)
        # F(-20, 1; 1; 0.9) = 0.1^20: terms of up to 7e4 cancel
        assert gauss_series(-20.0, 1.0, 1.0, 0.9)[1] > 1e15
        # the Pfaff map carries the figure of its inner series
        assert pfaff_series(0.5, 0.25, 2.0, -0.8)[1] == gauss_series(
            0.5, 1.75, 2.0, -0.8 / (-0.8 - 1.0))[1]

    def test_series_cancellation_raises(self):
        with pytest.raises(IllConditionedError):
            hyp2f1(-20.0, 1.0, 1.0, 0.9)

    def test_large_parameter_cancellation_raises(self):
        # transmitted-wave parameters at (a, b, m, E) = (5, 0.05, 1, 7): the
        # Pfaff series cancels by 1e15; unguarded, the value is off by 3.8e9
        hp = hypergeometric_parameters(
            kinematics(Potential(5.0, 0.05), Particle(1.0), 7.0))
        with pytest.raises(IllConditionedError):
            hyp2f1(hp.a1, hp.b2, 1.0 + hp.a1 - hp.b1, -1.0)

    def test_inversion_cancellation_raises(self):
        # a - b 1e-9 from an integer: the two inversion terms are 1e9 and cancel
        with pytest.raises(IllConditionedError):
            hyp2f1(1.5 + 1e-9, 0.5, 2.3, -2.0)

    def test_shifted_parameters(self):
        # derivative-shifted parameter sets stay on the same dispatch
        a, b, c, z, _ = HYP_TABLE[0]
        val = hyp2f1(a + 1, b + 1, c + 1, z)
        assert math.isfinite(val.real) and math.isfinite(val.imag)

"""Special-function layer: complex log-gamma and the hypergeometric evaluator
with its transformation paths."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkpscatter import (
    DegenerateParametersError,
    DkpScatterError,
    IllConditionedError,
    InvalidParameterError,
    NonConvergenceError,
    Particle,
    PoleError,
    Potential,
    RangeError,
    hyp2f1,
    hypergeometric_parameters,
    kinematics,
    log_gamma,
    wave_profile,
)
from dkpscatter import _kernels, specfun
from dkpscatter._kernels import gauss_series

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

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(-math.inf, 0.0),
                                   complex(math.nan, 0.0), complex(0.0, math.inf),
                                   # a finite z whose value overflows
                                   complex(1e308, 0.0), complex(0.0, 1e306)])
    def test_non_finite_raises(self, z):
        with pytest.raises(RangeError if cmath.isfinite(z) else InvalidParameterError):
            log_gamma(z)

    def test_just_off_pole_is_finite(self):
        val = log_gamma(complex(-3.0, 1e-10))
        assert math.isfinite(val.real) and math.isfinite(val.imag)

    def test_unit_imaginary_modulus(self):
        # |G(1+i)|^2 = pi / sinh(pi)
        val = math.exp(2.0 * log_gamma(complex(1.0, 1.0)).real)
        assert abs(val - math.pi / math.sinh(math.pi)) <= 1e-10

    @pytest.mark.parametrize("re", [0.25, -0.3, -2.5, -17.75, -1e3 - 0.1, -1e5 + 0.5,
                                    -1e6 + 0.5, -1e9 + 0.5, -1e9 + 0.125])
    @pytest.mark.parametrize("im", [0.0, 1e-9, -0.5, 3.0, -40.0, 300.0, -1e5])
    def test_reflection_against_mpmath(self, re, im):
        # Re z < 1/2 runs the reflection formula, in time that does not grow
        # with -Re z; at |Im z| = 1e5, sin(pi z) itself overflows
        with mp.workdps(50):
            ref = complex(mp.loggamma(mp.mpc(re, im)))
        assert abs(log_gamma(complex(re, im)) - ref) <= 1e-14 * abs(ref)

    def test_large_imaginary_modulus_ratio(self):
        # |G(1+50i)|^2 / |G(0.5+50i)|^2 = 50 coth(50 pi) = 50 to double precision
        log_ratio = log_gamma(complex(1.0, 50.0)) - log_gamma(complex(0.5, 50.0))
        assert abs(math.exp(2.0 * log_ratio.real) - 50.0) <= 50.0 * 1e-12


# (a, b, c, z) -> F frozen from 40-digit evaluation; first four exercise the
# z < -1 connection formula with the scattering parameter families.
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
    (complex(1.000000000000003, 52.33040670628998),
     complex(1.000000000000003, -2.3404077064900335),
     complex(2.000000000000006, 0.0), -1.5,
     complex(-0.003833675440649728, 0.004947204696776305)),
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
            (direct,), _, _ = gauss_series(a, b, c, np.array([z]))
            mapped = hyp2f1(a, b, c, z)  # the Pfaff branch
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

    @pytest.mark.parametrize("a,b,c,z", [
        (0.5, 0.5, 1.5, math.nan), (0.5, 0.5, math.inf, 0.2), (math.nan, 0.5, 1.5, 0.2)])
    def test_non_finite_input_raises(self, a, b, c, z):
        with pytest.raises(InvalidParameterError):
            hyp2f1(a, b, c, z)

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergenceError):
            hyp2f1(0.3, 0.4, 0.5, 0.99999)

    def test_cancellation_figure(self):
        # positive terms: the figure is max|term| / sum = 1 / F < 1
        (value,), (cond,), _ = gauss_series(1.0, 1.0, 2.0, np.array([0.5]))
        assert abs(value - 2.0 * math.log(2.0)) <= 1e-15
        assert cond == 1.0 / abs(value)
        # F(-20, 1; 1; 0.9) = 0.1^20: terms of up to 7e4 cancel
        assert gauss_series(-20.0, 1.0, 1.0, np.array([0.9]))[1][0] > 1e15

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

    def test_overflow_raises(self):
        # incident-wave parameters in deep tunnelling, (a, b, m, E) =
        # (3.2, 0.002, 1, -1.6): both inversion terms overflow and their sum
        # is nan+infj, whose figure is NaN
        with pytest.raises(RangeError):
            hyp2f1(0.5 + 3085.9192812254687j, 0.5 + 738.5803623643678j,
                   1 + 624.4997998398399j, -1.0004000800106678)

    def test_inversion_factor_overflow_raises(self):
        # (-z)^-a = 3^800.5 overflows; F itself is about 4^800 (Pfaff), past
        # the double range, and the scalar cmath.exp raised a raw OverflowError.
        # Both series are finite, so the message names no series
        with pytest.raises(RangeError, match=r"overflows$"):
            hyp2f1(-800.5 + 3j, 1.0, 1.5, -3.0)

    def test_unsummable_series_says_so(self):
        # the transmitted wave of (a, b, m, E) = (5, 0.001, 1, 7) at x = 0:
        # |F| = 0.354 (mpmath), and the Pfaff factor is finite, but the terms
        # of the Gauss series leave the double range before they settle
        pot, particle = Potential(5.0, 0.001), Particle(1.0)
        hp = hypergeometric_parameters(kinematics(pot, particle, 7.0))
        with pytest.raises(RangeError, match="overflows: its Gauss series cannot "
                                             "be summed in doubles"):
            hyp2f1(hp.a1, hp.b2, 1.0 + hp.a1 - hp.b1, -1.0)

    def test_inversion_ratio_overflow_raises(self):
        # Gamma(c) Gamma(b-a) / (Gamma(b) Gamma(c-a)) is about e^1879; the
        # scalar cmath.exp raised a raw OverflowError
        with pytest.raises(RangeError):
            hyp2f1(0.5 - 600j, 1.7 - 600j, 1.0 + 600j, -2.0)

    def test_nan_figure_raises(self, monkeypatch):
        # a finite value whose figure is NaN must not pass the guard
        monkeypatch.setattr(_kernels, "gauss_series",
                            lambda a, b, c, z: (np.full(z.shape, 1.0 + 0.0j),
                                                np.full(z.shape, math.nan), None))
        with pytest.raises(IllConditionedError):
            hyp2f1(0.5, 0.5, 1.5, 0.25)

    @pytest.mark.parametrize("z", [
        *(np.random.default_rng(seed).choice(
            [0.1, 0.8, 0.95, -0.3, -0.7, -1.0, -2.0, -5.0, 1.5], 12)
          for seed in range(6)),
        # 280 z that pass, then a tail across the chunk edge whose -1.05 stops
        # converging on the inversion side for the fourth set, ahead of the
        # direct and Pfaff series' failures at 0.8 and -1.0
        np.concatenate((np.tile([0.1, -0.3, -2.0, -5.0], 70),
                        np.tile([-20.0, -1.05, -1.0, 0.8], 5))),
        # a non-finite z ranks as z >= 1 does
        np.array([0.1, -2.0, -math.inf, math.nan, 1.5])],
        ids=[*map(str, range(6)), "chunk_edge", "non_finite"])
    def test_batch_reports_first_failure(self, monkeypatch, z):
        # with a 64-term cap the series at z = 0.8, 0.95 (and at some z for
        # the third and fourth sets) stop converging; mixed with cancelling,
        # degenerate and out-of-domain z, the batch must report the first z at
        # which hyp2f1 raises, with its error, and hyp2f1's values before it
        monkeypatch.setattr(_kernels, "MAX_SERIES_TERMS", 64)
        for a, b, c in ((-20.0, 1.0, 1.0), (1.5 + 1e-9, 0.5, 2.3),
                        (2 + 8j, 1 - 8j, 1.5), (2 + 10j, 1.3, 1.5 + 10j)):
            values, failure = specfun._hyp2f1_batch(a, b, c, z)
            want = None
            for i, zi in enumerate(z):
                try:
                    value = hyp2f1(a, b, c, zi)
                except DkpScatterError as exc:
                    want = (i, type(exc), str(exc))
                    break
                assert values[i] == value
            got = failure and (failure[0], type(failure[1]), str(failure[1]))
            assert got == want

    def test_batch_stops_at_first_failing_chunk(self, monkeypatch):
        # z = -2 fails the guard (the inversion terms cancel); under a 64-term
        # cap the 0.95 from index _BLOCK_WIDTH on would not converge, and no
        # series may run there once the first chunk holds a failure
        monkeypatch.setattr(_kernels, "MAX_SERIES_TERMS", 64)
        seen = []
        inner = _kernels.gauss_series

        def recorded(a, b, c, z):
            seen.extend(z.tolist())
            return inner(a, b, c, z)

        monkeypatch.setattr(_kernels, "gauss_series", recorded)
        width = _kernels._BLOCK_WIDTH
        z = np.concatenate(([-2.0], np.full(width - 1, 0.1), np.full(width, 0.95)))
        _, (i, error) = specfun._hyp2f1_batch(1.5 + 1e-9, 0.5, 2.3, z)
        assert (i, type(error)) == (0, IllConditionedError)
        assert 0.95 not in seen

    def test_far_side_one_series_per_term_per_chunk(self, monkeypatch):
        # z < -1 on both sides of -2: each of the two far terms runs one Gauss
        # series per chunk, at w = 1/(1-z) in (0, 1/2]
        calls = []
        inner = _kernels.gauss_series

        def recorded(a, b, c, z):
            calls.append(z)
            return inner(a, b, c, z)

        monkeypatch.setattr(_kernels, "gauss_series", recorded)
        width = _kernels._BLOCK_WIDTH
        a, b, c, _, _ = HYP_TABLE[0]
        z = -np.geomspace(1.01, 100.0, width + 44)
        _, failure = specfun._hyp2f1_batch(a, b, c, z)
        assert failure is None
        assert [w.size for w in calls] == [width, width, 44, 44]
        assert all(((w > 0.0) & (w <= 0.5)).all() for w in calls)

    def test_shifted_parameters(self):
        # derivative-shifted parameter sets stay on the same dispatch
        a, b, c, z, _ = HYP_TABLE[0]
        val = hyp2f1(a + 1, b + 1, c + 1, z)
        assert math.isfinite(val.real) and math.isfinite(val.imag)


def _wave_series(a, b, m, energy):
    """Every (a, b, c) that a Gauss series of a wave at (a, b, m, E) runs with:
    F and its shifted F1 of the three waves, each on its direct, Pfaff and two
    far terms."""
    hp = hypergeometric_parameters(kinematics(Potential(a, b), Particle(m), energy))
    sets = []
    for pa, pb, pc in ((hp.a1, hp.b1, hp.c1), (hp.a2, hp.b2, hp.c2),
                       (hp.a1, hp.b2, 1.0 + hp.a1 - hp.b1)):
        for shift in (0.0, 1.0):
            p, q, c = pa + shift, pb + shift, pc + shift
            sets += [(p, q, c), (p, c - q, c), (p, c - q, 1.0 - q + p),
                     (q, c - p, 1.0 - p + q)]
    return sets


SERIES_PARAMETERS = [(-20.0, 1.0, 1.0), (1.5 + 1e-9, 0.5, 2.3),
                     *_wave_series(5.0, 3.0, 1.0, 7.0)[::6],
                     _wave_series(5.0, 0.05, 1.0, 7.0)[0]]


class TestGaussSeries:
    """The block form of the series: t_{n0+k} = t_{n0} R_k z^k."""

    @pytest.mark.parametrize("a,b,c", SERIES_PARAMETERS)
    def test_batch_of_one(self, a, b, c):
        # column j of a batch is the batch of one at z[j], bit for bit, at
        # widths about a block of 32 terms and _BLOCK_WIDTH; from z = 0.9 the
        # series run over twelve blocks and more, near 0 over one
        z = np.random.default_rng(7).permutation(
            np.concatenate((np.linspace(-0.9, 0.9, 255), [0.0, 1e-300])))
        singles = [gauss_series(a, b, c, z[j:j + 1]) for j in range(z.size)]
        assert gauss_series(a, b, c, z[:0])[2] is None
        for width in (1, 31, 32, 33, 255, 256, 257):
            values, figures, failure = gauss_series(a, b, c, z[:width])
            assert failure is None
            assert values.tobytes() == np.concatenate(
                [v for v, _, _ in singles[:width]]).tobytes()
            assert figures.tobytes() == np.concatenate(
                [f for _, f, _ in singles[:width]]).tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(a=st.floats(0.1, 50.0), log_b=st.floats(math.log(0.01), math.log(30.0)),
           m=st.floats(0.1, 5.0), e=st.floats(-2.0, 2.0), which=st.integers(0, 23),
           z=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4))
    def test_matches_mpmath(self, a, log_b, m, e, which, z):
        # the series of the waves at |z| <= 1/2: error within a multiple of
        # the unit roundoff times the larger of the sum and its largest term,
        # figure * |sum|
        try:
            params = _wave_series(a, math.exp(log_b), m, e * (a + m))[which]
        except DkpScatterError:
            return
        values, figures, failure = gauss_series(*params, np.array(z))
        if failure is not None:
            return
        with mp.workdps(40):
            for zj, value, figure in zip(z, values, figures):
                if not cmath.isfinite(value):
                    continue
                ref = complex(mp.hyp2f1(*params, zj))
                # the worst over about 41,000 comparisons of these families was 10.2
                assert abs(value - ref) <= 32 * max(figure, 1.0) * abs(value) * 2.0 ** -52

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.floats(0.0, math.log(1e12)), min_size=3, max_size=3),
           phases=st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3),
           z=st.floats(-5.0, 0.9))
    def test_large_parameters_typed(self, sizes, phases, z):
        # parameters up to 1e12 in modulus: a finite value or a typed error,
        # never inf or NaN (the term cap is lowered to keep the test short)
        a, b, c = (cmath.rect(math.exp(r), phi) for r, phi in zip(sizes, phases))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "MAX_SERIES_TERMS", 640)
            try:
                value = hyp2f1(a, b, c, z)
            except DkpScatterError:
                return
        assert cmath.isfinite(value)

    def test_large_ratio_at_small_z(self):
        # R_k alone overflows here, the terms (ab z)^k / k! do not: the scale
        # keeps the value, and mpmath agrees
        with mp.workdps(40):
            for a, b, z in ((1e6, 1e6, 1e-12), (1e6, -2e6, -1e-12), (3e5, 4e5, 1e-11)):
                ref = complex(mp.hyp2f1(a, b, 1, z))
                assert abs(hyp2f1(a, b, 1.0, z) - ref) <= 1e-12 * abs(ref)
        # past the scale, R_k overflows: a RangeError, not a value
        with pytest.raises(RangeError):
            hyp2f1(1e12, 1e12, 1.0, 1e-24)

    def test_overflowing_terms_raise_range_error(self):
        # the transmitted wave's series at (a, b, m, E) = (44.72555160465732,
        # 0.01018593560398276, 1, 45.08593793623468), |bx| <= 3: its terms
        # overflow, and the sum stops at its first non-finite value
        pot, particle = Potential(44.72555160465732, 0.01018593560398276), Particle(1.0)
        xs = np.linspace(-3.0, 3.0, 60) / pot.b
        with pytest.raises(RangeError, match="overflows"):
            wave_profile(xs, "transmitted", pot, particle, 45.08593793623468)

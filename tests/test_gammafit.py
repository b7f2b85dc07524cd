"""Special functions and weighted gamma maximum likelihood."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import egd
from helpers import golden_gamma_shape

# high-precision reference values (mpmath, 25 significant digits)
DIGAMMA_1 = -0.5772156649015328606065121
DIGAMMA_HALF = -1.963510026021423479440976
DIGAMMA_10 = 2.251752589066721107647456
TRIGAMMA_1 = 1.644934066848226436472415
TRIGAMMA_25 = 0.04081066325722557918736172

# mpmath 1.3.0 at 40 significant digits, rounded to the nearest double:
# log(a) - digamma(a) and polygamma(1, a) - 1/a at a from np.logspace(-8,
# 15, 47) plus 4.5, 9.99 and 10.01 (both sides of the recurrence's switch
# at 10); each shape root by findroot(solver="anderson") on [1/(2 gap),
# 1/gap].  The grid's gaps are 10^(-13 + k/2) rounded to a multiple of
# 2^-50, so that log(vbar) - gap and back is exact for |log(vbar)| < 8 up
# to a gap of 1; above it the round trip moves a gap by under 1e-15
# relative.
PSI_GAPS = [
    (1e-08, 99999982.1565349, 9999999900000002.0),
    (3.162277660168379e-08, 31622759.90951121, 999999968377225.1),
    (1e-07, 9999984.45911985, 99999990000001.66),
    (3.162277660168379e-07, 3162263.27058042, 9999996837723.986),
    (1e-06, 999986.7617034621, 999999000001.645),
    (3.162277660168379e-06, 316215.67900928966, 99999683773.87892),
    (9.999999999999999e-06, 99989.06427375072, 9999900001.644913),
    (3.1622776601683795e-05, 31612.992132414038, 999968378.8682562),
    (0.0001, 9991.366710811537, 99990001.64469367),
    (0.00031622776601683794, 3154.795307954148, 9996839.366513975),
    (0.001, 993.6678166528282, 999001.6425331958),
    (0.0031622776601683794, 311.04332919744866, 99685.40959791366),
    (0.01, 95.95571527188058, 9901.621213528313),
    (0.03162277660168379, 28.69526608114526, 969.9492534210826),
    (0.1, 8.12116984741703, 91.43329915079275),
    (0.31622776601683794, 2.161925714656298, 7.9528386898008145),
    (1.0, 0.5772156649015329, 0.6449340668482264),
    (3.1622776601683795, 0.16636749486982216, 0.05517171191571789),
    (4.5, 0.11520647041674517, 0.026502880816788154),
    (9.99, 0.05088421982926105, 0.005176850048141686),
    (10.0, 0.05083250392732458, 0.005166335681685746),
    (10.01, 0.05078089300899346, 0.005155853305415189),
    (31.622776601683793, 0.01589471330480599, 0.0005052694094262655),
    (100.0, 0.005008333250003967, 5.0166663333571394e-05),
    (316.2277660168379, 0.0015819721625841938, 5.005270452226098e-06),
    (1000.0, 0.000500083333325, 5.001666666333334e-07),
    (3162.2776601683795, 0.00015812221634166896, 5.0005270462661536e-08),
    (10000.0, 5.00008333333325e-05, 5.000166666666333e-09),
    (31622.776601683792, 1.581147163417522e-05, 5.000052704627659e-10),
    (100000.0, 5.000008333333333e-06, 5.000016666666666e-11),
    (316227.7660168379, 1.581139663417523e-06, 5.000005270462768e-12),
    (1000000.0, 5.000000833333334e-07, 5.000001666666667e-13),
    (3162277.660168379, 1.5811389134175231e-07, 5.0000005270462773e-14),
    (10000000.0, 5.000000083333333e-08, 5.000000166666667e-15),
    (31622776.60168379, 1.581138838417523e-08, 5.000000052704628e-16),
    (100000000.0, 5.0000000083333336e-09, 5.0000000166666667e-17),
    (316227766.01683795, 1.581138830917523e-09, 5.000000005270462e-18),
    (1000000000.0, 5.000000000833333e-10, 5.000000001666666e-19),
    (3162277660.1683793, 1.581138830167523e-10, 5.000000000527046e-20),
    (10000000000.0, 5.0000000000833335e-11, 5.0000000001666664e-21),
    (31622776601.683792, 1.5811388300925232e-11, 5.000000000052705e-22),
    (100000000000.0, 5.000000000008334e-12, 5.0000000000166664e-23),
    (316227766016.83795, 1.581138830085023e-12, 5.00000000000527e-24),
    (1000000000000.0, 5.000000000000833e-13, 5.000000000001666e-25),
    (3162277660168.3794, 1.581138830084273e-13, 5.000000000000527e-26),
    (10000000000000.0, 5.0000000000000835e-14, 5.000000000000167e-27),
    (31622776601683.793, 1.581138830084198e-14, 5.000000000000053e-28),
    (100000000000000.0, 5.000000000000009e-15, 5.0000000000000167e-29),
    (316227766016837.94, 1.5811388300841905e-15, 5.000000000000005e-30),
    (1000000000000000.0, 5e-16, 5.000000000000001e-31),
]

SHAPE_ROOTS = [
    (1.0036416142611415e-13, 4981857994879.034),
    (3.161915174132446e-13, 1581320093880.2566),
    (1.000088900582341e-12, 499955553660.30164),
    (3.161915174132446e-12, 158132009388.17566),
    (1.000000082740371e-11, 49999995863.14846),
    (3.162270445500326e-11, 15811424374.431131),
    (1.000000082740371e-10, 4999999586.464846),
    (3.162279327284523e-10, 1581137996.693224),
    (1.000000082740371e-09, 499999958.7964846),
    (3.1622775509276835e-09, 158113888.6371206),
    (9.99999993922529e-09, 50000000.47054022),
    (3.1622776397455254e-08, 15811388.569622831),
    (1.0000000028043132e-07, 5000000.152645095),
    (3.162277657509094e-07, 1581138.9980804815),
    (1.000000000139778e-06, 500000.16659672215),
    (3.162277660173629e-06, 158114.04967464745),
    (9.999999999621423e-06, 50000.16666800399),
    (3.162277660173629e-05, 15811.554965725463),
    (9.999999999976694e-05, 5000.166661122468),
    (0.00031622776601647473, 1581.305479181502),
    (0.001000000000000334, 500.1666110813726),
    (0.0031622776601683, 158.2803736985404),
    (0.009999999999999787, 50.1661082066034),
    (0.03162277660168389, 15.97627039096005),
    (0.09999999999999964, 5.160875503410224),
    (0.316227766016838, 1.7290721925874486),
    (1.0, 0.6155567664795943),
    (3.16227766016838, 0.22796260816986494),
    (10.0, 0.08305704799496322),
    (31.622776601683793, 0.028870862806723123),
    (100.0, 0.009607654756958038),
]

TINY_GAP_ROOTS = [(1e-9, 500000000.1666666), (1e-11, 50000000000.16667)]


class TestSpecialFunctions:
    def test_digamma_reference_points(self):
        assert_allclose(egd.digamma(1.0), DIGAMMA_1, rtol=1e-12)
        assert_allclose(egd.digamma(0.5), DIGAMMA_HALF, rtol=1e-12)
        assert_allclose(egd.digamma(10.0), DIGAMMA_10, rtol=1e-12)

    def test_trigamma_reference_points(self):
        assert_allclose(egd.trigamma(1.0), TRIGAMMA_1, rtol=1e-12)
        assert_allclose(egd.trigamma(1.0), np.pi ** 2 / 6.0, rtol=1e-12)
        assert_allclose(egd.trigamma(25.0), TRIGAMMA_25, rtol=1e-12)

    @pytest.mark.parametrize("x", [0.05, 0.7, 3.3, 42.0])
    def test_digamma_recurrence(self, x):
        assert_allclose(egd.digamma(x + 1.0) - egd.digamma(x), 1.0 / x,
                        rtol=1e-10)

    @pytest.mark.parametrize("x", [0.05, 0.7, 3.3, 42.0])
    def test_trigamma_recurrence(self, x):
        assert_allclose(egd.trigamma(x + 1.0) - egd.trigamma(x),
                        -1.0 / x ** 2, rtol=1e-10)

    @pytest.mark.parametrize("func", [egd.digamma, egd.trigamma])
    def test_domain_errors(self, func):
        with pytest.raises(ValueError, match="x > 0"):
            func(0.0)
        with pytest.raises(ValueError, match="x > 0"):
            func(-1.5)

    def test_vectorized(self):
        x = np.array([0.5, 1.0, 10.0])
        assert_allclose(egd.digamma(x),
                        [DIGAMMA_HALF, DIGAMMA_1, DIGAMMA_10], rtol=1e-12)

    def test_accuracy_against_scipy(self):
        # across the recurrence range (x < 10) and the asymptotic series
        x = np.geomspace(1e-8, 1e8, 20001)
        want = scipy.special.polygamma(1, x)
        assert np.max(np.abs(egd.trigamma(x) - want) / want) <= 1e-14
        want = scipy.special.psi(x)
        assert np.all(np.abs(egd.digamma(x) - want)
                      <= 1e-14 * np.maximum(1.0, np.abs(want)))

    def test_kernel_matches_mpmath(self):
        # the differences themselves, which the shape solver reads
        for a, d, t in PSI_GAPS:
            got_d, got_t = egd.gammafit._psi_gaps(a)
            assert abs(got_d - d) <= 4e-15 * d, a
            assert abs(got_t - t) <= 4e-15 * t, a

    def test_newton_denominator_always_negative(self):
        # the shape update divides by a^2 (1/a - trigamma(a)); the second
        # factor must be negative for every positive a
        for a in np.logspace(-3, 3, 25):
            assert 1.0 / a - egd.trigamma(a) < 0.0


class TestWeightedSample:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError, match="positive"):
            egd.WeightedSample(np.array([1.0, 0.0]), np.ones(2))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            egd.WeightedSample(np.ones(2), np.array([1.0, -1.0]))

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ValueError, match="positive"):
            egd.WeightedSample(np.ones(2), np.zeros(2))


class TestFitGamma:
    def test_worked_newton_step(self):
        # one hand-evaluated update from a=1 when the log-moment gap
        # log(vbar) - mean(log v) equals 0.3
        a = 1.0
        gap = 0.3
        numer = -gap + np.log(a) - egd.digamma(a)
        denom = a ** 2 * (1.0 / a - egd.trigamma(a))
        a_new = 1.0 / (1.0 / a + numer / denom)
        assert_allclose(a_new, 1.7538803155728917, rtol=1e-12)
        assert a_new == pytest.approx(1.7539, abs=1e-3)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(515)
        v = rng.gamma(3.0, 2.0, size=100000)
        fit = egd.fit_gamma_weighted(egd.WeightedSample(v, np.ones(v.size)))
        assert fit.converged
        assert fit.shape_a == pytest.approx(3.0, abs=0.05)
        assert fit.scale_b == pytest.approx(2.0, abs=0.05)

    def test_weight_invariance(self):
        rng = np.random.default_rng(516)
        v = rng.gamma(1.5, 0.8, size=400)
        plain = egd.fit_gamma_weighted(egd.WeightedSample(v, np.ones(400)))
        doubled = egd.fit_gamma_weighted(
            egd.WeightedSample(np.concatenate([v, v]),
                               0.5 * np.ones(800)))
        # the estimate depends on the data only through weighted means;
        # summation order may shift the last ulp
        assert_allclose(doubled.shape_a, plain.shape_a, rtol=1e-12)
        assert_allclose(doubled.scale_b, plain.scale_b, rtol=1e-12)

    def test_score_equations_hold(self):
        rng = np.random.default_rng(517)
        v = rng.gamma(2.2, 1.4, size=5000)
        w = rng.uniform(0.5, 1.5, size=5000)
        fit = egd.fit_gamma_weighted(egd.WeightedSample(v, w))
        vbar = w @ v / w.sum()
        mlog = w @ np.log(v) / w.sum()
        gap = np.log(vbar) - mlog
        assert abs(np.log(fit.shape_a) - egd.digamma(fit.shape_a)
                   - gap) < 1e-8
        assert_allclose(fit.scale_b * fit.shape_a, vbar, rtol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_golden_section(self, seed):
        rng = np.random.default_rng(600 + seed)
        true_a = float(rng.uniform(0.3, 20.0))
        v = rng.gamma(true_a, 2.0, size=3000)
        w = rng.uniform(0.1, 2.0, size=3000)
        fit = egd.fit_gamma_weighted(egd.WeightedSample(v, w))
        oracle = golden_gamma_shape(v, w)
        assert abs(fit.shape_a - oracle) <= 1e-4
        assert fit.iterations <= 50

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_tol(self, tol):
        sample = egd.WeightedSample(np.array([1.0, 2.0, 4.0]))
        with pytest.raises(ValueError, match="tol must be positive"):
            egd.fit_gamma_weighted(sample, tol=tol)

    def test_degenerate_sample(self):
        with pytest.raises(ValueError, match="degenerate sample"):
            egd.fit_gamma_weighted(
                egd.WeightedSample(np.full(10, 2.5), np.ones(10)))

    def test_extreme_shapes_still_converge(self):
        rng = np.random.default_rng(518)
        for true_a in (0.05, 80.0):
            v = rng.gamma(true_a, 1.0, size=20000)
            fit = egd.fit_gamma_weighted(
                egd.WeightedSample(v, np.ones(v.size)))
            assert fit.converged and fit.iterations <= 50
            assert fit.shape_a == pytest.approx(true_a, rel=0.1)


class TestMomentsKernel:
    """The mixture's radial step fits from moments of cached radii."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_public_fit_bit_for_bit(self, seed):
        # the moments as the mixture forms them: one row of a K x n matrix
        # of values, its logarithm taken over the whole matrix
        rng = np.random.default_rng(seed)
        values = rng.gamma(rng.uniform(0.3, 8.0), 1.7, size=(3, 500))
        logs = np.log(values)
        weights = rng.uniform(0.0, 2.0, 500)
        weights[rng.random(500) < 0.3] = 0.0
        for k in range(3):
            swk = float(weights.sum())
            got = egd.gammafit._fit_gamma_moments(
                float(weights @ values[k]) / swk,
                float(weights @ logs[k]) / swk)
            want = egd.fit_gamma_weighted(
                egd.WeightedSample(values[k], weights))
            assert got == want

    @pytest.mark.parametrize("vbar, mlog", [
        (np.inf, 0.0), (np.nan, 0.0), (2.0, -np.inf), (2.0, np.nan),
        (0.0, -1.0)])
    def test_rejects_nonfinite_moments(self, vbar, mlog):
        with pytest.raises(ValueError, match="moments"):
            egd.gammafit._fit_gamma_moments(vbar, mlog)


class TestBisectionHandOff:
    """A Newton step that leaves the bracket becomes a bisection step."""

    @pytest.fixture
    def sample(self):
        v = np.random.default_rng(4).gamma(3.0, 2.0, size=300)
        return egd.WeightedSample(v)

    def test_max_iter_caps_every_step(self, sample):
        fit = egd.fit_gamma_weighted(sample, max_iter=1)
        assert not fit.converged
        assert fit.iterations == 1

    def test_zero_newton_denominator_falls_back(self, sample, monkeypatch):
        reference = egd.fit_gamma_weighted(sample)
        # T(a) = trigamma(a) - 1/a = 0 makes the Newton denominator a^2 T zero
        gaps = egd.gammafit._psi_gaps
        monkeypatch.setattr(egd.gammafit, "_psi_gaps",
                            lambda a: (gaps(a)[0], 0.0))
        fit = egd.fit_gamma_weighted(sample)
        assert fit.converged
        assert_allclose(fit.shape_a, reference.shape_a, rtol=1e-9, atol=0.0)
        assert_allclose(fit.scale_b, reference.scale_b, rtol=1e-9, atol=0.0)


def _in_bracket(fit, vbar, mlog):
    # 1/(2a) < log(a) - digamma(a) < 1/a puts the root in [1/(2 gap), 1/gap];
    # the gap is formed as the solver forms it
    gap = math.log(vbar) - mlog
    return 0.5 / gap <= fit.shape_a <= 1.0 / gap


class TestShapeBracket:
    """The shape stays inside the closed-form bracket of the root."""

    @pytest.mark.parametrize("vbar", [1e-3, 1.0, 1e3])
    def test_gap_grid_converges_inside_bracket(self, vbar):
        for gap in np.logspace(-13.0, 2.0, 31):
            mlog = np.log(vbar) - gap
            fit = egd.gammafit._fit_gamma_moments(vbar, mlog)
            assert fit.converged and fit.iterations <= 100, gap
            assert _in_bracket(fit, vbar, mlog), gap

    @pytest.mark.parametrize("vbar", [1e-3, 1.0, 1e3])
    def test_gap_grid_matches_mpmath_roots(self, vbar):
        for gap, root in SHAPE_ROOTS:
            fit = egd.gammafit._fit_gamma_moments(vbar, np.log(vbar) - gap)
            assert abs(fit.shape_a - root) <= 1e-14 * root, gap

    @pytest.mark.parametrize("gap, root", TINY_GAP_ROOTS)
    def test_tiny_gap_converges_in_few_steps(self, gap, root):
        # the score has no cancellation, so Newton is not slowed by rounding
        fit = egd.gammafit._fit_gamma_moments(1.0, -gap)
        assert fit.converged and fit.iterations <= 3
        assert abs(fit.shape_a - root) <= 1e-14 * root

    @pytest.mark.parametrize("mlog", [-1e150, -3e161, -1e307])
    def test_tiny_shape_bisects_to_the_root(self, mlog):
        # T(a) overflows below a ~ 1e-154, and D(a) = 1/a to double
        # precision; with no Newton step the fit bisects up to a = 1/gap
        fit = egd.gammafit._fit_gamma_moments(1.0, mlog)
        assert fit.converged
        assert abs(fit.shape_a * -mlog - 1.0) <= 1e-9

    @pytest.mark.parametrize("level", [1e-3, 2.5, 1e3])
    def test_values_equal_to_rounding_are_degenerate(self, level):
        # a relative spread of 1e-8 leaves a log-moment gap of about 1e-17,
        # below the rounding of log(vbar) and mlog
        u = np.random.default_rng(9).uniform(-1.0, 1.0, 50)
        sample = egd.WeightedSample(level * (1.0 + 1e-8 * u))
        with pytest.raises(ValueError, match="degenerate sample"):
            egd.fit_gamma_weighted(sample)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(vbar=st.floats(min_value=5e-324, allow_infinity=False),
           mlog=st.floats(allow_nan=False, allow_infinity=False))
    def test_fit_raises_or_converges_inside_bracket(self, vbar, mlog):
        try:
            fit = egd.gammafit._fit_gamma_moments(vbar, mlog)
        except ValueError:
            return
        assert fit.converged
        assert _in_bracket(fit, vbar, mlog)

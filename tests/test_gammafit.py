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
        # trigamma(a) = 1/a makes the Newton denominator a^2 (1/a - 1/a) zero
        monkeypatch.setattr(egd.gammafit, "_trigamma", lambda a: 1.0 / a)
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

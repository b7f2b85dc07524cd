"""Density evaluation, sampling, and the scale-mixture cross-check."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, linalg, special, stats

import egd
from egd._linalg import chol_lower, quad_forms, reduced_eigvalsh, tril_inv
from helpers import egd_avg_loglik_reference, quad_forms_longdouble, random_spd

RNG_SEED = 20240817


class TestScatterMatrix:
    def test_identity_factory(self):
        s = egd.ScatterMatrix.identity(3)
        assert s.dim == 3
        assert_allclose(s.entries, np.eye(3))
        assert repr(s) == "ScatterMatrix(dim=3)"

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            egd.ScatterMatrix(np.array([[1.0, 0.5], [0.1, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_tiny_scale_accepted(self, scale):
        s = egd.ScatterMatrix(scale * np.eye(3))
        assert_allclose(s.log_det, 3.0 * np.log(scale), rtol=1e-12)

    def test_huge_finite_entries(self):
        # the entries' sum with their transpose would overflow; their
        # average does not
        mat = 1e308 * np.array([[1.0, 0.5], [0.5, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = egd.ScatterMatrix(mat)
        assert np.array_equal(s.entries, mat)
        assert np.all(np.isfinite(s.cholesky))
        assert_allclose(s.log_det, 2.0 * np.log(1e308) + np.log(0.75),
                        rtol=1e-12)

    @pytest.mark.parametrize("mat", [
        np.zeros((2, 2)), 1e-170 * np.array([[1.0, 0.5], [0.1, 1.0]])],
        ids=["zero", "tiny-asymmetric"])
    def test_rejects_zero_and_tiny_asymmetric(self, mat):
        with pytest.raises(ValueError, match="symmetric"):
            egd.ScatterMatrix(mat)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            egd.ScatterMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_entries_read_only(self):
        s = egd.ScatterMatrix.identity(2)
        with pytest.raises(ValueError):
            s.entries[0, 0] = 5.0

    def test_log_det(self):
        mat = random_spd(5, np.random.default_rng(RNG_SEED))
        s = egd.ScatterMatrix(mat)
        assert_allclose(s.log_det, np.linalg.slogdet(mat)[1], rtol=1e-12)


class TestDataset:
    def test_rejects_zero_row(self):
        x = np.ones((4, 2))
        x[2] = 0.0
        with pytest.raises(ValueError, match="sample 2 is the exact zero"):
            egd.Dataset(x)

    def test_rejects_nonfinite(self):
        x = np.ones((3, 2))
        x[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            egd.Dataset(x)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            egd.Dataset(np.ones((2, 2)), np.array([1.0, -0.5]))

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ValueError, match="positive"):
            egd.Dataset(np.ones((2, 2)), np.zeros(2))

    def test_default_weights(self):
        d = egd.Dataset(np.ones((5, 3)))
        assert d.n == 5 and d.dim == 3
        assert d.total_weight == 5.0
        assert repr(d) == "Dataset(n=5, dim=3)"


def _given_and_held(kind, rng):
    """The arrays passed to a public constructor and those the object holds."""
    if kind == "dataset":
        x, w = rng.standard_normal((6, 2)), rng.uniform(0.5, 2.0, 6)
        data = egd.Dataset(x, w)
        return (x, w), (data.samples, data.weights)
    if kind == "weighted-sample":
        v, w = rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 6)
        sample = egd.WeightedSample(v, w)
        return (v, w), (sample.values, sample.weights)
    if kind == "mixture":
        probs = np.array([0.25, 0.75])
        comp = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        return (probs,), (egd.MixtureModel([comp, comp], probs).mix_probs,)
    resp = np.full((2, 6), 0.5)
    return (resp,), (egd.Responsibilities(resp).matrix,)


@pytest.mark.parametrize("kind", ["dataset", "weighted-sample", "mixture",
                                  "responsibilities"])
def test_constructors_freeze_a_view(kind):
    # the object holds a read-only view of each C-contiguous float64 array
    # it is given, and the caller's own array stays writable
    given, held = _given_and_held(kind, np.random.default_rng(3))
    for mine, theirs in zip(given, held):
        first = (0,) * mine.ndim
        assert np.shares_memory(mine, theirs)
        with pytest.raises(ValueError, match="read-only"):
            theirs[first] = 1.0
        mine[first] = 1.0
        assert theirs[first] == 1.0


class TestSquaredRadius:
    def test_identity(self):
        s = egd.ScatterMatrix.identity(2)
        assert egd.squared_radius(s, np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_diagonal(self):
        s = egd.ScatterMatrix(np.diag([4.0, 1.0]))
        assert egd.squared_radius(s, np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_general_2x2(self):
        # [[2,1],[1,2]]^-1 = (1/3)[[2,-1],[-1,2]]; (1,1) gives 2/3
        s = egd.ScatterMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert egd.squared_radius(s, np.array([1.0, 1.0])) == pytest.approx(
            2.0 / 3.0, rel=1e-12)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        s = egd.ScatterMatrix(random_spd(4, rng))
        x = rng.standard_normal((20, 4))
        batched = egd.squared_radius(s, x)
        looped = [egd.squared_radius(s, row) for row in x]
        assert_allclose(batched, looped, rtol=1e-12)

    def test_overflow_is_inf(self):
        # L^{-1} x overflows here, not only its square
        s = egd.ScatterMatrix(1e-250 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert egd.squared_radius(s, np.array([1e200, 1.0])) == np.inf

    def test_positive_off_origin(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        s = egd.ScatterMatrix(random_spd(3, rng))
        x = rng.standard_normal((50, 3))
        assert np.all(egd.squared_radius(s, x) > 0.0)


class TestQuadFormsAccuracy:
    """Quadratic forms through the triangular inverse, against long double."""

    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10, 1e13])
    @pytest.mark.parametrize("q", [2, 7, 16, 40])
    def test_ill_conditioned_scatter(self, cond, q):
        rng = np.random.default_rng(int(np.log10(cond)) * 100 + q)
        basis = np.linalg.qr(rng.standard_normal((q, q)))[0]
        scatter = egd.ScatterMatrix(
            (basis * np.logspace(0.0, -np.log10(cond), q)) @ basis.T)
        x = rng.standard_normal((300, q))
        expect = quad_forms_longdouble(scatter.cholesky, x)
        got = quad_forms(tril_inv(scatter.cholesky), x)
        assert got.shape == (300,)
        assert np.max(np.abs(got - expect) / expect) <= 1e-13

    @pytest.mark.parametrize("q,n", [(1, 1), (1, 5), (5, 1)])
    def test_small_shapes(self, q, n):
        rng = np.random.default_rng(RNG_SEED + 2)
        scatter = egd.ScatterMatrix(random_spd(q, rng))
        x = rng.standard_normal((n, q))
        expect = quad_forms_longdouble(scatter.cholesky, x)
        got = egd.squared_radius(scatter, x)
        assert got.shape == (n,)
        assert_allclose(got, expect.astype(float), rtol=1e-13)

    @pytest.mark.parametrize("q", [1, 4])
    def test_vector_argument(self, q):
        rng = np.random.default_rng(RNG_SEED + 3)
        scatter = egd.ScatterMatrix(random_spd(q, rng))
        x = rng.standard_normal(q)
        got = egd.squared_radius(scatter, x)
        assert isinstance(got, float)
        expect = float(quad_forms_longdouble(scatter.cholesky, x)[0])
        assert got == pytest.approx(expect, rel=1e-13)

    def test_singular_factor_rejected(self):
        chol = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not positive definite"):
            quad_forms(tril_inv(chol), np.ones((3, 2)))


class TestGeneralizedEigvals:
    """Pencil eigenvalues by Cholesky reduction, against scipy's ``eigh``.

    The reduction is the one the scaled fixed point applies to the map
    pencil: the inverse Cholesky factor of the SPD side, then
    :func:`reduced_eigvalsh`.
    """

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("q", [2, 3, 8, 16, 33, 64])
    def test_matches_scipy(self, q, cond):
        # B = D K D and A = D J D with K, J well conditioned and D a diagonal
        # grading of spread sqrt(cond): cond(B) is about cond, while the
        # eigenvalues, those of (J, K), stay well determined
        rng = np.random.default_rng(int(np.log10(cond)) * 100 + q)
        grading = np.logspace(0.0, -0.5 * np.log10(cond), q)[rng.permutation(q)]
        k, j = (random_spd(q, rng) / q + np.eye(q) for _ in range(2))
        b = grading[:, None] * k * grading
        a = grading[:, None] * j * grading
        assert np.linalg.cond(b) >= 0.1 * cond
        got = reduced_eigvalsh(a, tril_inv(chol_lower(b)))
        assert_allclose(got, linalg.eigh(a, b, eigvals_only=True), rtol=1e-12)

    def test_indefinite_spd_argument_raises(self):
        spd = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="not positive definite"):
            reduced_eigvalsh(np.eye(2), tril_inv(chol_lower(spd)))


class TestCholLower:
    def test_upper_triangle_is_not_read(self):
        spd = random_spd(5, np.random.default_rng(7))
        junk = np.random.default_rng(8).uniform(-1e6, 1e6, (5, 5))
        garbled = np.tril(spd) + np.triu(junk, 1)
        assert np.array_equal(chol_lower(garbled), chol_lower(spd))


class TestLogDensity:
    def test_gaussian_at_origin(self):
        # a = q/2, b = 2 is the standard normal; log(1/(2*pi))
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        assert_allclose(egd.log_density(p, np.zeros(2)),
                        -1.8378770664093453, rtol=1e-12)

    def test_gaussian_radius_two(self):
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        assert_allclose(egd.log_density(p, np.array([1.0, 1.0])),
                        -2.8378770664093453, rtol=1e-12)

    def test_half_shape_value(self):
        # frozen from a term-by-term scalar evaluation with mpmath
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), 0.5, 2.0)
        assert_allclose(egd.log_density(p, np.array([1.0, 0.0])),
                        -2.563668419054073, rtol=1e-12)

    def test_huge_shape_is_minus_inf(self):
        # log Gamma(a) overflows a double here and is taken as inf
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), 1e306, 1.0)
        assert egd.log_density(p, np.array([1.0, 0.5])) == -np.inf

    @pytest.mark.parametrize("shape_a", [0.5, 1.5, 4.0])
    def test_overflowing_radius_is_minus_inf(self, shape_a):
        # x'x overflows to inf; for a > q/2 the radial terms would be
        # (a - q/2) inf - inf / b
        p = egd.EgdParams(egd.ScatterMatrix.identity(3), shape_a, 2.0)
        x = np.array([[1e200, 1.0, 1.0], [1.0, 2.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = egd.log_density(p, x)
            assert egd.log_density(p, x[0]) == -np.inf
        assert rows[0] == -np.inf
        assert rows[1] == egd.log_density(p, x[1])

    def test_origin_rejected_off_gaussian_shape(self):
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), 0.5, 2.0)
        with pytest.raises(ValueError, match="singular/zero at origin"):
            egd.log_density(p, np.zeros(2))

    def test_origin_error_reports_index(self):
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), 0.5, 2.0)
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="sample 1"):
            egd.log_density(p, x)

    @pytest.mark.parametrize("shape_a", [0.5, 1.0])
    def test_no_rows(self, shape_a):
        # off and on the Gaussian boundary a = q/2
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), shape_a, 2.0)
        assert egd.log_density(p, np.empty((0, 2))).shape == (0,)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        sigma = random_spd(3, rng)
        amat = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        x = rng.standard_normal(3)
        base = egd.log_density(
            egd.EgdParams(egd.ScatterMatrix(sigma), 1.1, 0.9), x)
        moved = egd.log_density(
            egd.EgdParams(egd.ScatterMatrix(amat @ sigma @ amat.T), 1.1, 0.9),
            amat @ x)
        assert_allclose(moved, base - np.log(abs(np.linalg.det(amat))),
                        rtol=1e-10)

    @pytest.mark.parametrize("a,b", [(0.25, 3.0), (0.5, 2.0), (1.5, 0.7)])
    def test_normalizes_q1(self, a, b):
        p = egd.EgdParams(egd.ScatterMatrix(np.array([[1.3]])), a, b)

        def dens(x):
            return np.exp(egd.log_density(p, np.array([x])))

        total, _ = integrate.quad(dens, -60.0, 60.0, points=[0.0], limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (2.5, 0.8)])
    def test_normalizes_q2(self, a, b):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        p = egd.EgdParams(egd.ScatterMatrix(sigma), a, b)

        def dens(y, x):
            if x == 0.0 and y == 0.0:
                return 0.0 if a > 1.0 else np.exp(egd.log_density(p, np.zeros(2)))
            return np.exp(egd.log_density(p, np.array([x, y])))

        total, _ = integrate.dblquad(dens, -12.0, 12.0, -12.0, 12.0,
                                     epsabs=1e-6)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestGammaLogDensity:
    def test_exponential_case(self):
        assert egd.gamma_log_density(1.0, 1.0, 1.0) == pytest.approx(-1.0)

    def test_shape_three(self):
        # frozen: 2*log 2 - log 2 - 3*log 2 - 1
        assert_allclose(egd.gamma_log_density(2.0, 3.0, 2.0),
                        -2.386294361119891, rtol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="positive"):
            egd.gamma_log_density(0.0, 1.0, 1.0)

    def test_matches_scipy(self):
        v = np.array([0.3, 1.7, 5.2])
        expect = stats.gamma.logpdf(v, 1.8, scale=2.4)
        got = [egd.gamma_log_density(x, 1.8, 2.4) for x in v]
        assert_allclose(got, expect, rtol=1e-12)

    @pytest.mark.parametrize("v", [1.0, [1.0, 2.0]])
    def test_huge_shape_is_minus_inf(self, v):
        # log Gamma(a) overflows a double here and is taken as inf
        got = egd.gamma_log_density(v, 1e306, 1.0)
        assert np.all(np.asarray(got) == -np.inf)


class TestLogLikelihood:
    def test_single_sample(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        p = egd.EgdParams(egd.ScatterMatrix(random_spd(3, rng)), 1.4, 1.1)
        x = rng.standard_normal(3)
        d = egd.Dataset(x[None, :])
        assert_allclose(egd.log_likelihood(p, d), egd.log_density(p, x),
                        rtol=1e-14)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        p = egd.EgdParams(egd.ScatterMatrix(random_spd(2, rng)), 2.0, 0.7)
        x = rng.standard_normal((30, 2))
        base = egd.log_likelihood(p, egd.Dataset(x))
        doubled = egd.log_likelihood(p, egd.Dataset(x, 2.0 * np.ones(30)))
        assert_allclose(doubled, 2.0 * base, rtol=1e-14)

    def test_gaussian_oracle(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        x = rng.standard_normal((100, 3)) @ np.linalg.cholesky(
            random_spd(3, rng)).T
        cov = x.T @ x / 100
        p = egd.EgdParams(egd.ScatterMatrix(cov), 1.5, 2.0)
        ours = egd.log_likelihood(p, egd.Dataset(x))
        oracle = stats.multivariate_normal(np.zeros(3), cov).logpdf(x).sum()
        assert_allclose(ours, oracle, rtol=1e-10)

    def test_weighted_matches_reference(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        x = rng.standard_normal((50, 4))
        w = rng.uniform(0.1, 2.0, size=50)
        sigma = random_spd(4, rng)
        p = egd.EgdParams(egd.ScatterMatrix(sigma), 2.3, 1.2)
        ours = egd.log_likelihood(p, egd.Dataset(x, w))
        ref = egd_avg_loglik_reference(x, w, sigma, 2.3, 1.2) * w.sum()
        assert_allclose(ours, ref, rtol=1e-10)


class TestSample:
    def test_shapes_and_determinism(self):
        p = egd.EgdParams(egd.ScatterMatrix.identity(4), 1.0, 2.0)
        d1 = egd.sample(p, 100, seed=9)
        d2 = egd.sample(p, 100, seed=9)
        d3 = egd.sample(p, 100, seed=10)
        assert d1.samples.shape == (100, 4)
        assert np.array_equal(d1.samples, d2.samples)
        assert not np.array_equal(d1.samples, d3.samples)

    def test_second_moment(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        sigma = random_spd(3, rng)
        a, b = 1.2, 1.7
        p = egd.EgdParams(egd.ScatterMatrix(sigma), a, b)
        d = egd.sample(p, 60000, seed=11)
        emp = d.samples.T @ d.samples / d.n
        expect = (a * b / 3.0) * sigma
        assert np.linalg.norm(emp - expect) / np.linalg.norm(expect) < 0.05

    def test_radii_distribution(self):
        a, b = 0.8, 2.5
        p = egd.EgdParams(egd.ScatterMatrix.identity(3), a, b)
        d = egd.sample(p, 20000, seed=12)
        radii = np.einsum("ij,ij->i", d.samples, d.samples)
        _, pvalue = stats.kstest(radii, stats.gamma(a, scale=b).cdf)
        assert pvalue > 0.01

    def test_peak_memory(self):
        # the draws are normalized and scaled in place, so the sampler
        # holds about one n x q array beside its output at its peak
        p = egd.EgdParams(egd.ScatterMatrix.identity(64), 30.0, 2.0)
        egd.sample(p, 10, seed=14)
        tracemalloc.start()
        try:
            out = egd.sample(p, 20000, seed=14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * out.samples.nbytes

    @staticmethod
    def _stream(seed, n, q, a, b):
        # the sampler's draws: directions first, then squared radii
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, q))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        return u, rng.gamma(shape=a, scale=b, size=n)

    def test_root_is_cholesky_factor(self):
        # whitening by L^{-1} gives back sqrt(v) u of the same stream
        a, b = 1.3, 0.7
        scatter = egd.ScatterMatrix(
            random_spd(5, np.random.default_rng(RNG_SEED + 8)))
        d = egd.sample(egd.EgdParams(scatter, a, b), 300, seed=13)
        white = linalg.solve_triangular(scatter.cholesky, d.samples.T,
                                        lower=True).T
        u, v = self._stream(13, 300, 5, a, b)
        assert_allclose(white, np.sqrt(v)[:, None] * u, rtol=0.0,
                        atol=1e-12 * np.sqrt(v.max()))

    def test_ill_conditioned_scatter_samples(self):
        # condition number about 1e15: the class accepts it, so it samples
        q = 4
        rng = np.random.default_rng(RNG_SEED + 9)
        basis = np.linalg.qr(rng.standard_normal((q, q)))[0]
        mat = (basis * np.logspace(0.0, -15.0, q)) @ basis.T
        scatter = egd.ScatterMatrix(0.5 * (mat + mat.T))
        assert np.linalg.cond(scatter.entries) > 5e14
        d = egd.sample(egd.EgdParams(scatter, 1.5, 2.0), 500, seed=3)
        _, v = self._stream(3, 500, q, 1.5, 2.0)
        assert_allclose(egd.squared_radius(scatter, d.samples), v,
                        rtol=1e-6)


class TestGsmDensity:
    def test_matches_closed_form(self):
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), 0.5, 2.0)
        x = np.array([1.0, 0.0])
        mc = egd.gsm_density_mc(p.scatter, 0.5, x, num_mc=300000, seed=13)
        assert mc == pytest.approx(np.exp(egd.log_density(p, x)), rel=0.02)

    def test_deterministic_single_draw(self):
        s = egd.ScatterMatrix.identity(2)
        x = np.array([0.5, 0.5])
        v1 = egd.gsm_density_mc(s, 0.7, x, num_mc=1, seed=21)
        v2 = egd.gsm_density_mc(s, 0.7, x, num_mc=1, seed=21)
        assert v1 == v2

    def test_rejects_concave_shape(self):
        s = egd.ScatterMatrix.identity(2)
        with pytest.raises(ValueError, match="a < dim/2"):
            egd.gsm_density_mc(s, 1.0, np.array([1.0, 0.0]), 10, seed=0)

    def test_all_terms_underflow_to_zero(self):
        s = egd.ScatterMatrix(np.eye(4))
        assert egd.gsm_density_mc(s, 1.0, np.full(4, 1e200), num_mc=50,
                                  seed=0) == 0.0

    @pytest.mark.parametrize("q,a,num_mc,spread", [
        (2, 0.5, 1, 1.0), (3, 0.7, 500, 1.0), (3, 0.7, 500, 10.0),
        (6, 1.1, 2000, 10.0)])
    def test_matches_scipy_logsumexp(self, q, a, num_mc, spread):
        # at spread 10 the log terms run from about -300 down past -15000,
        # so most of them vanish beside the largest
        rng = np.random.default_rng(RNG_SEED + 20 + q)
        scatter = egd.ScatterMatrix(random_spd(q, rng))
        x = spread * rng.standard_normal(q)
        got = egd.gsm_density_mc(scatter, a, x, num_mc=num_mc, seed=q)
        u = np.random.default_rng(q).beta(0.5 * q - a, a, size=num_mc)
        u = np.maximum(u, np.finfo(float).tiny)
        log_terms = (-0.5 * q * np.log(2.0 * np.pi * u) - 0.5 * scatter.log_det
                     - egd.squared_radius(scatter, x) / (2.0 * u))
        expect = np.exp(special.logsumexp(log_terms) - np.log(num_mc))
        assert expect > 0.0
        assert got == pytest.approx(expect, rel=1e-13)


class TestMixtureModel:
    def test_weight_sum_validated(self):
        p = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        with pytest.raises(ValueError, match="sum to one"):
            egd.MixtureModel([p, p], np.array([0.6, 0.5]))

    def test_dim_consistency(self):
        p2 = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        p3 = egd.EgdParams(egd.ScatterMatrix.identity(3), 1.0, 2.0)
        with pytest.raises(ValueError, match="dimension"):
            egd.MixtureModel([p2, p3], np.array([0.5, 0.5]))

"""The matrix B, the two fixed-point iterations, step scaling, and the baseline."""

import itertools
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

import egd
from egd._linalg import chol_lower, gram, reduced_eigvalsh, tril_inv
from egd.scatter import _problem, _start
from helpers import (ascent_oracle_avg_loglik, kent_tyler_reference,
                     make_egd_data, nonconcave_reference,
                     nonconcave_reference_step, random_spd, rel_frob,
                     tyler_reference)


@pytest.fixture()
def breakdowns(monkeypatch):
    """Collects the message of each breakdown a scatter step raises."""
    messages = []

    class Recorded(egd.scatter._Breakdown):
        def __init__(self, message):
            messages.append(message)
            super().__init__(message)

    monkeypatch.setattr(egd.scatter, "_Breakdown", Recorded)
    return messages


def wide_start_fit(fit, x, a, scale):
    """``fit`` at shape ``a`` and scale 2 from ``scale * I``, with every
    floating-point warning an error."""
    config = egd.FixedPointConfig(init="user",
                                  user_matrix=scale * np.eye(x.shape[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit(egd.Dataset(x), a, 2.0, config)


class TestComputeConstants:
    def test_worked_values(self):
        c, d = egd.compute_constants(1.0, 2.0, 4, 100.0)
        assert c == pytest.approx(0.02, rel=1e-14)
        assert d == pytest.approx(0.01, rel=1e-14)

    def test_gaussian_boundary(self):
        for q, n in [(2, 10.0), (6, 500.0)]:
            c, _ = egd.compute_constants(0.5 * q, 2.0, q, n)
            assert c == 0.0

    def test_concave_values(self):
        c, d = egd.compute_constants(50.0, 2.0, 16, 1000.0)
        assert c == pytest.approx(-0.084, rel=1e-14)
        assert d == pytest.approx(0.001, rel=1e-14)


class TestBMatrix:
    """The matrix ``B = d sum_i w_i x_i x_i'`` of a fit, its factor and rank rule."""

    def test_scalar_case(self):
        # one sample, n_eff = 1: d = 2 / b = 0.25
        x = np.array([[np.sqrt(1.0 / 0.25)]])
        problem = _problem(x, np.ones(len(x)), 0.1, 8.0)
        b_scatter = problem.b_scatter
        assert b_scatter.entries[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert abs(b_scatter.cholesky[0, 0]) == pytest.approx(1.0, rel=1e-14)

    def test_rank_deficient_rejected(self):
        x = np.random.default_rng(0).standard_normal((3, 5))
        with pytest.raises(egd.RankDeficiencyError,
                           match="does not span R\\^q"):
            _problem(x, np.ones(len(x)), 0.1, 2.0).b_scatter

    def test_zero_weights_outside_subspace_rejected(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 3))
        w = np.zeros(10)
        w[:2] = 1.0
        with pytest.raises(egd.RankDeficiencyError):
            _problem(x, w, 0.1, 2.0).b_scatter

    @pytest.mark.parametrize("spread, spans", [(1e-7, False), (1e-6, True)])
    def test_factorable_but_ill_conditioned(self, spread, spans):
        # cond(B) is about 3e14 at spread 1e-7 and 3e12 at 1e-6; the
        # Cholesky factorization succeeds at both, so the condition bound
        # alone decides
        x = np.random.default_rng(7).standard_normal((50, 4))
        x[:, 3] = x[:, 0] + spread * x[:, 3]
        # d = 2 / (b n_eff) = 0.02
        chol_lower(gram(x, np.full(50, 0.02)))
        if spans:
            _problem(x, np.ones(len(x)), 0.1, 2.0).b_scatter
        else:
            with pytest.raises(egd.RankDeficiencyError,
                               match="does not span R\\^q"):
                _problem(x, np.ones(len(x)), 0.1, 2.0).b_scatter

    def test_factor_reconstruction(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1000, 8))
        problem = _problem(x, np.ones(len(x)), 4.05, 2.0)
        fac = problem.b_scatter.cholesky
        assert rel_frob(fac @ fac.T, problem.b_scatter.entries) < 1e-10

    def test_round_trip(self):
        # the inverse factor undoes the factor, and reduces B to I
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 4))
        problem = _problem(x, np.ones(len(x)), 0.5, 4.0)
        b_scatter = problem.b_scatter
        b_inv = b_scatter._chol_inv
        assert rel_frob(b_inv @ b_scatter.cholesky, np.eye(4)) < 1e-10
        assert rel_frob(b_inv @ b_scatter.entries @ b_inv.T, np.eye(4)) < 1e-10

    def test_weighted_b_matrix(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 2))
        w = rng.uniform(0.5, 1.5, size=30)
        d_const = 0.03
        # d = 2 / (b n_eff)
        problem = _problem(x, w, 1.0, 2.0 / (d_const * w.sum()))
        expect = d_const * (x * w[:, None]).T @ x
        assert_allclose(problem.b_scatter.entries, expect, rtol=1e-12)

    @pytest.mark.parametrize("fit, a", [
        (egd.fit_scatter, 3.0), (egd.fit_scatter, 0.5),
        (egd.fit_kent_tyler, 0.5)],
        ids=["concave", "nonconcave", "kent-tyler"])
    def test_overflowing_second_moment_raises(self, fit, a):
        # x x' of the first row overflows: every fit says so, with no
        # floating-point warning, instead of calling the data rank-deficient
        x = np.random.default_rng(5).standard_normal((40, 3))
        x[0] = [1e200, 1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="weighted second moment overflows") as err:
                fit(egd.Dataset(x), a, 1.0)
        assert not isinstance(err.value, egd.RankDeficiencyError)

    def test_rank_rule_where_the_trace_overflows(self):
        # every entry of B is finite and these rows span R^4, but the
        # diagonal sums past the largest double; the fit converges
        params = egd.EgdParams(egd.ScatterMatrix.identity(4), 1.2, 2.0)
        x = 1e154 * egd.sample(params, 300, 5).samples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b_mat = _problem(x, np.ones(300), 1.2, 2.0).b_scatter.entries
            report = egd.fit_scatter(egd.Dataset(x), 1.2, 2.0)
        with np.errstate(over="ignore"):
            assert np.trace(b_mat) == np.inf
        assert report.converged and not report.near_singular

    def test_gram_overflow_raises_without_warning(self):
        x = np.array([[1e200, 1.0], [1.0, -1e200], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                gram(x, np.ones(3))
        assert np.array_equal(gram(x[2:], np.ones(1)), np.ones((2, 2)))


class TestStationarityResidual:
    def test_zero_at_gaussian_solution(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 3))
        n = 200.0
        d_const = 2.0 / (2.0 * n)
        sigma = egd.ScatterMatrix(d_const * x.T @ x)
        assert egd.stationarity_residual(sigma, egd.Dataset(x), 0.0,
                                         d_const) < 1e-10

    def test_scaling_away_increases_residual(self):
        data, _ = make_egd_data(3, 0.9, 2.0, 500, seed=6)
        c, d = egd.compute_constants(0.9, 2.0, 3, 500.0)
        report = egd.fit_scatter(data, 0.9, 2.0,
                                 egd.FixedPointConfig(tol=1e-12))
        at_solution = egd.stationarity_residual(report.sigma_hat, data, c, d)
        scaled = egd.ScatterMatrix(2.0 * report.sigma_hat.entries)
        assert egd.stationarity_residual(scaled, data, c, d) > at_solution

    @pytest.mark.parametrize("fit, a, config", [
        ("scatter", 3.5, {}),
        ("scatter", 1.2, {"alpha_rule": "eigen"}),
        ("scatter", 1.2, {"alpha_rule": "trace"}),
        ("kent-tyler", 1.2, {}),
        ("scatter", 1.2, {"max_iter": 2}),
    ], ids=["concave", "eigen", "trace", "kent-tyler", "stopped"])
    def test_reported_residual_matches_reference(self, fit, a, config):
        # the driver's residual comes from the candidate the fit carries;
        # the public function builds it again in original coordinates
        q, b = 5, 2.0
        sample, _ = make_egd_data(q, a, b, 800, seed=8)
        w = np.random.default_rng(9).uniform(0.2, 2.0, sample.n)
        data = egd.Dataset(sample.samples, w)
        cfg = egd.FixedPointConfig(**config)
        run = egd.fit_kent_tyler if fit == "kent-tyler" else egd.fit_scatter
        report = run(data, a, b, cfg)
        c, d = egd.compute_constants(a, b, q, data.total_weight)
        ref = egd.stationarity_residual(report.sigma_hat, data, c, d)
        assert abs(report.final_residual - ref) <= 1e-8 * ref + 1e-12


class TestFitConcaveRegime:
    def test_gaussian_lands_on_sample_cov(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((300, 4)) @ np.linalg.cholesky(
            random_spd(4, rng)).T
        report = egd.fit_scatter(egd.Dataset(x), 2.0, 2.0,
                                 egd.FixedPointConfig())
        assert report.converged and report.iterations == 1
        assert rel_frob(report.sigma_hat.entries, x.T @ x / 300) < 1e-8
        # the step returns B itself, bit for bit
        _, d = egd.compute_constants(2.0, 2.0, 4, 300.0)
        assert np.array_equal(report.sigma_hat.entries,
                              gram(x, np.full(300, d)))

    def test_eigenvalue_box(self):
        data, _ = make_egd_data(5, 8.0, 1.3, 800, seed=8)
        report = egd.fit_scatter(data, 8.0, 1.3,
                                 egd.FixedPointConfig(tol=1e-12))
        assert report.converged
        c, _ = egd.compute_constants(8.0, 1.3, 5, 800.0)
        lower = 1.0 / (1.0 + (-c) * 800.0)
        assert np.all(report.iterate_eig_min_trace >= lower - 1e-10)
        assert np.all(report.iterate_eig_max_trace <= 1.0 + 1e-10)

    def test_matches_direct_ascent_oracle(self):
        data, _ = make_egd_data(8, 20.0, 2.0, 1000, seed=9)
        report = egd.fit_scatter(data, 20.0, 2.0,
                                 egd.FixedPointConfig(tol=1e-12))
        ours = report.loglik_trace[-1]
        x = data.samples
        oracle = ascent_oracle_avg_loglik(x, np.ones(1000), 20.0, 2.0,
                                          x.T @ x / 1000)
        assert ours >= oracle - 1e-6
        assert abs(ours - oracle) < 1e-6

    def test_trace_monotone_after_first(self):
        data, _ = make_egd_data(4, 6.0, 0.8, 500, seed=10)
        report = egd.fit_scatter(data, 6.0, 0.8,
                                 egd.FixedPointConfig(tol=1e-11))
        diffs = np.diff(report.loglik_trace)
        assert np.all(diffs >= -1e-9)

    def test_overflowing_m_ends_near_singular(self, breakdowns):
        # coverage: from so wide a start M = sum_i w_i x_i x_i' / t_i
        # overflows, so the first candidate does, and the fit stops at its
        # start with no floating-point warning
        x = 1e4 * np.random.default_rng(0).standard_normal((50, 3))
        report = wide_start_fit(egd.fit_concave, x, 2.5, 1e308)
        assert report.near_singular and not report.converged
        assert report.iterations == 0
        assert breakdowns == ["candidate overflows"]

    def test_overflowing_c_m_converges_without_warning(self):
        # at a large shape c M passes the largest double while M does not;
        # the candidate's residual is then inf or nan, which the stop rule
        # passes over, and the fit converges with no floating-point warning
        x = 1e150 * np.random.default_rng(0).standard_normal((20, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = egd.fit_concave(egd.Dataset(x), 1e9, 2.0)
        assert report.converged and not report.near_singular

    def test_start_far_above_b_converges_without_warning(self):
        # the pencil (Sigma, B) of a 1e300 I start on rows near 1e-100
        # overflows, and the radii floor; the step is scale-invariant, so
        # it is taken from a power-of-two multiple of the start, and the fit
        # lands where the fit from I does
        x = 1e-100 * np.random.default_rng(0).standard_normal((20, 2))
        far = wide_start_fit(egd.fit_concave, x, 3.0, 1e300)
        near = wide_start_fit(egd.fit_concave, x, 3.0, 1.0)
        assert far.converged and not far.near_singular
        # at unit scale, where the Frobenius norm does not underflow
        assert rel_frob(1e200 * far.sigma_hat.entries,
                        1e200 * near.sigma_hat.entries) <= 1e-10

    def test_unfactorizable_step_ends_near_singular(self, monkeypatch,
                                                    breakdowns):
        # coverage: the step inverts I + c' K^{-1} M K^{-T}, whose
        # eigenvalues are at least one, and no input found makes its
        # product with B fail to factor; a failure is injected, and the fit
        # stops at its start with a report
        data, _ = make_egd_data(3, 4.0, 2.0, 200, seed=12)
        real = egd.core.ScatterMatrix._factored.__func__

        def failing_in_step(cls, sym):
            if sys._getframe(1).f_code is egd.scatter._concave_step.__code__:
                raise ValueError("matrix is not positive definite")
            return real(cls, sym)

        monkeypatch.setattr(egd.core.ScatterMatrix, "_factored",
                            classmethod(failing_in_step))
        report = egd.fit_concave(data, 4.0, 2.0)
        assert report.near_singular and not report.converged
        assert report.iterations == 0
        assert breakdowns == ["iterate is not factorizable"]

    def test_weighted_equals_duplicated(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((60, 3)) * np.array([1.0, 2.0, 0.5])
        dup = egd.Dataset(np.vstack([x, x[:20]]))
        wts = np.ones(60)
        wts[:20] = 2.0
        weighted = egd.Dataset(x, wts)
        cfg = egd.FixedPointConfig(tol=1e-13)
        r1 = egd.fit_scatter(dup, 4.0, 1.0, cfg)
        r2 = egd.fit_scatter(weighted, 4.0, 1.0, cfg)
        assert rel_frob(r1.sigma_hat.entries, r2.sigma_hat.entries) < 1e-10


class TestFitNonconcaveRegime:
    def test_gaussian_boundary_accepted(self):
        # c = 0 degenerates to the closed form in one step
        rng = np.random.default_rng(12)
        x = rng.standard_normal((200, 3))
        c, _ = egd.compute_constants(1.5, 2.0, 3, 200.0)
        assert c == 0.0
        report = egd.fit_nonconcave(egd.Dataset(x), 1.5, 2.0,
                                    egd.FixedPointConfig())
        assert report.converged
        assert rel_frob(report.sigma_hat.entries, x.T @ x / 200) < 1e-10

    def test_sphere_data_stationary(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal((600, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        data = egd.Dataset(u)
        report = egd.fit_scatter(data, 1.0, 2.0,
                                 egd.FixedPointConfig(tol=1e-13))
        assert report.converged
        assert report.final_residual < 1e-5 * 2.0

    def test_alpha_and_lambda_traces(self):
        data, _ = make_egd_data(6, 0.8, 2.0, 900, seed=14)
        report = egd.fit_scatter(data, 0.8, 2.0,
                                 egd.FixedPointConfig(tol=1e-12))
        assert report.converged
        assert abs(report.alpha_trace[-1] - 1.0) <= 1e-6
        lam_hi = report.lambda_max_trace
        lam_lo = report.lambda_min_trace
        # monotone once the extremes bracket one
        held = (lam_hi >= 1.0 - 1e-12) & (lam_lo <= 1.0 + 1e-12)
        first = int(np.argmax(held))
        assert np.all(np.diff(lam_hi[first:]) <= 1e-10)
        assert np.all(np.diff(lam_lo[first:]) >= -1e-10)

    def test_trace_rule_converges_to_same_point(self):
        data, _ = make_egd_data(5, 0.6, 2.0, 700, seed=15)
        eig = egd.fit_scatter(data, 0.6, 2.0,
                              egd.FixedPointConfig(tol=1e-12))
        tra = egd.fit_scatter(data, 0.6, 2.0,
                              egd.FixedPointConfig(tol=1e-12,
                                                   alpha_rule="trace"))
        assert eig.converged and tra.converged
        assert rel_frob(tra.sigma_hat.entries, eig.sigma_hat.entries) < 1e-5

    def test_identity_and_sample_cov_inits_agree(self):
        data, _ = make_egd_data(4, 1.1, 1.5, 600, seed=16)
        cfg_i = egd.FixedPointConfig(init="identity", tol=1e-12)
        cfg_s = egd.FixedPointConfig(init="sample-cov", tol=1e-12)
        ri = egd.fit_scatter(data, 1.1, 1.5, cfg_i)
        rs = egd.fit_scatter(data, 1.1, 1.5, cfg_s)
        assert rel_frob(ri.sigma_hat.entries, rs.sigma_hat.entries) < 1e-6

    def test_scale_consistency(self):
        data, _ = make_egd_data(3, 0.7, 2.0, 400, seed=17)
        scaled = egd.Dataset(5.0 * data.samples)
        cfg = egd.FixedPointConfig(tol=1e-12)
        r1 = egd.fit_scatter(data, 0.7, 2.0, cfg)
        r2 = egd.fit_scatter(scaled, 0.7, 2.0, cfg)
        assert rel_frob(r2.sigma_hat.entries,
                        25.0 * r1.sigma_hat.entries) < 1e-12

    def test_overflowing_candidate_ends_near_singular(self):
        # from so wide a start the first candidate's c w_i x_i x_i' / t_i
        # terms sum past the largest double: the fit stops at its start,
        # near-singular, with no floating-point warning
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 6))
        x[:, 0] *= 1e4
        report = wide_start_fit(egd.fit_scatter, x, 0.05, 8e307)
        assert report.near_singular and not report.converged
        assert report.iterations == 0

    def test_wide_candidate_passes_breakdown_test(self, breakdowns):
        # the first candidate's diagonal sums past the largest double while
        # its entries stay finite: it is no breakdown, and the fit converges
        x = 1e4 * np.random.default_rng(0).standard_normal((50, 3))
        report = wide_start_fit(egd.fit_nonconcave, x, 0.5, 1e308)
        assert report.converged and not report.near_singular
        assert breakdowns == []

    def test_overflowing_map_matrix_ends_near_singular(self, breakdowns):
        # coverage: rows near one axis make the map matrix at the first
        # candidate, the eigen rule's G2, overflow though the candidate
        # does not
        rng = np.random.default_rng(0)
        x = 1e-3 * rng.standard_normal((12, 3))
        x[:, 0] = rng.standard_normal(12)
        report = wide_start_fit(egd.fit_nonconcave, 1e150 * x, 0.05, 5e307)
        assert report.near_singular and not report.converged
        assert report.iterations == 0
        assert breakdowns == ["map matrix overflows"]

    def test_near_singular_flagged_not_raised(self):
        # most of the mass exactly on a line: no ML solution for tiny shape
        rng = np.random.default_rng(18)
        x_line = np.zeros((14, 2))
        x_line[:, 0] = rng.uniform(0.5, 2.0, 14)
        x_gen = rng.standard_normal((6, 2))
        data = egd.Dataset(np.vstack([x_line, x_gen]))
        cfg = egd.FixedPointConfig(tol=1e-14, max_iter=4000)
        report = egd.fit_scatter(data, 0.05, 2.0, cfg)
        assert not report.converged
        assert report.near_singular

    def test_alpha_breakdown_flagged_not_raised(self, monkeypatch):
        # negated pencil spectra in the step scaling leave the map unbracketed
        # and give 1/alpha < 0: the positivity check ends the fit
        # near-singular before its first step is accepted
        data, _ = make_egd_data(3, 0.7, 2.0, 300, seed=30)
        real = egd.scatter.reduced_eigvalsh

        def negated_in_alpha(m, linv):
            vals = real(m, linv)
            if sys._getframe(1).f_code is egd.scatter._alpha.__code__:
                return -vals[::-1]
            return vals

        monkeypatch.setattr(egd.scatter, "reduced_eigvalsh", negated_in_alpha)
        report = egd.fit_scatter(data, 0.7, 2.0, egd.FixedPointConfig())
        assert report.near_singular and not report.converged
        assert report.iterations == 0


class TestSelectAlpha:
    """The step scaling, seen through one-step public fits on data whose
    ``B`` is not the identity."""

    A, B = 0.7, 2.0

    @pytest.fixture(scope="class")
    def data(self):
        data, _ = make_egd_data(4, self.A, self.B, 400, seed=19)
        b_mat = self._b(data)
        assert rel_frob(b_mat, np.eye(4)) > 0.5
        return data

    def _b(self, data):
        return _problem(data.samples, data.weights, self.A,
                        self.B).b_scatter.entries

    def _candidate(self, data, sigma):
        x, w = data.samples, data.weights
        c, d = egd.compute_constants(self.A, self.B, data.dim,
                                     data.total_weight)
        t = np.einsum("ij,ij->i", x @ np.linalg.inv(sigma), x)
        return d * (x * w[:, None]).T @ x + (x * (c * w / t)[:, None]).T @ x

    def _map_eigs(self, data, sigma):
        return sla.eigh(self._candidate(data, sigma), sigma, eigvals_only=True)

    def _one_step(self, data, start, rule="eigen"):
        cfg = egd.FixedPointConfig(init="user", user_matrix=start,
                                   max_iter=1, alpha_rule=rule)
        report = egd.fit_nonconcave(data, self.A, self.B, cfg)
        assert report.iterations == 1
        return float(report.alpha_trace[0]), report.sigma_hat.entries

    def test_case_two_pins_largest(self, data):
        # a hugely inflated start forces the all-below-one branch
        start = 1e6 * self._b(data)
        alpha, sigma = self._one_step(data, start)
        assert alpha < 1.0
        assert self._map_eigs(data, sigma)[-1] == pytest.approx(1.0, abs=1e-8)

    def test_case_three_pins_smallest(self, data):
        # a tiny start forces the all-above-one branch
        start = 1e-6 * self._b(data)
        alpha, sigma = self._one_step(data, start)
        assert alpha > 1.0
        assert self._map_eigs(data, sigma)[0] == pytest.approx(1.0, abs=1e-8)

    def test_case_one_returns_exact_unit(self, data):
        # an indefinite error around the fixed point makes the map
        # eigenvalues at the candidate bracket one, so no rescaling is applied
        report = egd.fit_nonconcave(data, self.A, self.B,
                                    egd.FixedPointConfig(tol=1e-13))
        vals, vecs = np.linalg.eigh(report.sigma_hat.entries)
        for eps in (1e-2, 1e-4):
            pert = vals * np.array([1 + eps, 1 - eps, 1.0, 1.0])
            start = (vecs * pert) @ vecs.T
            lam = self._map_eigs(data, self._candidate(data, start))
            assert lam[0] < 1.0 < lam[-1]
            alpha, _ = self._one_step(data, start)
            assert alpha == 1.0

    def test_trace_rule_value(self, data):
        start = random_spd(4, np.random.default_rng(31))
        alpha, _ = self._one_step(data, start, rule="trace")
        g_prime = self._candidate(data, start)
        b_mat = self._b(data)
        expect = np.trace(np.linalg.solve(g_prime, b_mat)) / (2.0 * self.A)
        assert alpha == pytest.approx(expect, rel=1e-12)


class TestCarriedCandidate:
    """The eigen rule carries its map matrix forward as the next candidate.

    Started near the fixed point with an indefinite error, the iteration
    takes case-1 steps first and then case-2 or case-3 steps, so both ways
    of carrying the candidate (exactly at alpha = 1, rescaled otherwise)
    are exercised.
    """

    A, B = 0.8, 2.0

    @pytest.fixture(scope="class")
    def setting(self):
        q = 6
        data, _ = make_egd_data(q, self.A, self.B, 900, seed=14)
        problem = _problem(data.samples, data.weights, self.A, self.B)
        report = egd.fit_nonconcave(data, self.A, self.B,
                                    egd.FixedPointConfig(tol=1e-13))
        # perturb the spectrum of the pencil (Sigma*, B) of the fixed point
        fac, fac_inv = (problem.b_scatter.cholesky,
                        problem.b_scatter._chol_inv)
        vals, vecs = np.linalg.eigh(
            fac_inv @ report.sigma_hat.entries @ fac_inv.T)
        starts = []
        for spread, seed in ((0.5, 0), (0.5, 1), (1.0, 1)):
            f = np.exp(np.random.default_rng(seed).uniform(-spread, spread, q))
            starts.append(fac @ ((vecs * (vals * f)) @ vecs.T) @ fac.T)
        return data, problem, starts

    @staticmethod
    def _config(user, rule="eigen"):
        return egd.FixedPointConfig(init="user", user_matrix=user, tol=1e-12,
                                    alpha_rule=rule)

    def test_matches_rebuilding_reference(self, setting):
        # the trace rule too, which forms no G2 and builds every candidate
        # from the data
        data, _, starts = setting
        cases = set()
        for user, rule in itertools.product(starts, ("eigen", "trace")):
            cfg = self._config(user, rule)
            report = egd.fit_nonconcave(data, self.A, self.B, cfg)
            ref = nonconcave_reference(data, self.A, self.B,
                                       0.5 * (user + user.T), cfg.tol,
                                       alpha_rule=rule)
            cases.update(ref["cases"])
            assert report.iterations == ref["iterations"]
            assert report.converged == ref["converged"]
            rows = ref["rows"]
            for col, trace in enumerate((report.alpha_trace,
                                         report.lambda_min_trace,
                                         report.lambda_max_trace,
                                         report.iterate_eig_min_trace,
                                         report.iterate_eig_max_trace)):
                assert_allclose(trace, rows[:, col], rtol=1e-12, atol=0.0)
            assert rel_frob(report.sigma_hat.entries, ref["sigma"]) <= 1e-12
        assert cases == {1, 2, 3, None}

    def test_carried_steps_bit_equal(self, setting):
        # every step is replayed by the reference from the library's own
        # iterate; after a case-1 step the carried candidate and map
        # spectrum are those the reference builds, bit for bit
        data, problem, starts = setting
        candidate, step, trace_row = egd.scatter._scaled("eigen")
        carried_exact = 0
        for user in starts:
            cfg = self._config(user)
            start = _start(problem, cfg)
            # each iterate and its squared radii, and each step's row
            iterates, rows = [start[:2]], []

            def recorded_step(*args):
                iterates.append(step(*args))
                return iterates[-1]

            def recorded_row(*args):
                rows.append(trace_row(*args))
                return rows[-1]

            egd.scatter._run(problem, cfg, start,
                             (candidate, recorded_step, recorded_row))
            prev_case = None  # the first candidate is built from the data
            for (sigma, t, *_), row in zip(iterates, rows):
                ref_row, case, *_ = nonconcave_reference_step(
                    data, self.A, self.B, sigma.entries, t)
                if prev_case in (None, 1):
                    assert row == ref_row
                else:
                    assert_allclose(row, ref_row, rtol=1e-12, atol=0.0)
                carried_exact += prev_case == 1
                prev_case = case
        assert carried_exact >= 3


class TestAscentGuard:
    """The driver has no ascent guard: a lowering step is accepted.

    Keeping a refit only when it does not lower the likelihood is the EM
    M-step's job (see ``test_mixture``).
    """

    FIELDS = ("alpha_trace", "lambda_min_trace", "lambda_max_trace",
              "iterate_eig_min_trace", "iterate_eig_max_trace")

    @pytest.fixture(scope="class")
    def problem(self):
        q = 5
        data, _ = make_egd_data(q, 0.8, 2.0, 600, seed=16)
        return _problem(data.samples, data.weights, 0.8, 2.0)

    @staticmethod
    def sabotaged(worse):
        """The eigen rule's regime with honest steps, except that the
        second is replaced by ``worse``."""
        candidate, step, row = egd.scatter._scaled("eigen")
        count = itertools.count(1)

        def wrapped(problem, sigma, cand):
            taken = step(problem, sigma, cand)
            return worse(problem, *taken) if next(count) == 2 else taken

        return candidate, wrapped, row

    @staticmethod
    def stretched(problem, sigma, t, alpha, carried):
        # a real iterate, three times the honest one and far worse; its
        # candidate B + c sum_i w_i x_i x_i' / (t_i / 3) is B + 3 (G - B)
        worse = egd.ScatterMatrix(3.0 * sigma.entries)
        b_mat = problem.b_scatter.entries
        return worse, t / 3.0, alpha, (b_mat + 3.0 * (carried[0] - b_mat),)

    def test_public_fits_have_no_guard(self, problem):
        # the driver accepts the worse step and runs on past it
        cfg = egd.FixedPointConfig(tol=1e-12, max_iter=50)
        report = egd.scatter._run(
            problem, cfg, _start(problem, cfg),
            self.sabotaged(self.stretched), self.FIELDS)
        assert report.iterations > 2
        assert np.min(np.diff(report.loglik_trace)) < 0.0


class TestKentTyler:
    def test_rejects_concave_shape(self):
        data, _ = make_egd_data(4, 0.5, 2.0, 100, seed=20)
        with pytest.raises(ValueError, match="a < dim/2"):
            egd.fit_kent_tyler(data, 2.0, 2.0, egd.FixedPointConfig())

    def test_fixed_point_is_stationary(self):
        data, _ = make_egd_data(5, 1.0, 2.0, 800, seed=21)
        report = egd.fit_kent_tyler(data, 1.0, 2.0,
                                    egd.FixedPointConfig(tol=1e-12))
        assert report.converged
        assert report.final_residual <= 1e-5 * np.sqrt(5.0)

    def test_agrees_with_fixed_point_fit(self):
        data, _ = make_egd_data(6, 1.2, 2.0, 1000, seed=22)
        cfg = egd.FixedPointConfig(tol=1e-12)
        kt = egd.fit_kent_tyler(data, 1.2, 2.0, cfg)
        fp = egd.fit_scatter(data, 1.2, 2.0, cfg)
        assert rel_frob(kt.sigma_hat.entries, fp.sigma_hat.entries) <= 1e-4

    @pytest.mark.parametrize("init", ["identity", "sample-cov", "user"])
    def test_matches_original_coordinate_reference(self, init):
        # 'identity' means Sigma_0 = I here, not B as for the fixed points
        q, a, b = 4, 0.8, 1.5
        data, _ = make_egd_data(q, a, b, 600, seed=27)
        rng = np.random.default_rng(28)
        x = data.samples
        w = rng.uniform(0.5, 2.0, data.n)
        starts = {"identity": np.eye(q),
                  "sample-cov": (x * w[:, None]).T @ x / w.sum(),
                  "user": random_spd(q, rng)}
        cfg = egd.FixedPointConfig(
            init=init, tol=1e-10, max_iter=5000,
            user_matrix=starts["user"] if init == "user" else None)
        report = egd.fit_kent_tyler(egd.Dataset(x, w), a, b, cfg)
        sigma, iterations = kent_tyler_reference(x, w, a, b, starts[init],
                                                 tol=1e-10)
        assert report.converged
        assert report.iterations == iterations
        assert rel_frob(report.sigma_hat.entries, sigma) <= 1e-10

    def test_rank_deficient_data_rejected(self):
        x = np.outer(np.arange(1.0, 9.0), [1.0, 2.0, -1.0])
        with pytest.raises(egd.RankDeficiencyError):
            egd.fit_kent_tyler(egd.Dataset(x), 0.5, 2.0)

    def test_tiny_shape_matches_distribution_free_scatter(self):
        q = 8
        a = q / 200.0
        data, _ = make_egd_data(q, 1.0, 2.0, 2000, seed=23)
        report = egd.fit_kent_tyler(data, a, q / a,
                                    egd.FixedPointConfig(tol=1e-12,
                                                         max_iter=5000))
        fitted = report.sigma_hat.entries
        fitted = q * fitted / np.trace(fitted)
        reference = tyler_reference(data.samples, tol=1e-10)
        assert rel_frob(fitted, reference) < 1e-2


class TestStartPencilDefect:
    """How a fit's scatter relates to ``B``: start, reduction and defect."""

    def test_identity_gamma(self):
        # the fixed points' 'identity' start is B itself
        rng = np.random.default_rng(24)
        x = rng.standard_normal((100, 3))
        problem = _problem(x, np.ones(len(x)), 0.1, 2.0)
        start = _start(problem, egd.FixedPointConfig(init="identity"))[0]
        assert rel_frob(start.entries, problem.b_scatter.entries) < 1e-12

    def test_identity_b(self):
        # one orthonormal-ish sample set scaled so B is the identity; the
        # pencil (Sigma, B) then has the spectrum of Sigma
        d_const = 0.5
        x = np.array([[np.sqrt(1 / d_const), 0.0],
                      [0.0, np.sqrt(1 / d_const)]])
        problem = _problem(x, np.ones(len(x)), 0.3, 2.0 / (d_const * 2.0))
        assert rel_frob(problem.b_scatter.entries, np.eye(2)) < 1e-12
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert_allclose(reduced_eigvalsh(sigma, problem.b_scatter._chol_inv),
                        np.linalg.eigvalsh(sigma), rtol=1e-12)

    def test_round_trip_residual(self):
        data, _ = make_egd_data(4, 0.9, 2.0, 700, seed=25)
        c, d = egd.compute_constants(0.9, 2.0, 4, 700.0)
        # tiny tol runs the iteration onto its floating-point fixed point
        report = egd.fit_scatter(data, 0.9, 2.0,
                                 egd.FixedPointConfig(tol=1e-18,
                                                      max_iter=5000))
        sigma = report.sigma_hat.entries
        x, w = data.samples, data.weights
        b_mat = d * (x * w[:, None]).T @ x
        t = np.einsum("ij,ij->i", x @ np.linalg.inv(sigma), x)
        defect = b_mat + (x * (c * w / t)[:, None]).T @ x - sigma
        # measured where B is the identity
        linv = np.linalg.inv(np.linalg.cholesky(b_mat))
        assert np.linalg.norm(linv @ defect @ linv.T) <= 1e-8

    def test_tol_below_loglik_rounding_runs_to_fixed_point(self):
        # no residual reaches 1e-18: the fit stops at the residual's rounding
        # floor, on the first iterate whose residual did not shrink while
        # the log-likelihood tied within four units in its last place; the
        # log-likelihood ties long before, at a residual still above 1e-10
        data, _ = make_egd_data(4, 0.9, 2.0, 700, seed=25)
        tight = egd.fit_scatter(data, 0.9, 2.0,
                                egd.FixedPointConfig(tol=1e-18,
                                                     max_iter=5000))
        loose = egd.fit_scatter(data, 0.9, 2.0,
                                egd.FixedPointConfig(tol=1e-12))
        assert tight.converged and loose.converged
        assert tight.iterations > loose.iterations
        r, ll = tight.residual_trace, tight.loglik_trace
        tie = np.abs(np.diff(ll)) <= 4.0 * np.spacing(np.abs(ll[1:]))
        floor = tie & (r[1:] >= r[:-1])
        assert np.flatnonzero(floor).tolist() == [tight.iterations - 2]
        assert 1e-18 < tight.final_residual == r[-1] < 1e-13
        assert r[np.argmax(tie) + 1] > 1e-10

    @pytest.mark.parametrize("fit, a", [
        (egd.fit_scatter, 3.0), (egd.fit_scatter, 0.6),
        (egd.fit_kent_tyler, 0.6)],
        ids=["concave", "nonconcave", "kent-tyler"])
    def test_tiny_scale_samples(self, fit, a):
        # the fitted scatter has entries near 1e-198
        x = 1e-99 * np.random.default_rng(26).standard_normal((60, 3))
        report = fit(egd.Dataset(x), a, 2.0)
        assert report.converged and not report.near_singular
        assert 0.0 < report.sigma_hat.entries[0, 0] < 1e-190


def test_starts_agree_at_tight_tol():
    # the optimum is unique, and a residual of at most tol bounds the
    # distance to it linearly: at tol = 1e-12 four starts, under both alpha
    # rules, end within 1e-9 of one another on small problems across both
    # regimes
    for case in range(12):
        rng = np.random.default_rng(900 + case)
        q = int(rng.integers(2, 7))
        n = int(rng.integers(3 * q, 61))
        a = 0.5 * q * 10.0 ** rng.uniform(-1.3, 0.7)
        data = egd.Dataset(rng.standard_normal((n, q)) @ random_spd(q, rng))
        fits = []
        for init in ("identity", "sample-cov", "user", "user"):
            user = random_spd(q, rng) if init == "user" else None
            for rule in ("eigen", "trace"):
                report = egd.fit_scatter(data, a, 2.0, egd.FixedPointConfig(
                    init=init, user_matrix=user, tol=1e-12, max_iter=5000,
                    alpha_rule=rule))
                assert report.converged and not report.near_singular
                fits.append(report.sigma_hat.entries)
        assert max(rel_frob(f, fits[0]) for f in fits) <= 1e-9, case


# one fit of each kind at q = 5: (fit, a, alpha_rule)
FITS = [(egd.fit_concave, 4.0, "eigen"), (egd.fit_nonconcave, 1.0, "eigen"),
        (egd.fit_nonconcave, 1.0, "trace"), (egd.fit_kent_tyler, 1.0, "eigen")]
FIT_IDS = ["concave", "eigen", "trace", "kent-tyler"]


class TestReportedLoglik:
    @pytest.mark.parametrize("fit, a, rule", FITS, ids=FIT_IDS)
    def test_final_value_is_public_density(self, fit, a, rule):
        # the traced average log-likelihood of the returned scatter is the
        # one the public density gives on the same weighted data
        b = 1.5
        sample, _ = make_egd_data(5, a, b, 400, seed=29)
        w = np.random.default_rng(30).uniform(0.0, 2.0, sample.n)
        data = egd.Dataset(sample.samples, w)
        report = fit(data, a, b, egd.FixedPointConfig(alpha_rule=rule))
        expect = egd.log_likelihood(egd.EgdParams(report.sigma_hat, a, b),
                                    data) / data.total_weight
        assert report.loglik_trace[-1] == pytest.approx(expect, rel=1e-12)


class TestFactorPerIterate:
    """Each iterate is factored and its factor inverted once, by the step
    that makes it; the step test, the residual and the report read both."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_egd_data(5, 1.0, 2.0, 500, seed=41)[0]

    @staticmethod
    def _extra_factorizations(monkeypatch, fit, data, a, b, kernel=chol_lower,
                              **config):
        # calls of ``kernel``, a factorization or an inversion, beyond one
        # per iteration
        calls = []

        def counted(mat):
            calls.append(mat.shape)
            return kernel(mat)

        monkeypatch.setattr(egd.core, kernel.__name__, counted)
        report = fit(data, a, b, egd.FixedPointConfig(max_iter=5000,
                                                      **config))
        assert report.converged
        return len(calls) - report.iterations

    @pytest.mark.parametrize("tol", [1e-9, 1e-16])
    @pytest.mark.parametrize("fit, a, rule", FITS, ids=FIT_IDS)
    def test_one_factorization_per_iteration(self, data, monkeypatch, fit,
                                             a, rule, tol):
        # B is factored once, the sample-cov start reuses its factor, and
        # every step factors its candidate (a concave step, its iterate)
        assert self._extra_factorizations(
            monkeypatch, fit, data, a, 2.0, tol=tol, alpha_rule=rule) == 1

    @pytest.mark.parametrize("init", ["identity", "sample-cov", "user"])
    @pytest.mark.parametrize("fit, a, rule", FITS, ids=FIT_IDS)
    def test_factorizations_by_start(self, data, monkeypatch, fit, a, rule,
                                     init):
        # the fixed points' identity start is B and, at b != 2, the
        # sample-cov start a multiple of it: both reuse B's factor; a user
        # start, and Kent-Tyler's identity start I, are factored once more
        user = random_spd(5, np.random.default_rng(42)) if init == "user" \
            else None
        own = init == "user" or (init == "identity"
                                 and fit is egd.fit_kent_tyler)
        assert self._extra_factorizations(
            monkeypatch, fit, data, a, 1.5, tol=1e-9, alpha_rule=rule,
            init=init, user_matrix=user) == 1 + own

    @pytest.mark.parametrize("init", ["identity", "sample-cov", "user"])
    @pytest.mark.parametrize("fit, a, rule", FITS, ids=FIT_IDS)
    def test_inversions_by_start(self, data, monkeypatch, fit, a, rule, init):
        # B's factor and each iterate's are inverted once, where they are
        # factored; the residual, the rows, the radii and B's multiples
        # read the inverse the scatter holds.  A user start, and
        # Kent-Tyler's identity start I, are inverted once more
        user = random_spd(5, np.random.default_rng(42)) if init == "user" \
            else None
        own = init == "user" or (init == "identity"
                                 and fit is egd.fit_kent_tyler)
        assert self._extra_factorizations(
            monkeypatch, fit, data, a, 1.5, kernel=tril_inv, tol=1e-9,
            alpha_rule=rule, init=init, user_matrix=user) == 1 + own

    @pytest.mark.parametrize("tol", [1e-9, 1e-16])
    @pytest.mark.parametrize("fit, a, rule", FITS, ids=FIT_IDS)
    def test_one_candidate_per_iterate(self, data, monkeypatch, fit, a,
                                       rule, tol):
        # B, then one n x q^2 product per iterate, the start included: each
        # iterate's candidate (the concave step's M) serves both its stop
        # test and the step taken from it
        calls = []

        def counted(x, v):
            calls.append(v.shape)
            return gram(x, v)

        monkeypatch.setattr(egd.scatter, "gram", counted)
        report = fit(data, a, 2.0, egd.FixedPointConfig(
            max_iter=5000, tol=tol, alpha_rule=rule))
        assert report.converged
        assert len(calls) == report.iterations + 2

    @pytest.mark.parametrize("max_iter", [2, 1000])
    @pytest.mark.parametrize("fit, a, rule", FITS, ids=FIT_IDS)
    def test_reported_factor(self, data, fit, a, rule, max_iter):
        # a scaled step's factor is sqrt(alpha) chol(Sigma'), not the factor
        # of its entries, but reproduces them to rounding
        sigma = fit(data, a, 2.0, egd.FixedPointConfig(
            tol=1e-9, max_iter=max_iter, alpha_rule=rule)).sigma_hat
        fac = sigma.cholesky
        assert np.array_equal(fac, np.tril(fac))
        assert np.all(np.diag(fac) > 0.0)
        assert rel_frob(fac @ fac.T, sigma.entries) <= 1e-14
        assert sigma.log_det == pytest.approx(
            np.linalg.slogdet(sigma.entries)[1], rel=0.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-160, 1e-300, 1e-307])
@pytest.mark.parametrize("fit, a, rule", FITS, ids=FIT_IDS)
def test_tiny_user_start_converges(fit, a, rule, scale):
    # the start's residual and log-likelihood overflow, to inf or NaN and
    # to -inf, which the stop rule passes over, with no RuntimeWarning
    data, _ = make_egd_data(4, 1.2, 2.0, 300, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit(data, a, 2.0, egd.FixedPointConfig(
            init="user", user_matrix=scale * np.eye(4), tol=1e-9,
            alpha_rule=rule))
    assert report.converged and not report.near_singular
    assert report.loglik_trace[0] > -np.inf


@pytest.mark.parametrize("max_iter", [1, 3])
@pytest.mark.parametrize("fit, a, rule", FITS, ids=FIT_IDS)
def test_iteration_cap(fit, a, rule, max_iter):
    # a tol no step reaches: the driver takes exactly max_iter steps, each
    # with one entry in every trace, and reports no convergence
    data, _ = make_egd_data(5, 1.0, 2.0, 500, seed=41)
    report = fit(data, a, 2.0, egd.FixedPointConfig(
        tol=1e-15, max_iter=max_iter, alpha_rule=rule))
    assert report.iterations == max_iter
    assert not report.converged and not report.near_singular
    traces = [value for name, value in vars(report).items()
              if name.endswith("_trace") and value is not None]
    assert len(traces) == (3 if fit is egd.fit_kent_tyler
                           else 5 if fit is egd.fit_concave else 8)
    assert all(len(trace) == max_iter for trace in traces)


class TestConfigValidation:
    def test_user_init_requires_matrix(self):
        with pytest.raises(ValueError, match="user_matrix"):
            egd.FixedPointConfig(init="user")

    def test_matrix_requires_user_init(self):
        with pytest.raises(ValueError, match="user_matrix"):
            egd.FixedPointConfig(user_matrix=np.eye(2))

    def test_tol_positive(self):
        with pytest.raises(ValueError, match="tol"):
            egd.FixedPointConfig(tol=0.0)

    def test_unknown_init(self):
        with pytest.raises(ValueError, match="init"):
            egd.FixedPointConfig(init="zeros")

    @pytest.mark.parametrize("fit, a", [
        (egd.fit_scatter, 3.0), (egd.fit_scatter, 0.6),
        (egd.fit_kent_tyler, 0.6)],
        ids=["concave", "nonconcave", "kent-tyler"])
    def test_asymmetric_user_matrix_rejected(self, fit, a):
        # checked as every scatter input is, not symmetrized
        data, _ = make_egd_data(3, 0.6, 2.0, 100, seed=43)
        user = np.eye(3)
        user[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            fit(data, a, 2.0, egd.FixedPointConfig(init="user",
                                                   user_matrix=user))

    def test_report_regime_fields(self):
        data, _ = make_egd_data(3, 4.0, 1.0, 200, seed=26)
        concave = egd.fit_scatter(data, 4.0, 1.0)
        assert concave.alpha_trace is None
        nonconc = egd.fit_scatter(data, 0.5, 2.0)
        assert nonconc.alpha_trace is not None
        assert len(nonconc.loglik_trace) == nonconc.iterations

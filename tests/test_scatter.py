"""The matrix B, the two fixed-point iterations, step scaling, and the baseline."""

import sys

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

import egd
from egd._linalg import reduced_eigvalsh
from egd.scatter import _problem, _start
from helpers import (ascent_oracle_avg_loglik, kent_tyler_reference,
                     make_egd_data, nonconcave_reference,
                     nonconcave_reference_step, random_spd, rel_frob,
                     tyler_reference)


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
        problem = _problem(egd.Dataset(x), 0.1, 8.0)
        assert problem.b_mat[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert abs(problem.b_factor[0, 0]) == pytest.approx(1.0, rel=1e-14)

    def test_rank_deficient_rejected(self):
        x = np.random.default_rng(0).standard_normal((3, 5))
        with pytest.raises(egd.RankDeficiencyError,
                           match="does not span R\\^q"):
            _problem(egd.Dataset(x), 0.1, 2.0)

    def test_zero_weights_outside_subspace_rejected(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 3))
        w = np.zeros(10)
        w[:2] = 1.0
        with pytest.raises(egd.RankDeficiencyError):
            _problem(egd.Dataset(x, w), 0.1, 2.0)

    def test_factor_reconstruction(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1000, 8))
        problem = _problem(egd.Dataset(x), 4.05, 2.0)
        assert rel_frob(problem.b_factor @ problem.b_factor.T,
                        problem.b_mat) < 1e-10

    def test_round_trip(self):
        # the inverse factor undoes the factor, and reduces B to I
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 4))
        problem = _problem(egd.Dataset(x), 0.5, 4.0)
        assert rel_frob(problem.b_inv @ problem.b_factor, np.eye(4)) < 1e-10
        assert rel_frob(problem.b_inv @ problem.b_mat @ problem.b_inv.T,
                        np.eye(4)) < 1e-10

    def test_weighted_b_matrix(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 2))
        w = rng.uniform(0.5, 1.5, size=30)
        d_const = 0.03
        # d = 2 / (b n_eff)
        problem = _problem(egd.Dataset(x, w), 1.0, 2.0 / (d_const * w.sum()))
        expect = d_const * (x * w[:, None]).T @ x
        assert_allclose(problem.b_mat, expect, rtol=1e-12)


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
        assert rel_frob(_problem(data, self.A, self.B).b_mat, np.eye(4)) > 0.5
        return data

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
        start = 1e6 * _problem(data, self.A, self.B).b_mat
        alpha, sigma = self._one_step(data, start)
        assert alpha < 1.0
        assert self._map_eigs(data, sigma)[-1] == pytest.approx(1.0, abs=1e-8)

    def test_case_three_pins_smallest(self, data):
        # a tiny start forces the all-above-one branch
        start = 1e-6 * _problem(data, self.A, self.B).b_mat
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
        b_mat = _problem(data, self.A, self.B).b_mat
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
        problem = _problem(data, self.A, self.B)
        report = egd.fit_nonconcave(data, self.A, self.B,
                                    egd.FixedPointConfig(tol=1e-13))
        # perturb the spectrum of the pencil (Sigma*, B) of the fixed point
        fac, fac_inv = problem.b_factor, problem.b_inv
        vals, vecs = np.linalg.eigh(
            fac_inv @ report.sigma_hat.entries @ fac_inv.T)
        starts = []
        for spread, seed in ((0.5, 0), (0.5, 1), (1.0, 1)):
            f = np.exp(np.random.default_rng(seed).uniform(-spread, spread, q))
            starts.append(fac @ ((vecs * (vals * f)) @ vecs.T) @ fac.T)
        return data, problem, starts

    @staticmethod
    def _config(user):
        return egd.FixedPointConfig(init="user", user_matrix=user, tol=1e-12)

    def test_matches_rebuilding_reference(self, setting):
        data, _, starts = setting
        cases = set()
        for user in starts:
            cfg = self._config(user)
            report = egd.fit_nonconcave(data, self.A, self.B, cfg)
            ref = nonconcave_reference(data, self.A, self.B,
                                       0.5 * (user + user.T), cfg.tol)
            cases.update(ref["cases"])
            assert report.iterations == ref["iterations"]
            assert report.converged == ref["converged"]
            rows = ref["rows"]
            for col, trace in enumerate((report.alpha_trace,
                                         report.lambda_min_trace,
                                         report.lambda_max_trace)):
                assert_allclose(trace, rows[:, col], rtol=1e-12, atol=0.0)
            assert rel_frob(report.sigma_hat.entries, ref["sigma"]) <= 1e-12
        assert cases == {1, 2, 3}

    def test_carried_steps_bit_equal(self, setting):
        # every step is replayed by the reference from the library's own
        # iterate; after a case-1 step the carried candidate and map
        # spectrum are those the reference builds, bit for bit
        data, problem, starts = setting
        carried_exact = 0
        for user in starts:
            cfg = self._config(user)
            steps = egd.scatter._scaled_steps(
                problem, *_start(problem, cfg), "eigen")
            sigma, t, _, _, _ = next(steps)
            prev_case = None  # the first candidate is built from the data
            fit = egd.fit_nonconcave(data, self.A, self.B, cfg)
            for _ in range(fit.iterations):
                ref_row, case, *_ = nonconcave_reference_step(
                    data, self.A, self.B, sigma, t)
                sigma, t, _, row, _ = next(steps)
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
        return _problem(data, 0.8, 2.0)

    @staticmethod
    def sabotaged(problem, config, worse):
        """Honest steps, except that the second is replaced by ``worse``."""
        steps = egd.scatter._scaled_steps(problem, *_start(problem, config),
                                          "eigen")
        yield next(steps)
        yield next(steps)
        yield worse(problem, *next(steps))
        yield from steps

    @staticmethod
    def stretched(problem, sigma, t, ll, row, g):
        # a real iterate, three times the honest one and far worse; its
        # candidate B + c sum_i w_i x_i x_i' / (t_i / 3) is B + 3 (G - B)
        logdet = float(np.linalg.slogdet(3.0 * sigma)[1])
        b_mat = problem.b_mat
        return (3.0 * sigma, t / 3.0,
                egd.scatter._avg_loglik(problem, t / 3.0, logdet), row,
                b_mat + 3.0 * (g - b_mat))

    def test_public_fits_have_no_guard(self, problem):
        # the driver accepts the worse step and runs on past it
        cfg = egd.FixedPointConfig(tol=1e-12, max_iter=50)
        report = egd.scatter._run(
            problem, cfg, self.sabotaged(problem, cfg, self.stretched),
            self.FIELDS)
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
        problem = _problem(egd.Dataset(x), 0.1, 2.0)
        start, _ = _start(problem, egd.FixedPointConfig(init="identity"))
        assert rel_frob(start.entries, problem.b_mat) < 1e-12

    def test_identity_b(self):
        # one orthonormal-ish sample set scaled so B is the identity; the
        # pencil (Sigma, B) then has the spectrum of Sigma
        d_const = 0.5
        x = np.array([[np.sqrt(1 / d_const), 0.0],
                      [0.0, np.sqrt(1 / d_const)]])
        problem = _problem(egd.Dataset(x), 0.3, 2.0 / (d_const * 2.0))
        assert rel_frob(problem.b_mat, np.eye(2)) < 1e-12
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert_allclose(reduced_eigvalsh(sigma, problem.b_inv),
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
        # at this tol the rounded log-likelihood ties at step 11, when the
        # stationarity defect is still 2e-8; the stop waits for the steps
        # to stop shrinking
        data, _ = make_egd_data(4, 0.9, 2.0, 700, seed=25)
        tight = egd.fit_scatter(data, 0.9, 2.0,
                                egd.FixedPointConfig(tol=1e-18,
                                                     max_iter=5000))
        loose = egd.fit_scatter(data, 0.9, 2.0,
                                egd.FixedPointConfig(tol=1e-14))
        assert tight.converged and loose.converged
        assert tight.iterations > loose.iterations
        assert tight.final_residual < 1e-3 * loose.final_residual

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

    def test_report_regime_fields(self):
        data, _ = make_egd_data(3, 4.0, 1.0, 200, seed=26)
        concave = egd.fit_scatter(data, 4.0, 1.0)
        assert concave.alpha_trace is None
        nonconc = egd.fit_scatter(data, 0.5, 2.0)
        assert nonconc.alpha_trace is not None
        assert len(nonconc.loglik_trace) == nonconc.iterations

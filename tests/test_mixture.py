"""EM driver, responsibility bookkeeping, and evaluation utilities."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import egd
from helpers import align_scatters, random_spd, rel_frob


@pytest.fixture()
def scatter_fits(monkeypatch):
    """Collects ``(config, report)`` of every scatter fit the M-step makes."""
    calls = []
    fit = egd.scatter.fit_scatter

    def spy(data, a, b, config):
        report = fit(data, a, b, config)
        calls.append((config, report))
        return report

    monkeypatch.setattr(egd.scatter, "fit_scatter", spy)
    return calls


def two_scale_model(q, lo=1.0, hi=400.0):
    comps = [egd.EgdParams(egd.ScatterMatrix(lo * np.eye(q)), 0.5 * q, 2.0),
             egd.EgdParams(egd.ScatterMatrix(hi * np.eye(q)), 0.5 * q, 2.0)]
    return egd.MixtureModel(comps, np.array([0.5, 0.5]))


class TestResponsibilities:
    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValueError, match="sum to one"):
            egd.Responsibilities(np.array([[0.6, 0.3], [0.3, 0.6]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            egd.Responsibilities(np.array([[1.2, 1.0], [-0.2, 0.0]]))

    def test_matrix_read_only(self):
        r = egd.Responsibilities(np.full((2, 3), 0.5))
        with pytest.raises(ValueError):
            r.matrix[0, 0] = 1.0


class TestEmConfig:
    def test_requires_component(self):
        with pytest.raises(ValueError, match="n_components"):
            egd.EmConfig(n_components=0)

    def test_user_model_pairing(self):
        with pytest.raises(ValueError, match="user_model"):
            egd.EmConfig(n_components=2, init="user-model")
        with pytest.raises(ValueError, match="user_model"):
            egd.EmConfig(n_components=2, user_model=two_scale_model(2))

    def test_unknown_init(self):
        with pytest.raises(ValueError, match="init"):
            egd.EmConfig(n_components=2, init="grid")


class TestEStep:
    def test_identical_components_split_evenly(self):
        q = 3
        comp = egd.EgdParams(egd.ScatterMatrix.identity(q), 1.5, 2.0)
        model = egd.MixtureModel([comp, comp], np.array([0.5, 0.5]))
        rng = np.random.default_rng(31)
        data = egd.Dataset(rng.standard_normal((40, q)))
        resp, _ = egd.e_step(model, data)
        assert_allclose(resp.matrix, 0.5, rtol=1e-12)

    def test_single_component(self):
        comp = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        model = egd.MixtureModel([comp], np.ones(1))
        rng = np.random.default_rng(32)
        data = egd.Dataset(rng.standard_normal((25, 2)))
        resp, total = egd.e_step(model, data)
        assert_allclose(resp.matrix, 1.0)
        assert total == pytest.approx(egd.log_likelihood(comp, data),
                                      rel=1e-12)

    def test_separated_components_resolve_labels(self):
        q = 3
        model = two_scale_model(q, hi=2500.0)
        rng_seed = 33
        a = egd.sample(model.components[0], 500, seed=rng_seed)
        b = egd.sample(model.components[1], 500, seed=rng_seed + 1)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        resp, _ = egd.e_step(model, data)
        confident = np.sum(np.max(resp.matrix, axis=0) >= 0.99)
        labels = np.argmax(resp.matrix, axis=0)
        truth = np.repeat([0, 1], 500)
        assert confident >= 990
        assert np.mean(labels == truth) >= 0.99

    def test_dim_mismatch(self):
        model = two_scale_model(2)
        data = egd.Dataset(np.ones((5, 3)))
        with pytest.raises(ValueError, match="dimension"):
            egd.e_step(model, data)


class TestMSteps:
    @pytest.fixture()
    def blob_data(self):
        model = two_scale_model(4)
        a = egd.sample(model.components[0], 300, seed=34)
        b = egd.sample(model.components[1], 300, seed=35)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        return model, data

    def test_scatter_step_reduces_to_single_fit(self):
        rng = np.random.default_rng(36)
        data = egd.Dataset(rng.standard_normal((200, 3)) * 2.0)
        comp = egd.EgdParams(egd.ScatterMatrix.identity(3), 0.7, 2.0)
        model = egd.MixtureModel([comp], np.ones(1))
        resp = egd.Responsibilities(np.ones((1, 200)))
        stepped = egd.m_step_scatter(data, resp, model)
        # same warm start and one step: the iterates coincide exactly
        direct = egd.fit_scatter(
            data, 0.7, 2.0,
            egd.FixedPointConfig(init="user", user_matrix=np.eye(3),
                                 tol=1e-10, max_iter=1))
        assert np.array_equal(stepped.components[0].scatter.entries,
                              direct.sigma_hat.entries)

    def test_hard_labels_match_subset_fits(self, blob_data):
        model, data = blob_data
        hard = np.zeros((2, 600))
        hard[0, :300] = 1.0
        hard[1, 300:] = 1.0
        resp = egd.Responsibilities(hard)
        # a = q/2 is the Gaussian case, which one step solves
        stepped = egd.m_step_scatter(data, resp, model)
        for k, rows in ((0, slice(0, 300)), (1, slice(300, 600))):
            sub = egd.Dataset(data.samples[rows])
            direct = egd.fit_scatter(sub, model.components[k].shape_a,
                                     model.components[k].scale_b,
                                     egd.FixedPointConfig(tol=1e-11,
                                                          max_iter=2000))
            assert rel_frob(stepped.components[k].scatter.entries,
                            direct.sigma_hat.entries) < 1e-7

    def test_scatter_step_monotone(self, blob_data):
        model, data = blob_data
        resp, before = egd.e_step(model, data)
        stepped = egd.m_step_scatter(data, resp, model)
        after = egd.mixture_log_likelihood(stepped, data)
        assert after >= before - 1e-9

    def test_default_scatter_step_is_one_guarded_step(self, blob_data,
                                                      scatter_fits):
        model, data = blob_data
        resp, _ = egd.e_step(model, data)
        egd.m_step_scatter(data, resp, model)
        seen = [(type(cfg), cfg.tol, cfg.max_iter, report.iterations)
                for cfg, report in scatter_fits]
        assert seen == [(egd.FixedPointConfig, 1e-10, 1, 1)] * 2

    def test_lowering_refit_is_dropped(self, blob_data, monkeypatch):
        model, data = blob_data
        resp, before = egd.e_step(model, data)
        fit = egd.scatter.fit_scatter

        def inflated(data, a, b, config):
            report = fit(data, a, b, config)
            return dataclasses.replace(report, sigma_hat=egd.ScatterMatrix(
                3.0 * report.sigma_hat.entries))

        monkeypatch.setattr(egd.scatter, "fit_scatter", inflated)
        stepped = egd.m_step_scatter(data, resp, model)
        for new, old in zip(stepped.components, model.components):
            assert new.scatter is old.scatter
        assert egd.mixture_log_likelihood(stepped, data) >= before

    def test_shape_step_monotone_and_updates_radial(self, blob_data):
        model, data = blob_data
        resp, before = egd.e_step(model, data)
        stepped = egd.m_step_shape(data, resp, model)
        after = egd.mixture_log_likelihood(stepped, data)
        assert after >= before - 1e-9
        assert stepped.components[0].scatter is model.components[0].scatter

    def test_shape_step_recovers_parameters(self):
        params = egd.EgdParams(egd.ScatterMatrix.identity(3), 2.5, 1.3)
        data = egd.sample(params, 100000, seed=37)
        start = egd.EgdParams(params.scatter, 1.0, 2.0)
        model = egd.MixtureModel([start], np.ones(1))
        resp = egd.Responsibilities(np.ones((1, data.n)))
        stepped = egd.m_step_shape(data, resp, model)
        assert stepped.components[0].shape_a == pytest.approx(2.5, rel=0.05)
        assert stepped.components[0].scale_b == pytest.approx(1.3, rel=0.05)

    def test_degenerate_component_frozen(self, blob_data):
        model, data = blob_data
        lopsided = np.zeros((2, 600))
        lopsided[0] = 1.0
        # give component 1 less total weight than the dimension
        lopsided[0, :3] = 0.5
        lopsided[1, :3] = 0.5
        resp = egd.Responsibilities(lopsided)
        with pytest.warns(UserWarning, match="degenerate"):
            stepped = egd.m_step_scatter(data, resp, model)
        assert stepped.components[1].scatter is model.components[1].scatter


@st.composite
def mixture_steps(draw):
    """A mixture, weighted data from another one, and its E-step.

    The mixture is random, or its scatters and mixing probabilities are
    moved toward a stationary point by up to 30 scatter sweeps, where the
    steps are small.  The radial parameters stay as drawn.
    """
    k = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    n = draw(st.integers(k * (q + 2), 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def random_model():
        comps = [egd.EgdParams(
            egd.ScatterMatrix(10.0 ** rng.uniform(-1.0, 1.0)
                              * random_spd(q, rng, ridge=0.5)),
            # both regimes: a on either side of q/2
            0.5 * q * 10.0 ** rng.uniform(-1.0, 1.0),
            10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(k)]
        return egd.MixtureModel(comps, rng.dirichlet(np.ones(k)))

    data = egd.sample_mixture(random_model(), n, int(rng.integers(2**31)))
    weights = rng.uniform(0.0, 2.0, n)
    weights[rng.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
    weights[0] = 1.0
    data = egd.Dataset(data.samples, weights)
    model = random_model()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(draw(st.integers(0, 30))):
            model = egd.m_step_scatter(data, egd.e_step(model, data)[0], model)
    resp, total = egd.e_step(model, data)
    return data, model, resp, total


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mixture_steps())
def test_scatter_step_never_lowers_likelihood(case):
    data, model, resp, before = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stepped = egd.m_step_scatter(data, resp, model)
    after = egd.mixture_log_likelihood(stepped, data)
    assert after >= before - 1e-12 * abs(before)


class TestFitMixture:
    def test_requires_enough_samples(self):
        data = egd.Dataset(np.random.default_rng(38).standard_normal((5, 3)))
        with pytest.raises(ValueError, match="n_components"):
            egd.fit_mixture(data, egd.EmConfig(n_components=2))

    def test_single_component_reduction(self):
        params = egd.EgdParams(egd.ScatterMatrix(random_spd(
            3, np.random.default_rng(39))), 1.1, 1.8)
        data = egd.sample(params, 3000, seed=40)
        report = egd.fit_mixture(data, egd.EmConfig(
            n_components=1, tol=1e-9, outer_rounds=200, seed=0))
        assert report.converged
        # manual alternation: scatter fit, gamma refit, repeated
        a_cur, b_cur = 1.5, 2.0
        sigma = None
        for _ in range(60):
            fit = egd.fit_scatter(data, a_cur, b_cur,
                                  egd.FixedPointConfig(tol=1e-10,
                                                       max_iter=2000))
            sigma = fit.sigma_hat
            radii = egd.squared_radius(sigma, data.samples)
            gfit = egd.fit_gamma_weighted(
                egd.WeightedSample(radii, data.weights))
            a_cur, b_cur = gfit.shape_a, gfit.scale_b
        manual = egd.log_likelihood(
            egd.EgdParams(sigma, a_cur, b_cur), data) / data.n
        assert report.loglik_trace[-1] == pytest.approx(manual, abs=1e-5)

    def test_trace_monotone(self):
        model = two_scale_model(3, lo=1.0, hi=60.0)
        a = egd.sample(model.components[0], 400, seed=41)
        b = egd.sample(model.components[1], 400, seed=42)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        report = egd.fit_mixture(data, egd.EmConfig(
            n_components=2, seed=5, outer_rounds=40))
        assert np.all(np.diff(report.loglik_trace) >= -1e-9)

    def test_two_component_recovery(self):
        q = 4
        rng = np.random.default_rng(43)
        s1 = random_spd(q, rng)
        s2 = 60.0 * random_spd(q, rng)
        truth = [egd.EgdParams(egd.ScatterMatrix(s1), 1.0, q / 1.0),
                 egd.EgdParams(egd.ScatterMatrix(s2), 6.0, q / 6.0)]
        model = egd.MixtureModel(truth, np.array([0.5, 0.5]))
        a = egd.sample(truth[0], 4000, seed=44)
        b = egd.sample(truth[1], 4000, seed=45)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        report = egd.fit_mixture(data, egd.EmConfig(
            n_components=2, init="kmeans-on-radii", seed=1,
            outer_rounds=60, tol=1e-7))
        fitted = [c.scatter.entries for c in report.model.components]
        order = align_scatters(fitted, [s1, s2])
        for k, j in enumerate(order):
            # scatters match up to the shared scale degeneracy; compare
            # the implied covariances a*b/q * Sigma instead
            comp = report.model.components[k]
            got = comp.shape_a * comp.scale_b / q * comp.scatter.entries
            want = truth[j].shape_a * truth[j].scale_b / q \
                * truth[j].scatter.entries
            assert rel_frob(got, want) < 0.10

    def test_permutation_invariance(self):
        model = two_scale_model(2, lo=1.0, hi=50.0)
        a = egd.sample(model.components[0], 300, seed=46)
        b = egd.sample(model.components[1], 300, seed=47)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        swapped = egd.MixtureModel([model.components[1],
                                    model.components[0]],
                                   np.array([0.5, 0.5]))
        kw = dict(n_components=2, init="user-model", outer_rounds=10,
                  seed=9)
        r1 = egd.fit_mixture(data, egd.EmConfig(user_model=model, **kw))
        r2 = egd.fit_mixture(data, egd.EmConfig(user_model=swapped, **kw))
        assert r1.loglik_trace[-1] == pytest.approx(r2.loglik_trace[-1],
                                                    rel=1e-12)
        assert_allclose(r1.model.components[0].scatter.entries,
                        r2.model.components[1].scatter.entries, rtol=1e-10)
        assert_allclose(r1.responsibilities.matrix,
                        r2.responsibilities.matrix[::-1], rtol=1e-8,
                        atol=1e-12)

    def test_empty_component_removed(self):
        rng = np.random.default_rng(48)
        data = egd.Dataset(rng.standard_normal((200, 2)))
        dead = egd.EgdParams(egd.ScatterMatrix(1e-10 * np.eye(2)), 1.0, 2.0)
        live = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        start = egd.MixtureModel([live, dead], np.array([0.5, 0.5]))
        cfg = egd.EmConfig(n_components=2, init="user-model",
                           user_model=start, outer_rounds=5, seed=0)
        with pytest.warns(UserWarning, match="empty component"):
            report = egd.fit_mixture(data, cfg)
        assert report.model.n_components == 1
        # the pruned component's radii go with it
        assert report.responsibilities.n_components == 1
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)

    def test_matches_public_step_schedule(self):
        # fit_mixture shares one radius matrix between scatter refits; the
        # public steps each recompute it, and must give identical floats
        model = two_scale_model(3, lo=1.0, hi=60.0)
        a = egd.sample(model.components[0], 400, seed=41)
        b = egd.sample(model.components[1], 400, seed=42)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        start = egd.MixtureModel(
            [egd.EgdParams(egd.ScatterMatrix(2.0 * np.eye(3)), 1.0, 2.0),
             egd.EgdParams(egd.ScatterMatrix(30.0 * np.eye(3)), 2.0, 3.0)],
            np.array([0.4, 0.6]))
        cfg = egd.EmConfig(n_components=2, init="user-model",
                           user_model=start, outer_rounds=8, tol=1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = egd.fit_mixture(data, cfg)

            model, trace, prev_round = start, [], None
            for _ in range(cfg.outer_rounds):
                resp, total = egd.e_step(model, data)
                trace.append(total / data.total_weight)
                model = egd.m_step_scatter(data, resp, model)
                prev_stage = None
                for _ in range(20):
                    resp, total = egd.e_step(model, data)
                    avg = total / data.total_weight
                    trace.append(avg)
                    model = egd.m_step_shape(data, resp, model)
                    if prev_stage is not None and \
                            abs(avg - prev_stage) < cfg.tol:
                        break
                    prev_stage = avg
                if prev_round is not None and \
                        abs(trace[-1] - prev_round) < cfg.tol:
                    break
                prev_round = trace[-1]
            resp, total = egd.e_step(model, data)
            trace.append(total / data.total_weight)

        # no pruning, and both the stage-2 and the round stop were taken
        assert report.model.n_components == 2
        assert report.converged
        assert len(trace) < report.rounds * (1 + 20) + 1
        assert np.array_equal(report.loglik_trace, np.asarray(trace))
        assert np.array_equal(report.model.mix_probs, model.mix_probs)
        assert np.array_equal(report.responsibilities.matrix, resp.matrix)
        for got, want in zip(report.model.components, model.components):
            assert np.array_equal(got.scatter.entries, want.scatter.entries)
            assert got.shape_a == want.shape_a
            assert got.scale_b == want.scale_b

    def test_deterministic(self):
        rng = np.random.default_rng(49)
        data = egd.Dataset(rng.standard_normal((300, 2)) * [1.0, 3.0])
        cfg = dict(n_components=2, seed=77, outer_rounds=15)
        r1 = egd.fit_mixture(data, egd.EmConfig(**cfg))
        r2 = egd.fit_mixture(data, egd.EmConfig(**cfg))
        assert np.array_equal(r1.loglik_trace, r2.loglik_trace)
        assert_allclose(r1.model.components[0].scatter.entries,
                        r2.model.components[0].scatter.entries, rtol=0.0)


class TestSampleMixture:
    def test_deterministic_and_shaped(self):
        model = two_scale_model(3)
        d1 = egd.sample_mixture(model, 500, seed=50)
        d2 = egd.sample_mixture(model, 500, seed=50)
        assert d1.samples.shape == (500, 3)
        assert np.array_equal(d1.samples, d2.samples)

    def test_moment_mixes_components(self):
        q = 2
        model = two_scale_model(q, lo=1.0, hi=9.0)
        data = egd.sample_mixture(model, 120000, seed=51)
        emp = data.samples.T @ data.samples / data.n
        expect = 0.5 * (1.0 + 9.0) * np.eye(q)
        assert rel_frob(emp, expect) < 0.05


class TestMiRate:
    def test_requires_q_at_least_two(self):
        data = egd.Dataset(np.ones((10, 1)))
        with pytest.raises(ValueError, match="at least 2"):
            egd.mi_rate(-1.0, data, 1)

    def test_affine_monotone(self):
        rng = np.random.default_rng(52)
        data = egd.Dataset(rng.standard_normal((500, 4)))
        low = egd.mi_rate(-8.0, data, 4)
        high = egd.mi_rate(-7.0, data, 4)
        assert high > low
        assert high - low == pytest.approx(1.0 / (3.0 * np.log(2.0)),
                                           rel=1e-12)

    def test_correlated_beats_independent(self):
        rng = np.random.default_rng(53)
        q, n = 4, 20000
        rho = 0.8
        cov = rho * np.ones((q, q)) + (1 - rho) * np.eye(q)
        x_corr = rng.multivariate_normal(np.zeros(q), cov, size=n)
        x_ind = rng.standard_normal((n, q))
        rates = []
        for x in (x_corr, x_ind):
            data = egd.Dataset(x)
            fit = egd.EgdParams(egd.ScatterMatrix(x.T @ x / n), 0.5 * q, 2.0)
            avg = egd.log_likelihood(fit, data) / n
            rates.append(egd.mi_rate(avg, data, q))
        assert rates[0] > rates[1]

    def test_bins_override(self):
        rng = np.random.default_rng(54)
        data = egd.Dataset(rng.standard_normal((100, 3)))
        r_default = egd.mi_rate(-4.0, data, 3)
        r_coarse = egd.mi_rate(-4.0, data, 3, bins=4)
        assert r_default != r_coarse


class TestPreprocess:
    def test_zero_noise_is_pure_log(self):
        rng = np.random.default_rng(55)
        raw = egd.Dataset(rng.lognormal(0.0, 1.0, size=(50, 4)))
        out = egd.preprocess_patches(raw, noise_fraction=0.0, seed=3)
        assert_allclose(out.samples, np.log(raw.samples), rtol=1e-15)

    def test_noise_variance_scaled_to_log_variance(self):
        rng = np.random.default_rng(56)
        raw = egd.Dataset(rng.lognormal(1.0, 0.7, size=(250000, 4)))
        frac = 0.002
        clean = egd.preprocess_patches(raw, noise_fraction=0.0, seed=8)
        noisy = egd.preprocess_patches(raw, noise_fraction=frac, seed=8)
        noise = noisy.samples - clean.samples
        ratio = noise.var() / clean.samples.var()
        assert ratio == pytest.approx(frac, rel=0.05)

    def test_rejects_nonpositive_with_index(self):
        raw_vals = np.ones((4, 3))
        raw_vals[2, 1] = -0.5
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            egd.preprocess_patches(egd.Dataset(raw_vals), 0.1, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(57)
        raw = egd.Dataset(rng.lognormal(0.0, 0.5, size=(60, 2)))
        o1 = egd.preprocess_patches(raw, 0.01, seed=12)
        o2 = egd.preprocess_patches(raw, 0.01, seed=12)
        assert np.array_equal(o1.samples, o2.samples)

"""EM driver, responsibility bookkeeping, and evaluation utilities."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import egd
from egd._linalg import tril_inv
from helpers import (align_scatters, kmeans_radii_reference, random_spd,
                     rel_frob)


@pytest.fixture()
def scatter_steps(monkeypatch):
    """Collects what each scatter step of the M-step returns."""
    calls = []
    step = egd.scatter._em_step

    def spy(*args):
        calls.append(step(*args))
        return calls[-1]

    monkeypatch.setattr(egd.scatter, "_em_step", spy)
    return calls


@pytest.fixture()
def start_labels(monkeypatch):
    """Collects the labels each data-driven start hands to
    ``_labels_to_model``, which then stops the fit with StopIteration."""
    labels = []

    def captured(data, found, k):
        labels.append(found)
        raise StopIteration

    monkeypatch.setattr(egd.mixture, "_labels_to_model", captured)
    return labels


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

    def test_repr_names_shape(self):
        # a report's repr shows its responsibilities, not their address
        resp = egd.Responsibilities(np.full((2, 3), 0.5))
        assert repr(resp) == "Responsibilities(n_components=2, n=3)"
        report = egd.EmReport(model=two_scale_model(2), loglik_trace=np.zeros(1),
                              responsibilities=resp, converged=True, rounds=1)
        assert " at 0x" not in repr(report)


class TestEmConfig:
    def test_requires_component(self):
        with pytest.raises(ValueError, match="n_components"):
            egd.EmConfig(n_components=0)

    def test_user_model_pairing(self):
        with pytest.raises(ValueError, match="user_model"):
            egd.EmConfig(n_components=2, init="user-model")
        with pytest.raises(ValueError, match="user_model"):
            egd.EmConfig(n_components=2, user_model=two_scale_model(2))

    def test_user_model_component_count(self):
        with pytest.raises(ValueError, match="n_components"):
            egd.EmConfig(n_components=3, init="user-model",
                         user_model=two_scale_model(2))

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

    def test_built_model_inverts_no_factor(self, monkeypatch):
        # every scatter holds its inverse factor from construction, so the
        # densities of a built model invert nothing
        model = two_scale_model(3)
        data = egd.sample(model.components[1], 50, seed=34)
        calls = []

        def counted(chol):
            calls.append(chol.shape)
            return tril_inv(chol)

        monkeypatch.setattr(egd.core, "tril_inv", counted)
        egd.e_step(model, data)
        egd.log_density(model.components[0], data.samples)
        assert calls == []

    @staticmethod
    def _from_log_density(model, data):
        # the E-step written out on the public densities
        with np.errstate(divide="ignore"):
            log_joint = np.stack([egd.log_density(c, data.samples) + np.log(p)
                                  for c, p in zip(model.components,
                                                  model.mix_probs)])
        peak = log_joint.max(axis=0)
        log_norm = peak + np.log(np.exp(log_joint - peak).sum(axis=0))
        return np.exp(log_joint - log_norm), float(data.weights @ log_norm)

    def test_matches_log_density_bit_for_bit(self):
        # both regimes and the Gaussian boundary a = q/2
        q = 3
        rng = np.random.default_rng(34)
        comps = [egd.EgdParams(egd.ScatterMatrix(random_spd(q, rng)), a, b)
                 for a, b in ((0.4, 3.0), (1.5, 2.0), (6.0, 0.7))]
        model = egd.MixtureModel(comps, np.array([0.2, 0.5, 0.3]))
        weights = rng.uniform(0.0, 2.0, 60)
        weights[:10] = 0.0
        data = egd.Dataset(rng.standard_normal((60, q)), weights)
        resp, total = egd.e_step(model, data)
        want_resp, want_total = self._from_log_density(model, data)
        assert np.array_equal(resp.matrix, want_resp)
        assert total == want_total

    def test_gaussian_row_ignores_zero_radius(self):
        # a row whose squared radius underflows to zero: the Gaussian
        # log-density is c - t/b there, with no log t term
        q = 3
        comps = [egd.EgdParams(egd.ScatterMatrix(s * np.eye(q)), 0.5 * q, 2.0)
                 for s in (1.0, 4.0)]
        model = egd.MixtureModel(comps, np.array([0.5, 0.5]))
        x = np.random.default_rng(35).standard_normal((20, q))
        x[7] = 1e-170
        data = egd.Dataset(x)
        assert egd.squared_radius(comps[0].scatter, x[7]) == 0.0
        resp, total = egd.e_step(model, data)
        want_resp, want_total = self._from_log_density(model, data)
        assert np.array_equal(resp.matrix, want_resp)
        assert total == want_total

    def test_zero_radius_raises_off_the_gaussian_boundary(self):
        q = 3
        comps = [egd.EgdParams(egd.ScatterMatrix.identity(q), 0.5 * q, 2.0),
                 egd.EgdParams(egd.ScatterMatrix(4.0 * np.eye(q)), 2.5, 2.0)]
        model = egd.MixtureModel(comps, np.array([0.5, 0.5]))
        x = np.random.default_rng(36).standard_normal((40, q))
        x[7] = 1e-170
        data = egd.Dataset(x)
        with pytest.raises(ValueError,
                           match="sample 7: density singular/zero at origin"):
            egd.e_step(model, data)
        cfg = egd.EmConfig(n_components=2, init="user-model", user_model=model)
        with pytest.raises(ValueError,
                           match="sample 7: density singular/zero at origin"):
            egd.fit_mixture(data, cfg)

    def test_overflowing_radius_raises_zero_density(self):
        # x'x of the first row overflows to inf: each component's density
        # is zero there, with no inf - inf on the way
        q = 3
        comps = [egd.EgdParams(egd.ScatterMatrix.identity(q), a, 2.0)
                 for a in (0.5, 1.5, 4.0)]
        model = egd.MixtureModel(comps, np.full(3, 1.0 / 3.0))
        x = np.random.default_rng(37).standard_normal((20, q))
        x[0] = [1e200, 1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sample 0 has zero density"):
                egd.e_step(model, egd.Dataset(x))


class TestMSteps:
    @pytest.fixture()
    def blob_data(self):
        model = two_scale_model(4)
        a = egd.sample(model.components[0], 300, seed=34)
        b = egd.sample(model.components[1], 300, seed=35)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        return model, data

    @pytest.mark.parametrize("shape_a", [0.7, 2.5, 1.5],
                             ids=["trace", "concave", "c0"])
    def test_scatter_step_reduces_to_single_fit(self, shape_a):
        rng = np.random.default_rng(36)
        data = egd.Dataset(rng.standard_normal((200, 3)) * 2.0)
        comp = egd.EgdParams(egd.ScatterMatrix.identity(3), shape_a, 2.0)
        model = egd.MixtureModel([comp], np.ones(1))
        resp = egd.Responsibilities(np.ones((1, 200)))
        stepped = egd.m_step_scatter(data, resp, model)
        # same warm start and one step (trace rule, concave, or the c = 0
        # step to B): the iterates coincide exactly
        direct = egd.fit_scatter(
            data, shape_a, 2.0,
            egd.FixedPointConfig(init="user", user_matrix=np.eye(3),
                                 tol=1e-10, max_iter=1, alpha_rule="trace"))
        assert np.array_equal(stepped.components[0].scatter.entries,
                              direct.sigma_hat.entries)

    @staticmethod
    def _one_component(shape_a):
        rng = np.random.default_rng(36)
        data = egd.Dataset(rng.standard_normal((200, 3)) * 2.0)
        comp = egd.EgdParams(egd.ScatterMatrix.identity(3), shape_a, 2.0)
        resp = egd.Responsibilities(np.ones((1, 200)))
        return data, resp, egd.MixtureModel([comp], np.ones(1))

    def test_nonconcave_step_forms_one_product(self, monkeypatch):
        # one EM step forms the start's candidate and factors it, and forms
        # neither B (a gram product with its own factorization) nor a map
        # matrix G2; an eigen-rule fit forms B once and carries each step's
        # G2 forward as the next candidate
        data, resp, model = self._one_component(0.7)
        counts = collections.Counter()
        for module, name in ((egd.scatter, "gram"), (egd.core, "chol_lower")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        stepped = egd.m_step_scatter(data, resp, model)
        assert stepped.components[0].scatter is not model.components[0].scatter
        assert counts == {"gram": 1, "chol_lower": 1}
        counts.clear()
        report = egd.fit_nonconcave(data, 0.7, 2.0,
                                    egd.FixedPointConfig(tol=1e-10))
        assert report.iterations > 2
        assert counts["gram"] == report.iterations + 2

    @pytest.mark.parametrize("shape_a", [0.7, 2.5])
    def test_refit_keeps_step_factor(self, shape_a):
        # the refit's factor is the step's, sqrt(alpha) chol(Sigma') for a
        # scaled step and chol(Sigma) for a concave one
        data, resp, model = self._one_component(shape_a)
        sigma = egd.m_step_scatter(data, resp, model).components[0].scatter
        assert sigma is not model.components[0].scatter
        assert rel_frob(sigma.cholesky @ sigma.cholesky.T,
                        sigma.entries) <= 1e-14
        assert sigma.log_det == pytest.approx(
            np.linalg.slogdet(sigma.entries)[1], rel=0.0, abs=1e-12)
        if shape_a >= 1.5:
            fresh = egd.ScatterMatrix(sigma.entries)
            assert np.array_equal(sigma.cholesky, fresh.cholesky)
            assert sigma.log_det == fresh.log_det

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
                                                      scatter_steps):
        # each component takes one step, which it keeps only if it does not
        # lower the component's log-likelihood
        model, data = blob_data
        resp, _ = egd.e_step(model, data)
        stepped = egd.m_step_scatter(data, resp, model)
        assert len(scatter_steps) == 2
        for (ll_start, ll, sigma, *_), new in zip(scatter_steps,
                                                  stepped.components):
            assert ll >= ll_start
            assert new.scatter is sigma

    def test_lowering_refit_is_dropped(self, blob_data, monkeypatch):
        model, data = blob_data
        resp, before = egd.e_step(model, data)
        step = egd.scatter._em_step

        def inflated(x, w, a, b, *start):
            # an honest start, then three times the honest refit, with the
            # log-likelihood and radii that go with it
            ll_start, _, sigma, t, _ = step(x, w, a, b, *start)
            worse = egd.EgdParams(egd.ScatterMatrix(3.0 * sigma.entries), a, b)
            ll = egd.log_likelihood(worse, egd.Dataset(x, w)) / w.sum()
            return ll_start, ll, worse.scatter, t / 3.0, np.log(t / 3.0)

        monkeypatch.setattr(egd.scatter, "_em_step", inflated)
        stepped = egd.m_step_scatter(data, resp, model)
        for new, old in zip(stepped.components, model.components):
            assert new.scatter is old.scatter
        assert egd.mixture_log_likelihood(stepped, data) >= before

    def test_breakdown_keeps_start_and_radii(self, blob_data, monkeypatch):
        # a step that leaves the SPD cone keeps the component and its row
        # of radii, with a warning that names both
        model, data = blob_data
        resp, _ = egd.e_step(model, data)
        def broken(*args):
            raise egd.scatter._Breakdown("candidate is near singular")

        monkeypatch.setattr(egd.scatter, "_em_step", broken)
        radii, log_radii = egd.mixture._squared_radii(model, data)
        before = radii.copy(), log_radii.copy()
        with pytest.warns(UserWarning) as caught:
            stepped = egd.mixture._m_step_scatter(data, resp, model, radii,
                                                  log_radii)
        assert [str(w.message) for w in caught] == [
            f"component {k} scatter frozen for this sweep: candidate is near "
            "singular" for k in range(2)]
        for new, old in zip(stepped.components, model.components):
            assert new.scatter is old.scatter
        assert np.array_equal(radii, before[0])
        assert np.array_equal(log_radii, before[1])

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
        with pytest.warns(UserWarning, match="component 1 scatter frozen for "
                          "this sweep: effective weight 1.5 <= 11"):
            stepped = egd.m_step_scatter(data, resp, model)
        assert stepped.components[1].scatter is model.components[1].scatter

    def test_rank_deficient_subset_freezes_scatter(self):
        # effective weight 10 >= q, but on two rows, which span a plane
        rng = np.random.default_rng(38)
        weights = np.zeros(50)
        weights[[4, 9]] = 5.0
        data = egd.Dataset(rng.standard_normal((50, 3)), weights)
        comp = egd.EgdParams(egd.ScatterMatrix.identity(3), 0.7, 2.0)
        model = egd.MixtureModel([comp], np.ones(1))
        resp = egd.Responsibilities(np.ones((1, 50)))
        with pytest.warns(UserWarning, match="component 0 scatter frozen for "
                          "this sweep: candidate is"):
            stepped = egd.m_step_scatter(data, resp, model)
        assert stepped.components[0].scatter is comp.scatter

    def test_equal_radii_keep_radial_parameters(self):
        # rows on the unit sphere under the identity all have squared
        # radius one, to rounding, which no gamma law fits
        x = np.random.default_rng(37).standard_normal((50, 3))
        data = egd.Dataset(x / np.linalg.norm(x, axis=1, keepdims=True))
        comp = egd.EgdParams(egd.ScatterMatrix.identity(3), 1.5, 2.0)
        model = egd.MixtureModel([comp], np.ones(1))
        resp = egd.Responsibilities(np.ones((1, 50)))
        with pytest.warns(UserWarning, match="component 0 radial parameters "
                          "frozen for this sweep: degenerate sample"):
            stepped = egd.m_step_shape(data, resp, model)
        assert stepped.components[0] is comp

    def test_one_floor_keeps_both_blocks(self, blob_data):
        # q = 4: an effective weight of 6 is at least q but at most
        # q(q+1)/2 + 1 = 11, so the component keeps its scatter as well as
        # its shape and scale
        model, data = blob_data
        light = np.zeros(600)
        light[:12] = 0.5
        resp = egd.Responsibilities(np.vstack([1.0 - light, light]))
        for step, block in ((egd.m_step_scatter, "scatter"),
                            (egd.m_step_shape, "radial parameters")):
            with pytest.warns(UserWarning, match=f"component 1 {block} frozen "
                              "for this sweep: effective weight 6 <= 11"):
                stepped = step(data, resp, model)
            assert stepped.components[1] is model.components[1]
            assert stepped.components[0] is not model.components[0]

    @pytest.mark.parametrize("rows", [14, 15])
    def test_light_component_keeps_radial_parameters(self, rows):
        # q = 3: up to q(q+1)/2 + 1 = 7 of effective weight the radial step
        # is frozen; the component's points could share one ellipsoid
        params = egd.EgdParams(egd.ScatterMatrix.identity(3), 2.5, 1.3)
        data = egd.sample(params, 200, seed=39)
        model = egd.MixtureModel([params, params], np.array([0.5, 0.5]))
        light = np.zeros(200)
        light[:rows] = 0.5
        resp = egd.Responsibilities(np.vstack([1.0 - light, light]))
        if rows == 14:
            with pytest.warns(UserWarning, match="component 1 radial "
                              "parameters frozen for this sweep: effective "
                              "weight 7 <= 7"):
                stepped = egd.m_step_shape(data, resp, model)
            assert stepped.components[1] is params
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                stepped = egd.m_step_shape(data, resp, model)
            assert stepped.components[1].shape_a != params.shape_a
        assert stepped.components[0].shape_a != params.shape_a


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


@st.composite
def small_mixture_fits(draw):
    """Data from a random mixture with q, K <= 3 and n <= 40, and a config."""
    q = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k * q, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    comps = [egd.EgdParams(
        egd.ScatterMatrix(10.0 ** rng.uniform(-1.0, 1.0)
                          * random_spd(q, rng, ridge=0.5)),
        0.5 * q * 10.0 ** rng.uniform(-1.0, 1.0),
        10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(k)]
    truth = egd.MixtureModel(comps, rng.dirichlet(np.ones(k)))
    data = egd.sample_mixture(truth, n, int(rng.integers(2**31)))
    init = draw(st.sampled_from(["random-assignment", "kmeans-on-radii"]))
    return data, egd.EmConfig(n_components=k, seed=seed, init=init)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_mixture_fits())
def test_mixture_trace_monotone_and_components_bounded(case):
    # a component of at most q(q+1)/2 points can put them all on one
    # ellipsoid and run its shape off (Hathaway 1985); the radial weight
    # floor keeps the likelihood bounded and the trace monotone
    data, config = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = egd.fit_mixture(data, config)
    trace = report.loglik_trace
    drops = trace[:-1] - trace[1:]
    assert np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
    for comp in report.model.components:
        assert np.isfinite([comp.shape_a, comp.scale_b,
                            comp.scatter.log_det]).all()
        assert comp.shape_a <= 1e6


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=60),
       st.integers(1, 4))
def test_kmeans_labels_match_lloyd_reference(tenths, k):
    # radii on a grid of tenths: repeated values, exact midpoint ties that
    # argmin sends to the lower center, empty clusters whose farthest radius
    # is tied, and cluster sums whose rounding depends on the order of the
    # terms
    radii = np.asarray(tenths) * 0.1
    labels = egd.mixture._kmeans_radii_labels(radii, k)
    assert labels.dtype == np.intp
    assert np.array_equal(labels, kmeans_radii_reference(radii, k))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kmeans_labels_match_reference_on_continuous_radii(seed, k):
    # the scale of a K = 3, q = 16, n = 4000 fit: radii from three radial
    # laws with means 1, 16 and 100, in random order
    rng = np.random.default_rng(seed)
    laws = np.array([(0.5, 2.0), (4.0, 4.0), (10.0, 10.0)])
    which = rng.choice(3, size=4000, p=[0.3, 0.4, 0.3])
    radii = np.sqrt(rng.gamma(laws[which, 0], laws[which, 1]))
    labels = egd.mixture._kmeans_radii_labels(radii, k)
    assert np.array_equal(labels, kmeans_radii_reference(radii, k))


class TestFitMixture:
    def test_requires_enough_samples(self):
        data = egd.Dataset(np.random.default_rng(38).standard_normal((5, 3)))
        with pytest.raises(ValueError, match="n_components"):
            egd.fit_mixture(data, egd.EmConfig(n_components=2))

    @pytest.mark.parametrize("init", ["kmeans-on-radii", "random-assignment"])
    def test_rank_deficient_start_names_cause(self, init):
        # one positive weight: the pooled start moment has rank one
        x = np.random.default_rng(0).standard_normal((3, 3))
        data = egd.Dataset(x, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(egd.RankDeficiencyError,
                           match="data does not span R"):
            egd.fit_mixture(data, egd.EmConfig(n_components=1, init=init))

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

    @staticmethod
    def two_scale_data():
        model = two_scale_model(3, lo=1.0, hi=60.0)
        a = egd.sample(model.components[0], 400, seed=41)
        b = egd.sample(model.components[1], 400, seed=42)
        return egd.Dataset(np.vstack([a.samples, b.samples]))

    def test_trace_monotone(self):
        for init in ("random-assignment", "kmeans-on-radii"):
            report = egd.fit_mixture(self.two_scale_data(), egd.EmConfig(
                n_components=2, seed=5, outer_rounds=40, init=init))
            assert np.all(np.diff(report.loglik_trace) >= -1e-9)

    def test_default_start_converges_on_two_scales(self):
        # the components differ in radial law, which the default k-means
        # start on the norms separates; a random start left this fit
        # unconverged after 100 rounds at -8.2234
        config = egd.EmConfig(n_components=2, seed=5)
        assert config.init == "kmeans-on-radii"
        report = egd.fit_mixture(self.two_scale_data(), config)
        assert report.converged
        assert report.loglik_trace[-1] >= -7.93

    @pytest.mark.parametrize("n, q, k", [(6, 3, 2), (7, 3, 2), (300, 3, 3),
                                         (301, 2, 4)])
    def test_random_start_labels_balanced(self, start_labels, n, q, k):
        # every component gets floor(n/k) or ceil(n/k) samples, so at least
        # q, at n = k q too; the labels depend on the seed alone
        labels = start_labels
        x = np.random.default_rng(52).standard_normal((n, q))
        for seed in (3, 3, 4):
            with pytest.raises(StopIteration):
                egd.fit_mixture(egd.Dataset(x), egd.EmConfig(
                    n_components=k, init="random-assignment", seed=seed))
        for found in labels:
            counts = np.bincount(found, minlength=k)
            assert counts.size == k
            assert counts.min() == n // k and counts.max() == -(-n // k)
            assert counts.min() >= q
        assert np.array_equal(labels[0], labels[1])
        # a few samples have few balanced labellings, which seeds can share
        assert n < 100 or not np.array_equal(labels[0], labels[2])

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

    def test_overflowing_start_moment_raises(self):
        # the start's moments overflow on the first row: the fit says so,
        # with no floating-point warning, instead of calling the data
        # rank-deficient
        x = np.random.default_rng(49).standard_normal((40, 3))
        x[0] = [1e200, 1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="weighted second moment overflows") as err:
                egd.fit_mixture(egd.Dataset(x), egd.EmConfig(n_components=2))
        assert not isinstance(err.value, egd.RankDeficiencyError)

    @pytest.mark.parametrize("q, row, error", [
        (3, [1e200, 1.0, 1.0], "weighted second moment overflows"),
        (4, [1e154] * 4, "data does not span R")],
        ids=["moment-overflows", "rank-rule"])
    def test_kmeans_start_on_huge_rows(self, q, row, error):
        # the radii of such rows would overflow; the k-means start raises
        # what the default start raises, with no floating-point warning
        x = np.random.default_rng(49).standard_normal((40, q))
        x[0] = row
        for init in ("random-assignment", "kmeans-on-radii"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=error):
                    egd.fit_mixture(egd.Dataset(x), egd.EmConfig(
                        n_components=2, init=init))

    def test_kmeans_start_labels_ignore_power_of_two_scale(self,
                                                            start_labels):
        # rows large enough to be rescaled get the labels of the unscaled
        # rows, which are not rescaled
        labels = start_labels
        x = np.random.default_rng(51).standard_normal((300, 3))
        x[:100] *= 30.0
        for scale in (1.0, 2.0 ** 560):
            with pytest.raises(StopIteration):
                egd.fit_mixture(egd.Dataset(scale * x), egd.EmConfig(
                    n_components=3, init="kmeans-on-radii"))
        assert np.array_equal(labels[0], labels[1])
        assert len(set(labels[0].tolist())) == 3

    @pytest.mark.parametrize("light, kept", [(1e-30, False), (1e-12, True)])
    def test_dying_component_pruned(self, light, kept):
        # a component with at most eps n_eff of effective weight is removed
        # although its weight is not zero; one just above it is kept
        rng = np.random.default_rng(50)
        data = egd.Dataset(rng.standard_normal((200, 2)))
        comp = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        model = egd.MixtureModel([comp, comp], np.array([1.0 - light, light]))
        radii, log_radii = egd.mixture._squared_radii(model, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pruned, radii, _, resp, _ = egd.mixture._respond(
                model, radii, log_radii, data)
        assert pruned.n_components == radii.shape[0] == resp.n_components
        assert pruned.n_components == (2 if kept else 1)
        assert [str(w.message) for w in caught] == (
            [] if kept else ["removing 1 empty component(s)"])

    def test_dying_component_pruned_in_fit(self):
        # removed at once, with one warning; pruning only at exactly zero
        # weight would carry it, and warn about it, through every round
        rng = np.random.default_rng(50)
        data = egd.Dataset(rng.standard_normal((200, 2)))
        comp = egd.EgdParams(egd.ScatterMatrix.identity(2), 1.0, 2.0)
        start = egd.MixtureModel([comp, comp], np.array([1.0 - 1e-30, 1e-30]))
        cfg = egd.EmConfig(n_components=2, init="user-model",
                           user_model=start, outer_rounds=5, seed=0)
        with pytest.warns(UserWarning) as caught:
            report = egd.fit_mixture(data, cfg)
        assert [str(w.message) for w in caught] == [
            "removing 1 empty component(s)"]
        assert report.model.n_components == 1

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

    @staticmethod
    def _public_schedule(data, cfg):
        """fit_mixture and the same schedule run on the public steps: per
        round one scatter sweep, then SQUAREM cycles of radial sweeps."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = egd.fit_mixture(data, cfg)

            model, trace, prev_round = cfg.user_model, [], None
            rounds = accepted = 0
            n_eff = data.total_weight
            for _ in range(cfg.outer_rounds):
                rounds += 1
                resp, total = egd.e_step(model, data)
                trace.append(total / n_eff)
                model = egd.m_step_scatter(data, resp, model)
                cycle, e_steps, prev = [model], 0, None
                while e_steps < 20:
                    resp, total = egd.e_step(model, data)
                    e_steps += 1
                    avg = total / n_eff
                    trace.append(avg)
                    model = egd.m_step_shape(data, resp, model)
                    if prev is not None and abs(avg - prev) < cfg.tol:
                        break
                    prev = avg
                    cycle.append(model)
                    if len(cycle) < 3 or e_steps == 20:
                        continue
                    trial = egd.mixture._extrapolated(*cycle)
                    cycle = [model]
                    if trial is None:
                        continue
                    e_steps += 1
                    resp, total = egd.e_step(trial, data)
                    avg = total / n_eff
                    if not (avg >= prev
                            and (resp.matrix @ data.weights).min() > 0.0):
                        continue
                    accepted += 1
                    trace.append(avg)
                    model = egd.m_step_shape(data, resp, trial)
                    cycle = [model]
                    if abs(avg - prev) < cfg.tol:
                        break
                    prev = avg
                if prev_round is not None and \
                        abs(trace[-1] - prev_round) < cfg.tol:
                    break
                prev_round = trace[-1]
            resp, total = egd.e_step(model, data)
            trace.append(total / n_eff)
        # no pruning, both the stage-2 and the round stop were taken, and
        # some extrapolated point was accepted
        assert report.model.n_components == 2
        assert report.converged
        assert report.rounds == rounds
        assert accepted > 0
        assert len(trace) < report.rounds * (1 + 20) + 1
        assert len(report.loglik_trace) == len(trace)
        return report, model, trace, resp

    def test_matches_public_step_schedule(self):
        # fit_mixture keeps the radii t'/alpha each scaled step leaves
        # behind; the public steps recompute them from the scatters, which
        # agrees to rounding once a step is scaled (alpha != 1), and must
        # take the same schedule
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
        report, model, trace, resp = self._public_schedule(data, cfg)
        assert_allclose(report.loglik_trace, trace, rtol=1e-13, atol=0.0)
        assert_allclose(report.model.mix_probs, model.mix_probs, rtol=1e-13)
        assert_allclose(report.responsibilities.matrix, resp.matrix,
                        rtol=0.0, atol=1e-13)
        for got, want in zip(report.model.components, model.components):
            assert rel_frob(got.scatter.entries, want.scatter.entries) <= 1e-13
            assert got.shape_a == pytest.approx(want.shape_a, rel=1e-13)
            assert got.scale_b == pytest.approx(want.scale_b, rel=1e-13)

    def _exact_schedule(self, data, start, outer_rounds):
        """fit_mixture equals its public schedule bit for bit."""
        cfg = egd.EmConfig(n_components=2, init="user-model",
                           user_model=start, outer_rounds=outer_rounds,
                           tol=1e-7)
        report, model, trace, resp = self._public_schedule(data, cfg)
        assert all(comp.shape_a > 1.5 for comp in report.model.components)
        assert np.array_equal(report.loglik_trace, np.asarray(trace))
        assert np.array_equal(report.model.mix_probs, model.mix_probs)
        assert np.array_equal(report.responsibilities.matrix, resp.matrix)
        for got, want in zip(report.model.components, model.components):
            assert np.array_equal(got.scatter.entries, want.scatter.entries)
            assert got.shape_a == want.shape_a
            assert got.scale_b == want.scale_b

    def test_matches_public_step_schedule_exactly_when_unscaled(self):
        # with every shape above q/2 the scatter steps are concave, the kept
        # radii are those squared_radius computes, and the floats must agree
        comps = [egd.EgdParams(egd.ScatterMatrix(scale * np.eye(3)), 4.0, 2.0)
                 for scale in (1.0, 60.0)]
        a = egd.sample(comps[0], 400, seed=41)
        b = egd.sample(comps[1], 400, seed=42)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        start = egd.MixtureModel(
            [egd.EgdParams(egd.ScatterMatrix(2.0 * np.eye(3)), 4.0, 2.0),
             egd.EgdParams(egd.ScatterMatrix(30.0 * np.eye(3)), 5.0, 3.0)],
            np.array([0.4, 0.6]))
        self._exact_schedule(data, start, 8)

    def test_matches_public_step_schedule_exactly_from_gaussian_start(self):
        # one component starts on the Gaussian boundary a = q/2, where the
        # E-step has no log t term and the scatter step lands on B, and
        # some weights are zero
        comps = [egd.EgdParams(egd.ScatterMatrix(scale * np.eye(3)), 4.0, 2.0)
                 for scale in (1.0, 60.0)]
        a = egd.sample(comps[0], 400, seed=43)
        b = egd.sample(comps[1], 400, seed=44)
        weights = np.random.default_rng(45).uniform(0.0, 2.0, 800)
        weights[::7] = 0.0
        data = egd.Dataset(np.vstack([a.samples, b.samples]), weights)
        start = egd.MixtureModel(
            [egd.EgdParams(egd.ScatterMatrix(2.0 * np.eye(3)), 1.5, 2.0),
             egd.EgdParams(egd.ScatterMatrix(30.0 * np.eye(3)), 5.0, 3.0)],
            np.array([0.4, 0.6]))
        self._exact_schedule(data, start, 20)

    def test_responsibilities_read_only(self):
        rng = np.random.default_rng(50)
        data = egd.Dataset(rng.standard_normal((120, 2)) * [1.0, 3.0])
        report = egd.fit_mixture(data, egd.EmConfig(n_components=2,
                                                    outer_rounds=3))
        with pytest.raises(ValueError):
            report.responsibilities.matrix[0, 0] = 0.5

    def test_deterministic(self):
        rng = np.random.default_rng(49)
        data = egd.Dataset(rng.standard_normal((300, 2)) * [1.0, 3.0])
        cfg = dict(n_components=2, seed=77, outer_rounds=15)
        r1 = egd.fit_mixture(data, egd.EmConfig(**cfg))
        r2 = egd.fit_mixture(data, egd.EmConfig(**cfg))
        assert np.array_equal(r1.loglik_trace, r2.loglik_trace)
        assert_allclose(r1.model.components[0].scatter.entries,
                        r2.model.components[0].scatter.entries, rtol=0.0)


class TestRadialExtrapolation:
    """The SQUAREM cycles of the radial stage."""

    @staticmethod
    def radial_models(log_shapes, log_scales=(0.0, 0.0, 0.0)):
        # one-component models that differ in their radial parameters only
        sigma = egd.ScatterMatrix.identity(2)
        return [egd.MixtureModel([egd.EgdParams(sigma, math.exp(la),
                                                math.exp(lb))], [1.0])
                for la, lb in zip(log_shapes, log_scales)]

    def test_point_is_squarem_step(self):
        # r = 1, v = -1/2, alpha = -2: theta0 - 2 alpha r + alpha^2 v = 2
        trial = egd.mixture._extrapolated(*self.radial_models((0.0, 1.0, 1.5)))
        assert trial.components[0].shape_a == pytest.approx(math.exp(2.0),
                                                            rel=1e-15)
        assert trial.components[0].scale_b == 1.0

    def test_capped_or_overflowing_point_is_not_taken(self):
        # |v| >= |r| caps alpha at -1, where the point is theta2 itself
        assert egd.mixture._extrapolated(
            *self.radial_models((0.0, 1.0, 3.0))) is None
        # alpha = -100 sends log a to 1000 and log b to -1000, which
        # overflow and underflow; neither raises nor warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert egd.mixture._extrapolated(
                *self.radial_models((0.0, 10.0, 19.9))) is None
            assert egd.mixture._extrapolated(*self.radial_models(
                (0.0, 0.0, 0.0), (0.0, -10.0, -19.9))) is None

    @staticmethod
    def _fit(monkeypatch, extrapolated):
        """A fit with ``extrapolated`` as the SQUAREM point, and the models
        of its E-steps."""
        model = two_scale_model(3, lo=1.0, hi=60.0)
        a = egd.sample(model.components[0], 400, seed=41)
        b = egd.sample(model.components[1], 400, seed=42)
        data = egd.Dataset(np.vstack([a.samples, b.samples]))
        e_step = egd.mixture._e_step
        evaluated = []

        def counted(model, *args):
            evaluated.append(model)
            return e_step(model, *args)

        monkeypatch.setattr(egd.mixture, "_e_step", counted)
        monkeypatch.setattr(egd.mixture, "_extrapolated", extrapolated)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = egd.fit_mixture(data, egd.EmConfig(
                n_components=2, seed=5, outer_rounds=40))
        return report, evaluated

    @pytest.mark.parametrize("spoil", ["lower", "empty", "overflow", "zero"])
    def test_rejected_point_is_neither_recorded_nor_warned(self, monkeypatch,
                                                           spoil):
        trials = []

        def spoiled(model0, model1, model2):
            comps = model2.components
            if spoil == "empty":
                # the E-step gives component 1 no responsibility
                trial = egd.MixtureModel(comps, [1.0, 0.0])
            else:
                # a far worse shape, a scale whose t / b overflows, or one
                # under which some sample has zero density, so that the
                # E-step raises
                scale = 1e-306 if spoil == "overflow" else 1e-310
                trial = egd.MixtureModel(
                    [egd.EgdParams(c.scatter, 40.0 * c.shape_a, c.scale_b)
                     if spoil == "lower" else
                     egd.EgdParams(c.scatter, c.shape_a, scale)
                     for c in comps], model2.mix_probs)
            trials.append(trial)
            return trial

        report, evaluated = self._fit(monkeypatch, spoiled)
        assert trials
        # every trial point took an E-step, and none reached the trace
        assert all(any(m is t for m in evaluated) for t in trials)
        assert len(evaluated) == len(report.loglik_trace) + len(trials)
        assert report.model.n_components == 2
        assert np.all(np.diff(report.loglik_trace) >= -1e-9)

    def test_capped_step_costs_no_e_step(self, monkeypatch):
        # a point that is not taken, as at alpha = -1, is not evaluated:
        # every E-step is recorded
        report, evaluated = self._fit(monkeypatch, lambda *models: None)
        assert len(evaluated) == len(report.loglik_trace)

    def test_accepted_points_record_their_e_steps(self, monkeypatch):
        taken = []

        def recorded(*models):
            trial = extrapolated(*models)
            if trial is not None:
                taken.append(trial)
            return trial

        extrapolated = egd.mixture._extrapolated
        report, evaluated = self._fit(monkeypatch, recorded)
        assert taken
        # each E-step is recorded unless its point was rejected
        rejected = len(evaluated) - len(report.loglik_trace)
        assert 0 <= rejected < len(taken)
        assert np.all(np.diff(report.loglik_trace) >= -1e-9)


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

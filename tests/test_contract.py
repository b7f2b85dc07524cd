"""Property-based checks of the error contract of the scatter and mixture
fits.

A library scatter fit either raises a ``ValueError`` subclass or returns a
report whose trace length is its iteration count and whose stop is
explained: converged, near-singular, or the iteration cap.  A mixture fit
either raises a ``ValueError`` subclass or returns a report with a finite
trace, responsibility columns that sum to one and no more rounds than it
was allowed.  ``egd fit`` and ``egd fit-mixture`` on the same inputs exit
with one of the documented codes and never with a traceback.
The fits are also scale equivariant: scaling the samples by ``s`` scales
the fitted scatter by ``s**2`` and leaves the iteration count unchanged
(for Kent-Tyler and the mixture fit, checked on well-conditioned data),
and scaling every weight by the same power of two changes no bit of the
report.  One concave or Kent-Tyler step contracts the Thompson metric.
Every documented argument check raises ``ValueError`` with its message.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import egd
from egd import io as eio
from egd._linalg import reduced_eigvalsh
from egd.cli import main
from helpers import make_egd_data, random_spd, rel_frob

EXIT_CODES = {0, 2, 3, 4}


@st.composite
def fit_specs(draw):
    q = draw(st.integers(2, 6))
    n = draw(st.integers(q + 1, 60))
    return {
        "q": q,
        "n": n,
        "a": 10.0 ** draw(st.floats(-2.0, 2.0)),
        "b": 10.0 ** draw(st.floats(-3.0, 3.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "scale": draw(st.floats(-100.0, 100.0)),
        # rows pulled onto one direction, and how far off it they stay
        "collinear": draw(st.integers(0, n)),
        "offset": draw(st.floats(-16.0, 0.0)),
        "init": draw(st.sampled_from(["identity", "sample-cov", "user"])),
        "cond": draw(st.floats(0.0, 16.0)),
        "rotate": draw(st.booleans()),
        "alpha_rule": draw(st.sampled_from(["eigen", "trace"])),
        "max_iter": draw(st.integers(1, 200)),
    }


def build(spec):
    """Samples and, for the user init, a start matrix, both finite."""
    rng = np.random.default_rng(spec["seed"])
    q, n, k = spec["q"], spec["n"], spec["collinear"]
    x = rng.standard_normal((n, q))
    direction = rng.standard_normal(q)
    x[:k] = (np.outer(x[:k, 0], direction)
             + 10.0 ** spec["offset"] * x[:k])
    scale = 10.0 ** spec["scale"]
    x *= scale
    eigs = scale**2 * np.logspace(0.0, -spec["cond"], q)
    basis = (np.linalg.qr(rng.standard_normal((q, q)))[0]
             if spec["rotate"] else np.eye(q))
    return x, (basis * eigs) @ basis.T


def check_report(report, max_iter, tol):
    r, ll = report.residual_trace, report.loglik_trace
    assert len(ll) == len(r) == report.iterations
    assert (report.converged or report.near_singular
            or report.iterations == max_iter)
    if report.converged and not report.final_residual <= tol:
        # stopped at the residual's rounding floor: it did not shrink while
        # the log-likelihood tied (the start's values are not reported)
        assert report.iterations == 1 or (
            r[-1] >= r[-2]
            and abs(ll[-1] - ll[-2]) <= 4.0 * np.spacing(abs(ll[-1])))


def run_cli(argv):
    try:
        return main([str(v) for v in argv])
    except SystemExit as exc:
        return exc.code


# the zero-iteration stop: a start this close to singular is flagged
# before the first step
ZERO_ITERATION = {"q": 2, "n": 60, "a": 3.0, "b": 2.0, "seed": 0,
                  "scale": 0.0, "collinear": 0, "offset": 0.0,
                  "init": "user", "cond": 15.0, "rotate": False,
                  "alpha_rule": "eigen", "max_iter": 100}


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@example(ZERO_ITERATION)
@given(fit_specs())
def test_fits_report_or_raise_value_error(spec):
    x, user = build(spec)
    config = egd.FixedPointConfig(
        init=spec["init"], tol=1e-8, max_iter=spec["max_iter"],
        alpha_rule=spec["alpha_rule"],
        user_matrix=user if spec["init"] == "user" else None)
    with warnings.catch_warnings():
        # overflow and underflow warnings are expected at extreme scales
        warnings.simplefilter("ignore", RuntimeWarning)
        for fit in (egd.fit_scatter, egd.fit_kent_tyler):
            try:
                report = fit(egd.Dataset(x), spec["a"], spec["b"], config)
            except ValueError:
                continue
            check_report(report, spec["max_iter"], config.tol)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            eio.write_matrix_csv(root / "x.csv", x)
            init = spec["init"]
            if init == "user":
                init = root / "init.csv"
                eio.write_matrix_csv(init, user)
            algo = "kent-tyler" if spec["seed"] % 2 else "fp"
            code = run_cli(["fit", "--data", root / "x.csv",
                            "--a", repr(spec["a"]), "--b", repr(spec["b"]),
                            "--init", init, "--algo", algo,
                            "--alpha-rule", spec["alpha_rule"],
                            "--tol", 1e-8, "--max-iter", spec["max_iter"],
                            "--out", root / "m.json"])
    assert code in EXIT_CODES


@st.composite
def mixture_specs(draw):
    q = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    return {
        "q": q,
        "k": k,
        "n": draw(st.integers(k * q, 25)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        # spread of the per-sample log scale: one radial law up to many
        "spread": draw(st.floats(0.0, 3.0)),
        "init": draw(st.sampled_from(["random-assignment",
                                      "kmeans-on-radii"])),
        "rounds": draw(st.integers(1, 40)),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mixture_specs())
def test_mixture_fits_report_or_raise_value_error(spec):
    rng = np.random.default_rng(spec["seed"])
    n, q, k = spec["n"], spec["q"], spec["k"]
    x = (rng.standard_normal((n, q))
         * np.exp(spec["spread"] * rng.standard_normal((n, 1))))
    # about 30% zero weights, all of them now and then
    w = rng.random(n) * (rng.random(n) >= 0.3)
    config = egd.EmConfig(n_components=k, outer_rounds=spec["rounds"],
                          seed=spec["seed"], init=spec["init"])
    with warnings.catch_warnings():
        # frozen and removed components are announced as UserWarnings;
        # a RuntimeWarning from egd stays an error
        warnings.simplefilter("ignore", UserWarning)
        try:
            report = egd.fit_mixture(egd.Dataset(x, w), config)
        except ValueError:
            pass
        else:
            assert np.all(np.isfinite(report.loglik_trace))
            sums = report.responsibilities.matrix.sum(axis=0)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12
            assert report.rounds <= spec["rounds"]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            eio.write_matrix_csv(root / "x.csv", x)
            eio.write_matrix_csv(root / "w.csv", w[:, None])
            code = run_cli(["fit-mixture", "--data", root / "x.csv",
                            "--weights", root / "w.csv", "--k", k,
                            "--init", spec["init"], "--seed", spec["seed"],
                            "--rounds", spec["rounds"],
                            "--out", root / "m.json",
                            "--trace", root / "t.csv"])
    assert code in EXIT_CODES


# (regime, alpha rule): the concave fixed point and both step scalings of
# the nonconcave one
REGIMES = [("concave", "eigen"), ("nonconcave", "eigen"),
           ("nonconcave", "trace")]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(q=st.integers(2, 6), extra=st.integers(5, 60),
       regime=st.sampled_from(REGIMES), shape=st.floats(0.05, 0.95),
       log_b=st.floats(-1.0, 1.0), log_s=st.floats(-50.0, 50.0),
       seed=st.integers(0, 2**32 - 1))
def test_fit_is_scale_equivariant(q, extra, regime, shape, log_b, log_s,
                                  seed):
    kind, rule = regime
    # a below q/2 is the nonconcave regime, above it the concave one
    a = shape * 0.5 * q if kind == "nonconcave" else (0.5 + 4.0 * shape) * q
    b = 10.0 ** log_b
    s = 10.0 ** log_s
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((q + extra, q)) @ rng.standard_normal((q, q))
    config = egd.FixedPointConfig(tol=1e-8, alpha_rule=rule)
    base = egd.fit_scatter(egd.Dataset(x), a, b, config)
    scaled = egd.fit_scatter(egd.Dataset(s * x), a, b, config)
    assert base.converged and scaled.converged
    assert scaled.iterations == base.iterations
    assert rel_frob(scaled.sigma_hat.entries,
                    s * s * base.sigma_hat.entries) <= 1e-8


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(q=st.integers(2, 6), extra=st.integers(5, 60),
       regime=st.sampled_from(REGIMES + [("kent-tyler", None)]),
       shape=st.floats(0.05, 0.95), log_b=st.floats(-1.0, 1.0),
       log2_k=st.integers(-20, 20), seed=st.integers(0, 2**32 - 1))
def test_fit_ignores_common_weight_scale(q, extra, regime, shape, log_b,
                                         log2_k, seed):
    # c and d scale as 1/n_eff, so c w_i and d w_i, and with them every
    # step, are unchanged; a power of two scales the weights exactly
    kind, rule = regime
    a = (0.5 + 4.0 * shape) * q if kind == "concave" else shape * 0.5 * q
    b = 10.0 ** log_b
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((q + extra, q)) @ rng.standard_normal((q, q))
    fit = egd.fit_kent_tyler if kind == "kent-tyler" else egd.fit_scatter
    # Kent-Tyler takes no step scaling, so the rule is not read there
    config = egd.FixedPointConfig(tol=1e-8, alpha_rule=rule or "eigen")
    base = fit(egd.Dataset(x), a, b, config)
    scaled = fit(egd.Dataset(x, np.full(len(x), 2.0 ** log2_k)), a, b, config)
    assert scaled.iterations == base.iterations
    assert scaled.converged == base.converged
    assert np.array_equal(scaled.loglik_trace, base.loglik_trace)
    assert np.array_equal(scaled.sigma_hat.entries, base.sigma_hat.entries)


# Kent-Tyler and the mixture fit on well-conditioned data: at a power of
# two the scaling is exact, elsewhere it rounds
SCALES = [2.0 ** 10, 3.0, 1e-3]


@pytest.mark.parametrize("s", SCALES)
def test_kent_tyler_is_scale_equivariant(s):
    data, _ = make_egd_data(5, 0.9, 2.0, 800, seed=3)
    config = egd.FixedPointConfig(tol=1e-12)
    base = egd.fit_kent_tyler(data, 0.9, 2.0, config)
    scaled = egd.fit_kent_tyler(egd.Dataset(s * data.samples), 0.9, 2.0,
                                config)
    assert base.converged and scaled.converged
    assert scaled.iterations == base.iterations
    assert rel_frob(scaled.sigma_hat.entries,
                    s * s * base.sigma_hat.entries) <= 1e-10


@pytest.fixture(scope="module")
def mixture_fit():
    comps = [egd.EgdParams(egd.ScatterMatrix(np.diag([4.0, 1.0, 0.25])),
                           0.8, 2.0),
             egd.EgdParams(egd.ScatterMatrix(20.0 * np.array(
                 [[1.0, 0.5, 0.0], [0.5, 2.0, 0.3], [0.0, 0.3, 3.0]])),
                 2.5, 1.0)]
    data = egd.sample_mixture(egd.MixtureModel(comps, [0.4, 0.6]), 3000,
                              seed=7)
    return data, egd.fit_mixture(data, egd.EmConfig(n_components=2))


@pytest.mark.parametrize("s", SCALES)
def test_mixture_fit_is_scale_equivariant(mixture_fit, s):
    # the scatters scale by s^2, shapes, scales and weights stay, and the
    # average log-likelihood moves by -q log s
    data, base = mixture_fit
    scaled = egd.fit_mixture(egd.Dataset(s * data.samples),
                             egd.EmConfig(n_components=2))
    assert base.converged and scaled.converged
    assert scaled.rounds == base.rounds
    for mine, theirs in zip(scaled.model.components, base.model.components):
        assert rel_frob(mine.scatter.entries,
                        s * s * theirs.scatter.entries) <= 1e-10
        assert mine.shape_a == pytest.approx(theirs.shape_a, rel=1e-8)
        assert mine.scale_b == pytest.approx(theirs.scale_b, rel=1e-8)
    assert np.allclose(scaled.model.mix_probs, base.model.mix_probs,
                       rtol=0.0, atol=1e-10)
    assert scaled.loglik_trace[-1] == pytest.approx(
        base.loglik_trace[-1] - 3.0 * np.log(s), abs=1e-8)


def thompson(s, t):
    """Thompson distance: the largest ``|log lambda|`` of the pencil (s, t)."""
    return float(np.abs(np.log(reduced_eigvalsh(s.entries,
                                                t._chol_inv))).max())


def one_step(data, a, b, start):
    """One step of the concave fit (a >= q/2) or Kent-Tyler (a < q/2)."""
    fit = egd.fit_concave if a >= 0.5 * data.dim else egd.fit_kent_tyler
    config = egd.FixedPointConfig(init="user", user_matrix=start, max_iter=1)
    return fit(data, a, b, config).sigma_hat


@st.composite
def step_pairs(draw):
    """Weighted data, a shape and scale, and two distinct starts."""
    q = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = q + draw(st.integers(3, 60))
    x = rng.standard_normal((n, q)) @ rng.standard_normal((q, q))
    w = rng.uniform(0.1, 2.0, n)
    shape = draw(st.floats(0.05, 0.95))
    concave = draw(st.booleans())
    a = (0.5 + 4.0 * shape) * q if concave else shape * 0.5 * q
    b = 10.0 ** draw(st.floats(-1.0, 1.0))
    spread = 10.0 ** draw(st.floats(-2.0, 2.0))
    starts = [spread * random_spd(q, rng) for _ in range(2)]
    return egd.Dataset(x, w), a, b, starts


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(step_pairs())
def test_one_step_contracts_in_thompson_metric(spec):
    # the concave map and the Kent-Tyler map shrink the Thompson distance
    # between any two starts, the fixed point's uniqueness argument
    data, a, b, starts = spec
    s1, s2 = (egd.ScatterMatrix(s) for s in starts)
    f1, f2 = (one_step(data, a, b, s) for s in starts)
    assert thompson(f1, f2) < thompson(s1, s2)


@pytest.mark.parametrize("a", [3.0, 0.4], ids=["concave", "kent-tyler"])
def test_squaring_step_fails_contraction(monkeypatch, a):
    # a step that squares its start in B's coordinates, S B^{-1} S, at
    # least doubles every Thompson distance, so the property above fails
    def squared(problem, sigma, cand, rule=None):
        half = problem.b_scatter._chol_inv @ sigma.entries
        nxt = egd.ScatterMatrix(half.T @ half)
        return nxt, egd.scatter._radii(nxt, problem.x), None, None

    candidate, _, row = egd.scatter._CONCAVE
    monkeypatch.setattr(egd.scatter, "_CONCAVE", (candidate, squared, row))
    monkeypatch.setattr(egd.scatter, "_scaled_step", squared)
    rng = np.random.default_rng(0)
    data = egd.Dataset(rng.standard_normal((40, 3)))
    starts = [random_spd(3, rng) for _ in range(2)]
    s1, s2 = (egd.ScatterMatrix(s) for s in starts)
    f1, f2 = (one_step(data, a, 2.0, s) for s in starts)
    assert thompson(f1, f2) >= 2.0 * thompson(s1, s2) * (1.0 - 1e-12)


def _identity_model(q=2):
    comp = egd.EgdParams(egd.ScatterMatrix(np.eye(q)), 1.0, 2.0)
    return egd.MixtureModel([comp], np.ones(1))


def _data(q=2, n=10):
    return egd.Dataset(np.random.default_rng(0).standard_normal((n, q)))


def _written(path, text):
    path.write_text(text)
    return path


def _responsibilities(n):
    return egd.Responsibilities(np.ones((1, n)))


# (id, call on a temporary directory, message): each call breaks one
# documented argument check
ARGUMENT_ERRORS = [
    ("fixed-point-alpha-rule",
     lambda tmp: egd.FixedPointConfig(alpha_rule="newton"),
     "alpha_rule must be one of"),
    ("fixed-point-max-iter", lambda tmp: egd.FixedPointConfig(max_iter=0),
     "max_iter must be at least 1"),
    ("em-outer-rounds",
     lambda tmp: egd.EmConfig(n_components=1, outer_rounds=0),
     "outer_rounds must be at least 1"),
    ("em-tol", lambda tmp: egd.EmConfig(n_components=1, tol=float("nan")),
     "tol must be positive"),
    ("scatter-not-square", lambda tmp: egd.ScatterMatrix(np.ones((2, 3))),
     "scatter matrix must be square"),
    ("scatter-not-finite",
     lambda tmp: egd.ScatterMatrix([[1.0, 0.0], [0.0, np.inf]]),
     "scatter matrix entries must be finite"),
    ("params-shape",
     lambda tmp: egd.EgdParams(egd.ScatterMatrix(np.eye(2)), 0.0, 2.0),
     "shape_a must be positive"),
    ("dataset-ndim", lambda tmp: egd.Dataset(np.ones(3)),
     "samples must be a nonempty 2-D array"),
    ("dataset-weights-shape",
     lambda tmp: egd.Dataset(np.ones((3, 2)), np.ones(2)),
     "weights must be a vector with one entry per sample"),
    ("mixture-empty", lambda tmp: egd.MixtureModel([], []),
     "mixture needs at least one component"),
    ("mixture-probs-shape",
     lambda tmp: egd.MixtureModel(_identity_model().components, [0.5, 0.5]),
     "one mixing probability per component required"),
    ("mixture-probs-sign",
     lambda tmp: egd.MixtureModel(
         2 * _identity_model().components, [1.5, -0.5]),
     "mixing probabilities must be nonnegative"),
    ("radius-vector-dim",
     lambda tmp: egd.squared_radius(egd.ScatterMatrix(np.eye(2)),
                                    np.ones(3)),
     "x has wrong dimension"),
    ("radius-array-shape",
     lambda tmp: egd.squared_radius(egd.ScatterMatrix(np.eye(2)),
                                    np.ones((4, 3))),
     "x must be a vector or an"),
    ("gamma-density-shape", lambda tmp: egd.gamma_log_density(1.0, 0.0, 1.0),
     "shape and scale must be positive"),
    ("log-likelihood-dim",
     lambda tmp: egd.log_likelihood(_identity_model(3).components[0],
                                    _data()),
     "data dimension does not match parameters"),
    ("sample-n", lambda tmp: egd.sample(_identity_model().components[0],
                                        0, seed=0),
     "n must be at least 1"),
    ("sample-mixture-n",
     lambda tmp: egd.sample_mixture(_identity_model(), 0, seed=0),
     "n must be at least 1"),
    ("gsm-num-mc",
     lambda tmp: egd.gsm_density_mc(egd.ScatterMatrix(np.eye(3)), 0.5,
                                    np.ones(3), 0, seed=0),
     "num_mc must be at least 1"),
    ("weighted-sample-empty", lambda tmp: egd.WeightedSample(np.ones(0)),
     "values must be a nonempty vector"),
    ("gamma-fit-max-iter",
     lambda tmp: egd.fit_gamma_weighted(egd.WeightedSample([1.0, 2.0]),
                                        max_iter=0),
     "max_iter must be at least 1"),
    ("responsibilities-shape",
     lambda tmp: egd.Responsibilities(np.ones(3)),
     "responsibilities must be a"),
    ("m-step-scatter-shape",
     lambda tmp: egd.m_step_scatter(_data(), _responsibilities(9),
                                    _identity_model()),
     "responsibilities shape does not match"),
    ("m-step-shape-shape",
     lambda tmp: egd.m_step_shape(_data(), _responsibilities(9),
                                  _identity_model()),
     "responsibilities shape does not match"),
    ("user-model-dim",
     lambda tmp: egd.fit_mixture(_data(3), egd.EmConfig(
         n_components=1, init="user-model", user_model=_identity_model())),
     "user model dimension does not match data"),
    ("preprocess-noise",
     lambda tmp: egd.preprocess_patches(_data(), noise_fraction=-1.0),
     "noise_fraction must be nonnegative"),
    ("constants", lambda tmp: egd.compute_constants(1.0, 2.0, 0, 10.0),
     "q at least 1"),
    ("residual-dim",
     lambda tmp: egd.stationarity_residual(egd.ScatterMatrix(np.eye(3)),
                                           _data(), -0.1, 0.1),
     "sigma dimension does not match data"),
    ("user-matrix-shape",
     lambda tmp: egd.fit_scatter(_data(), 1.5, 2.0, egd.FixedPointConfig(
         init="user", user_matrix=np.eye(3))),
     "user_matrix has wrong shape"),
    ("report-trace-length",
     lambda tmp: egd.FitReport(egd.ScatterMatrix(np.eye(2)), 2, True, 0.0,
                               np.zeros(2), np.zeros(1), np.zeros(2)),
     "trace lengths must equal iterations"),
    ("concave-c-positive", lambda tmp: egd.fit_concave(_data(), 0.5, 2.0),
     "concave iteration requires a >= dim/2"),
    ("nonconcave-c-negative",
     lambda tmp: egd.fit_nonconcave(_data(), 1.5, 2.0),
     "nonconcave iteration requires a <= dim/2"),
    ("io-matrix-1d",
     lambda tmp: eio.write_matrix_csv(tmp / "m.csv", np.ones(3)),
     "expected a two-dimensional matrix"),
    ("io-model-json",
     lambda tmp: eio.read_model(_written(tmp / "m.json", "{")),
     "not valid JSON"),
    ("io-trace-row",
     lambda tmp: eio.read_trace(_written(
         tmp / "t.csv", ",".join(eio.TRACE_COLUMNS) + "\n0,1.0\n")),
     "trace row has wrong field count"),
]


@pytest.mark.parametrize("call, message",
                         [case[1:] for case in ARGUMENT_ERRORS],
                         ids=[case[0] for case in ARGUMENT_ERRORS])
def test_argument_checks_raise_value_error(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)

"""Property-based checks of the error contract of the scatter fits.

A library fit either raises a ``ValueError`` subclass or returns a report
whose trace length is its iteration count and whose stop is explained:
converged, near-singular, or the iteration cap.  ``egd fit`` on the same
inputs exits with one of the documented codes and never with a traceback.
The fits are also scale equivariant: scaling the samples by ``s`` scales
the fitted scatter by ``s**2`` and leaves the iteration count unchanged,
and scaling every weight by the same power of two changes no bit of the
report.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import egd
from egd import io as eio
from egd.cli import main
from helpers import rel_frob

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


def check_report(report, max_iter):
    assert len(report.loglik_trace) == report.iterations
    assert (report.converged or report.near_singular
            or report.iterations == max_iter)


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
            check_report(report, spec["max_iter"])
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

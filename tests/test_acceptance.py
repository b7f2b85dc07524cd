"""Shipped-guarantee checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Each test prints its line before asserting, so the verdicts
appear even when a criterion fails.
"""

import contextlib
import io
import time

import numpy as np
import pytest
import scipy.stats

import egd
from egd import io as eio
from egd.cli import main as cli_main
from helpers import (align_scatters, golden_gamma_shape, make_egd_data,
                     random_spd, rel_frob, tyler_reference)


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num}: {detail or desc}"


@pytest.fixture(scope="module")
def grid_fits():
    """Converged fits over the (dim, shape) grid at n=10000, tight tol."""
    fits = []
    start = time.perf_counter()
    for q in (2, 8, 16):
        for a in (q / 8.0, q / 2.0 + 5.0, 50.0):
            data, _ = make_egd_data(q, a, 2.0, 10000, seed=500 + q * 10
                                    + int(a))
            rep = egd.fit_scatter(
                data, a, 2.0, egd.FixedPointConfig(tol=1e-12, max_iter=3000))
            fits.append({"q": q, "a": a, "data": data, "report": rep})
    elapsed = time.perf_counter() - start
    return fits, elapsed


@pytest.fixture(scope="module")
def nonconcave_runs():
    """Twenty random low-shape instances fit by both algorithms."""
    runs = []
    for i in range(20):
        sigma = random_spd(8, np.random.default_rng(100 + i))
        data, _ = make_egd_data(8, 1.0, 2.0, 1000, seed=200 + i, sigma=sigma)
        fp = egd.fit_scatter(
            data, 1.0, 2.0, egd.FixedPointConfig(tol=1e-12, max_iter=2000))
        kt = egd.fit_kent_tyler(
            data, 1.0, 2.0, egd.FixedPointConfig(tol=1e-12, max_iter=20000))
        runs.append((fp, kt))
    return runs


def test_01_gaussian_special_case():
    start = time.perf_counter()
    worst = 0.0
    for q in (2, 8, 16):
        a = 0.5 * q
        data, _ = make_egd_data(q, a, 2.0, 1000, seed=40 + q)
        x = data.samples
        second = x.T @ x / x.shape[0]
        cfg = egd.FixedPointConfig(tol=1e-12)
        concave = egd.fit_scatter(data, a, 2.0, cfg)
        general = egd.fit_nonconcave(data, a, 2.0, cfg)
        worst = max(worst,
                    rel_frob(concave.sigma_hat.entries, second),
                    rel_frob(general.sigma_hat.entries, second))
    elapsed = time.perf_counter() - start
    report(1, "Gaussian special case returns the sample second moment "
           "on both fit paths",
           worst <= 1e-8 and elapsed < 1.0,
           f"worst rel error {worst:.2e}, elapsed {elapsed:.2f}s")


def test_02_stationarity_grid(grid_fits):
    fits, elapsed = grid_fits
    start = time.perf_counter()
    failures = []
    for fit in fits:
        q, a, data, rep = fit["q"], fit["a"], fit["data"], fit["report"]
        if not rep.converged:
            failures.append(f"(q={q}, a={a}) did not converge")
            continue
        c, d = egd.compute_constants(a, 2.0, q, float(data.n))
        res = egd.stationarity_residual(rep.sigma_hat, data, c, d)
        if res > 1e-5 * np.sqrt(q):
            failures.append(f"(q={q}, a={a}) residual {res:.2e}")
        if q > 3:
            continue
        # finite-difference check of the likelihood gradient at the optimum
        sigma = rep.sigma_hat.entries
        h = 1e-5 * float(np.mean(np.diag(sigma)))
        grad_max = 0.0
        for i in range(q):
            for j in range(i, q):
                step = np.zeros((q, q))
                step[i, j] = step[j, i] = h
                plus = egd.log_likelihood(
                    egd.EgdParams(egd.ScatterMatrix(sigma + step), a, 2.0),
                    data)
                minus = egd.log_likelihood(
                    egd.EgdParams(egd.ScatterMatrix(sigma - step), a, 2.0),
                    data)
                grad_max = max(grad_max, abs(plus - minus) / (2.0 * h))
        if grad_max > 1e-4 * data.n:
            failures.append(f"(q={q}, a={a}) gradient {grad_max:.2e}")
    elapsed += time.perf_counter() - start
    report(2, "converged fits satisfy the stationarity condition "
           "(plus gradient check in low dimension)",
           not failures and elapsed < 30.0,
           "; ".join(failures) or f"elapsed {elapsed:.1f}s")


def test_03_cross_algorithm_agreement(nonconcave_runs):
    worst_ll = 0.0
    worst_sigma = 0.0
    for fp, kt in nonconcave_runs:
        assert fp.converged and kt.converged
        worst_ll = max(worst_ll,
                       abs(fp.loglik_trace[-1] - kt.loglik_trace[-1]))
        worst_sigma = max(worst_sigma, rel_frob(fp.sigma_hat.entries,
                                                kt.sigma_hat.entries))
    report(3, "fixed point and Kent-Tyler reach the same optimum on 20 "
           "low-shape instances",
           worst_ll <= 1e-5 and worst_sigma <= 1e-4,
           f"avg loglik gap {worst_ll:.2e}, scatter gap {worst_sigma:.2e}")


def test_04_step_scaling_dynamics(nonconcave_runs):
    failures = []
    for idx, (fp, _) in enumerate(nonconcave_runs):
        alpha_gap = abs(fp.alpha_trace[-1] - 1.0)
        if alpha_gap > 1e-6:
            failures.append(f"run {idx}: final alpha off by {alpha_gap:.2e}")
        hi, lo = fp.lambda_max_trace, fp.lambda_min_trace
        held = (hi >= 1.0 - 1e-12) & (lo <= 1.0 + 1e-12)
        first = int(np.argmax(held))
        if not held[first]:
            failures.append(f"run {idx}: extremes never bracket one")
            continue
        if np.any(np.diff(hi[first:]) > 1e-10):
            failures.append(f"run {idx}: lambda_max not nonincreasing")
        if np.any(np.diff(lo[first:]) < -1e-10):
            failures.append(f"run {idx}: lambda_min not nondecreasing")
    report(4, "map eigenvalue traces are monotone once they bracket one "
           "and the step scaling converges to 1",
           not failures, "; ".join(failures))


def test_05_concave_eigenvalue_box(grid_fits):
    fits, _ = grid_fits
    failures = []
    checked = 0
    for fit in fits:
        q, a, data, rep = fit["q"], fit["a"], fit["data"], fit["report"]
        if a < 0.5 * q:
            continue
        checked += 1
        c, _ = egd.compute_constants(a, 2.0, q, float(data.n))
        lower = 1.0 / (1.0 + (-c) * data.n)
        if not (np.all(rep.iterate_eig_min_trace >= lower - 1e-10)
                and np.all(rep.iterate_eig_max_trace <= 1.0 + 1e-10)):
            failures.append(f"(q={q}, a={a}) left the box")
    report(5, "concave-regime iterates keep all eigenvalues inside the "
           "contraction box",
           checked == 6 and not failures, "; ".join(failures))


def test_06_unique_fixed_point():
    data, _ = make_egd_data(8, 1.0, 2.0, 5000, seed=600)
    rng = np.random.default_rng(601)
    estimates = []
    for _ in range(10):
        cfg = egd.FixedPointConfig(init="user", user_matrix=random_spd(8, rng),
                                   tol=1e-12, max_iter=3000)
        rep = egd.fit_scatter(data, 1.0, 2.0, cfg)
        assert rep.converged
        estimates.append(rep.sigma_hat.entries)
    worst = max(rel_frob(x, y)
                for i, x in enumerate(estimates)
                for y in estimates[:i])
    report(6, "ten random initializations agree pairwise on a low-shape "
           "instance",
           worst <= 1e-5, f"worst pairwise gap {worst:.2e}")


def test_07_sampler_moments_and_radii():
    q, a, b = 4, 1.0, 4.0
    sigma = random_spd(q, np.random.default_rng(71))
    scatter = egd.ScatterMatrix(sigma)
    data = egd.sample(egd.EgdParams(scatter, a, b), 10**6, seed=72)
    x = data.samples
    second = x.T @ x / x.shape[0]
    moment_err = rel_frob(second, (a * b / q) * sigma)
    radii = egd.squared_radius(scatter, x)
    pvalue = scipy.stats.kstest(radii, "gamma", args=(a, 0.0, b)).pvalue
    report(7, "sampler reproduces the second moment and the radial "
           "gamma law at n=1e6",
           moment_err <= 0.02 and pvalue >= 0.01,
           f"moment error {moment_err:.3f}, KS p-value {pvalue:.4f}")


def test_08_scale_mixture_density():
    worst = 0.0
    for q, a, seed in ((2, 0.5, 81), (4, 1.0, 82)):
        rng = np.random.default_rng(seed)
        sigma = random_spd(q, rng)
        scatter = egd.ScatterMatrix(sigma)
        points = rng.standard_normal((5, q)) @ np.linalg.cholesky(sigma).T
        for k, x in enumerate(points):
            closed = np.exp(egd.log_density(egd.EgdParams(scatter, a, 2.0), x))
            mc = egd.gsm_density_mc(scatter, a, x, 10**6,
                                    seed=1000 * seed + k)
            worst = max(worst, abs(mc - closed) / closed)
    report(8, "Monte Carlo scale-mixture density matches the closed form "
           "within 1%",
           worst <= 0.01, f"worst relative error {worst:.4f}")


def test_09_gamma_shape_oracle():
    worst_gap = 0.0
    worst_iters = 0
    for i in range(50):
        rng = np.random.default_rng(900 + i)
        n = int(rng.integers(50, 2000))
        shape = 10.0 ** rng.uniform(-1.0, 1.5)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        values = rng.gamma(shape, scale, n)
        weights = rng.uniform(0.1, 2.0, n)
        fit = egd.fit_gamma_weighted(egd.WeightedSample(values, weights))
        assert fit.converged
        oracle = golden_gamma_shape(values, weights)
        worst_gap = max(worst_gap, abs(fit.shape_a - oracle))
        worst_iters = max(worst_iters, fit.iterations)
    # documented single step of the inverse-shape update from a=1, gap=0.3
    a = 1.0
    gap = 0.3
    numer = -gap + np.log(a) - egd.digamma(a)
    denom = a * a * (1.0 / a - egd.trigamma(a))
    a_new = 1.0 / (1.0 / a + numer / denom)
    step_ok = abs(a_new - 1.7539) <= 1e-3
    report(9, "gamma shape fit matches the profile-likelihood oracle and "
           "the documented update step",
           worst_gap <= 1e-4 and worst_iters <= 50 and step_ok,
           f"worst |da| {worst_gap:.2e}, max iterations {worst_iters}, "
           f"one-step value {a_new:.5f}")


def test_10_mixture_recovery():
    start = time.perf_counter()
    q = 8
    rng = np.random.default_rng(110)
    true_a = (2.0, 14.0)
    sigmas = (random_spd(q, rng), 25.0 * random_spd(q, rng))
    comps = [egd.EgdParams(egd.ScatterMatrix(s), a, q / a)
             for s, a in zip(sigmas, true_a)]
    truth = egd.MixtureModel(comps, np.array([0.5, 0.5]))
    data = egd.sample_mixture(truth, 50000, seed=111)
    config = egd.EmConfig(n_components=2, init="kmeans-on-radii",
                          outer_rounds=100, tol=1e-6, seed=0)
    result = egd.fit_mixture(data, config)
    elapsed = time.perf_counter() - start
    monotone = bool(np.all(np.diff(result.loglik_trace) >= -1e-9))
    # with b = dim/a the true scatter is the covariance; canonicalize the
    # fitted components the same way before comparing
    fitted_cov = [c.shape_a * c.scale_b / q * c.scatter.entries
                  for c in result.model.components]
    order = align_scatters(fitted_cov, sigmas)
    sigma_errs = [rel_frob(fitted_cov[order[k]], sigmas[k]) for k in range(2)]
    a_errs = [abs(result.model.components[order[k]].shape_a - true_a[k])
              / true_a[k] for k in range(2)]
    report(10, "EM trace is monotone and a two-component synthetic mixture "
           "is recovered",
           monotone and max(sigma_errs) <= 0.05 and max(a_errs) <= 0.10
           and elapsed < 120.0,
           f"monotone={monotone}, scatter errors {np.round(sigma_errs, 4)}, "
           f"shape errors {np.round(a_errs, 4)}, elapsed {elapsed:.0f}s")


def test_11_iteration_count_comparison():
    q, n, trials = 16, 1000, 50
    shapes = (2.0, 1.6, 1.2, 0.8, 0.4)
    means = {}
    for ai, a in enumerate(shapes):
        fp_iters = []
        kt_iters = []
        for trial in range(trials):
            sigma = random_spd(q, np.random.default_rng(3000 + 100 * ai
                                                        + trial))
            data, _ = make_egd_data(q, a, 2.0, n, seed=7000 + 100 * ai + trial,
                                    sigma=sigma)
            cfg = egd.FixedPointConfig(init="sample-cov", tol=1e-9,
                                       max_iter=20000)
            fp = egd.fit_scatter(data, a, 2.0, cfg)
            kt = egd.fit_kent_tyler(data, a, 2.0, cfg)
            assert fp.converged and kt.converged
            fp_iters.append(fp.iterations)
            kt_iters.append(kt.iterations)
        means[a] = (float(np.mean(fp_iters)), float(np.mean(kt_iters)))
    ok = all(fp <= kt for fp, kt in means.values())
    detail = ", ".join(f"a={a}: {fp:.1f} vs {kt:.1f}"
                       for a, (fp, kt) in means.items())
    report(11, "mean fixed-point iteration count never exceeds Kent-Tyler "
           "across the shape sweep",
           ok, detail)


def test_12_tiny_shape_tyler_limit():
    q = 8
    a = q / 200.0
    data, _ = make_egd_data(q, a, q / a, 3000, seed=120)
    rep = egd.fit_scatter(
        data, a, q / a,
        egd.FixedPointConfig(tol=1e-12, max_iter=5000, alpha_rule="trace"))
    assert rep.converged
    ours = rep.sigma_hat.entries
    ours = ours * (q / np.trace(ours))
    ref = tyler_reference(data.samples, tol=1e-10)
    gap = rel_frob(ours, ref)
    report(12, "trace-normalized fixed point at near-zero shape matches "
           "the distribution-free scatter estimate",
           gap <= 1e-2, f"normalized gap {gap:.2e}")


def _strip_column(path, names):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in names]
    return [tuple(line.split(",")[i] for i in keep) for line in lines]


def _seeded_command_outputs(root):
    root.mkdir()
    raw = np.random.default_rng(131).uniform(1.0, 255.0, (200, 4))
    eio.write_matrix_csv(root / "raw.csv", raw)
    argv_sets = [
        ("sample", "--dim", "3", "--a", "0.9", "--b", "2.0", "--n", "500",
         "--seed", "13", "--out", str(root / "data.csv")),
        ("fit", "--data", str(root / "data.csv"), "--a", "0.9", "--b", "2.0",
         "--tol", "1e-10", "--out", str(root / "model.json"),
         "--trace", str(root / "fit_trace.csv")),
        ("fit-mixture", "--data", str(root / "data.csv"), "--k", "1",
         "--seed", "3", "--tol", "1e-8",
         "--out", str(root / "mix.json"),
         "--trace", str(root / "mix_trace.csv")),
        ("eval", "--data", str(root / "data.csv"),
         "--model", str(root / "model.json"), "--mi-rate", "--splits", "2"),
        ("bench", "--dim", "3", "--a", "0.9", "--b", "2.0", "--n", "150",
         "--trials", "2", "--seed", "17", "--tol", "1e-8",
         "--out-dir", str(root / "bench")),
        ("preprocess", "--data", str(root / "raw.csv"),
         "--seed", "7", "--out", str(root / "log.csv")),
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in argv_sets:
            assert cli_main(list(argv)) == 0
    timing = {"elapsed_ms", "mean_elapsed_ms"}
    outputs = {"stdout": stdout.getvalue()}
    for path in sorted(root.rglob("*")):
        if path.is_dir() or path.name == "raw.csv":
            continue
        key = str(path.relative_to(root))
        if path.suffix == ".csv" and ("trace" in path.name
                                      or path.parent.name == "bench"):
            outputs[key] = _strip_column(path, timing)
        else:
            outputs[key] = path.read_bytes()
    return outputs


def test_13_round_trips_and_reproducibility(tmp_path):
    rng = np.random.default_rng(130)
    m = rng.standard_normal((20, 4))
    eio.write_matrix_binary(tmp_path / "m.bin", m)
    eio.write_matrix_csv(tmp_path / "m.csv", m)
    lossless = (eio.read_matrix(tmp_path / "m.bin").tobytes() == m.tobytes()
                and np.array_equal(eio.read_matrix(tmp_path / "m.csv"), m))
    model = egd.MixtureModel(
        [egd.EgdParams(egd.ScatterMatrix(random_spd(3, rng)), 1.3, 0.7)],
        np.ones(1))
    eio.write_model(tmp_path / "model.json", model, {"note": "round trip"})
    back, _ = eio.read_model(tmp_path / "model.json")
    lossless = lossless and np.array_equal(
        back.components[0].scatter.entries,
        model.components[0].scatter.entries)

    first = _seeded_command_outputs(tmp_path / "run1")
    second = _seeded_command_outputs(tmp_path / "run2")
    mismatched = sorted(k for k in first if first[k] != second.get(k))
    report(13, "model and matrix files round-trip losslessly and seeded "
           "commands are byte-reproducible",
           lossless and first.keys() == second.keys() and not mismatched,
           f"lossless={lossless}, mismatched={mismatched}")

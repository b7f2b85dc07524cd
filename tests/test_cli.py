"""End-to-end command-line coverage, run in-process."""

import csv
import json
import os
import time

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose

import egd
from egd import io as eio
from egd.cli import main
from helpers import rel_frob


def run_cli(*argv):
    return main([str(a) for a in argv])


def strip_timing(path, drop):
    """Rows of a csv with the named columns removed, for comparing reruns."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in drop]
    return [tuple(line.split(",")[i] for i in keep) for line in lines]


def reject_constant(name):
    """``parse_constant`` hook: strict JSON has no NaN or Infinity."""
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared sampled dataset plus a converged fit of it."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    model = root / "model.json"
    assert run_cli("sample", "--dim", 3, "--a", 1.5, "--b", 2.0,
                   "--n", 4000, "--seed", 7, "--out", data) == 0
    assert run_cli("fit", "--data", data, "--a", 1.5, "--b", 2.0,
                   "--tol", 1e-12, "--out", model) == 0
    return {"root": root, "data": data, "model": model}


class TestSample:
    def test_writes_requested_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("sample", "--dim", 2, "--a", 1.0, "--b", 2.0,
                       "--n", 50, "--out", out) == 0
        assert eio.read_matrix(out).shape == (50, 2)

    def test_seed_reproducible(self, tmp_path):
        args = ("sample", "--dim", 2, "--a", 1.0, "--b", 2.0,
                "--n", 40, "--seed", 3)
        run_cli(*args, "--out", tmp_path / "a.csv")
        run_cli(*args, "--out", tmp_path / "b.csv")
        run_cli(*args, "--seed", 4, "--out", tmp_path / "c.csv")
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a != (tmp_path / "c.csv").read_bytes()

    def test_binary_format_matches_csv(self, tmp_path):
        args = ("sample", "--dim", 3, "--a", 2.0, "--b", 1.0,
                "--n", 30, "--seed", 5)
        run_cli(*args, "--out", tmp_path / "s.csv")
        run_cli(*args, "--out", tmp_path / "s.bin", "--format", "binary")
        assert np.array_equal(eio.read_matrix(tmp_path / "s.csv"),
                              eio.read_matrix(tmp_path / "s.bin"))

    def test_scatter_file_shapes_output(self, tmp_path):
        scatter = tmp_path / "sigma.csv"
        eio.write_matrix_csv(scatter, np.diag([100.0, 1.0]))
        out = tmp_path / "s.csv"
        run_cli("sample", "--dim", 2, "--a", 1.0, "--b", 2.0, "--n", 5000,
                "--seed", 1, "--scatter", scatter, "--out", out)
        m = eio.read_matrix(out)
        assert np.var(m[:, 0]) > 10 * np.var(m[:, 1])

    def test_model_source(self, work, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("sample", "--model", work["model"], "--n", 20,
                       "--out", out) == 0
        assert eio.read_matrix(out).shape == (20, 3)

    def test_model_conflicts_with_direct_params(self, work, tmp_path):
        with pytest.raises(SystemExit) as ex:
            run_cli("sample", "--model", work["model"], "--dim", 3,
                    "--n", 5, "--out", tmp_path / "s.csv")
        assert ex.value.code == 2

    def test_incomplete_direct_params(self, tmp_path):
        with pytest.raises(SystemExit) as ex:
            run_cli("sample", "--dim", 3, "--n", 5,
                    "--out", tmp_path / "s.csv")
        assert ex.value.code == 2

    def test_zero_n_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as ex:
            run_cli("sample", "--dim", 2, "--a", 1.0, "--b", 2.0,
                    "--n", 0, "--out", tmp_path / "s.csv")
        assert ex.value.code == 2


class TestFit:
    def test_gaussian_matches_second_moment(self, work):
        model, info = eio.read_model(work["model"])
        m = eio.read_matrix(work["data"])
        second = m.T @ m / m.shape[0]
        assert rel_frob(model.components[0].scatter.entries, second) < 1e-8
        assert info["converged"] is True
        assert info["algo"] == "fp"

    def test_algorithms_agree(self, work, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("sample", "--dim", 4, "--a", 1.0, "--b", 1.0,
                "--n", 3000, "--seed", 11, "--out", data)
        paths = {}
        for algo in ("fp", "kent-tyler"):
            paths[algo] = tmp_path / f"{algo}.json"
            assert run_cli("fit", "--data", data, "--a", 1.0, "--b", 1.0,
                           "--algo", algo, "--tol", 1e-11,
                           "--max-iter", 5000, "--out", paths[algo]) == 0
        got = {k: eio.read_model(p)[0].components[0].scatter.entries
               for k, p in paths.items()}
        assert rel_frob(got["fp"], got["kent-tyler"]) < 1e-4

    def test_trace_monotone_and_indexed(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("sample", "--dim", 3, "--a", 0.7, "--b", 2.0,
                "--n", 1500, "--seed", 13, "--out", data)
        trace = tmp_path / "trace.csv"
        assert run_cli("fit", "--data", data, "--a", 0.7, "--b", 2.0,
                       "--tol", 1e-10, "--out", tmp_path / "m.json",
                       "--trace", trace) == 0
        rows = eio.read_trace(trace)
        lls = [r["avg_loglik"] for r in rows]
        assert [r["iter"] for r in rows] == list(range(len(rows)))
        assert np.all(np.diff(lls) > -1e-12)
        assert rows[-1]["residual"] is not None
        assert all(r["alpha"] is not None for r in rows)

    def test_nonconvergence_exit_still_writes_model(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run_cli("sample", "--dim", 3, "--a", 0.7, "--b", 2.0,
                "--n", 400, "--seed", 17, "--out", data)
        out = tmp_path / "m.json"
        code = run_cli("fit", "--data", data, "--a", 0.7, "--b", 2.0,
                       "--tol", 1e-15, "--max-iter", 2, "--out", out)
        assert code == 3
        assert "did not converge" in capsys.readouterr().err
        model, info = eio.read_model(out)
        assert info["converged"] is False
        assert info["iterations"] == 2
        assert model.dim == 3

    @pytest.mark.parametrize("start", ["diagonal", "rotated"])
    def test_zero_iteration_near_singular_stop(self, tmp_path, capsys, start):
        # a start this close to singular is flagged before the first step;
        # the rotated one's pencil with B rounds to a negative eigenvalue
        if start == "diagonal":
            x = np.random.default_rng(29).standard_normal((200, 2))
            sigma0 = np.diag([1.0, 1e-15])
        else:
            rng = np.random.default_rng(0)
            x = rng.standard_normal((200, 4))
            v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            sigma0 = v @ np.diag([1.0, 1.0, 1.0, 1e-16]) @ v.T
            sigma0 = 0.5 * (sigma0 + sigma0.T)
        report = egd.fit_scatter(
            egd.Dataset(x), 3.0, 2.0,
            egd.FixedPointConfig(init="user", user_matrix=sigma0))
        assert report.near_singular and not report.converged
        assert report.iterations == 0
        assert np.array_equal(report.sigma_hat.entries, sigma0)
        data = tmp_path / "d.csv"
        init = tmp_path / "init.csv"
        eio.write_matrix_csv(data, x)
        eio.write_matrix_csv(init, sigma0)
        out = tmp_path / "m.json"
        trace = tmp_path / "trace.csv"
        code = run_cli("fit", "--data", data, "--a", 3, "--b", 2,
                       "--init", init, "--out", out, "--trace", trace)
        assert code == 3
        assert "near-singular" in capsys.readouterr().err
        doc = json.loads(out.read_text(), parse_constant=reject_constant)
        assert doc["fit_info"]["final_avg_loglik"] is None
        assert doc["fit_info"]["final_residual"] is None
        assert doc["fit_info"]["iterations"] == 0
        assert doc["fit_info"]["converged"] is False
        assert eio.read_model(out)[0].dim == x.shape[1]
        assert eio.read_trace(trace) == []

    def test_rank_deficient_data_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        line = np.outer(np.arange(1.0, 9.0), [1.0, 2.0])
        eio.write_matrix_csv(data, line)
        code = run_cli("fit", "--data", data, "--a", 1.0, "--b", 2.0,
                       "--out", tmp_path / "m.json")
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli("fit", "--data", tmp_path / "nope.csv", "--a", 1.0,
                       "--b", 2.0, "--out", tmp_path / "m.json")
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_kent_tyler_needs_small_shape(self, work, tmp_path):
        with pytest.raises(SystemExit) as ex:
            run_cli("fit", "--data", work["data"], "--a", 1.5, "--b", 2.0,
                    "--algo", "kent-tyler", "--out", tmp_path / "m.json")
        assert ex.value.code == 2

    def test_weighted_fit_matches_library(self, tmp_path):
        rng = np.random.default_rng(19)
        samples = rng.standard_normal((300, 2))
        weights = rng.uniform(0.5, 2.0, 300)
        data = tmp_path / "d.csv"
        wfile = tmp_path / "w.csv"
        eio.write_matrix_csv(data, samples)
        eio.write_matrix_csv(wfile, weights[:, None])
        out = tmp_path / "m.json"
        assert run_cli("fit", "--data", data, "--weights", wfile, "--a", 1.0,
                       "--b", 2.0, "--tol", 1e-12, "--out", out) == 0
        report = egd.fit_scatter(
            egd.Dataset(samples, weights), 1.0, 2.0,
            egd.FixedPointConfig(tol=1e-12))
        model, _ = eio.read_model(out)
        assert rel_frob(model.components[0].scatter.entries,
                        report.sigma_hat.entries) < 1e-12

    def test_user_init_file(self, work, tmp_path):
        init = tmp_path / "init.csv"
        eio.write_matrix_csv(init, 3.0 * np.eye(3))
        out = tmp_path / "m.json"
        assert run_cli("fit", "--data", work["data"], "--a", 1.5, "--b", 2.0,
                       "--init", init, "--tol", 1e-12, "--out", out) == 0
        ref, _ = eio.read_model(work["model"])
        model, _ = eio.read_model(out)
        assert rel_frob(model.components[0].scatter.entries,
                        ref.components[0].scatter.entries) < 1e-8


class TestFitMixture:
    def test_two_components_and_trace(self, tmp_path):
        scatter = tmp_path / "sigma.csv"
        eio.write_matrix_csv(scatter, 25.0 * np.eye(2))
        parts = []
        for seed, sfile in ((1, None), (2, scatter)):
            path = tmp_path / f"part{seed}.csv"
            args = ["sample", "--dim", 2, "--a", 1.0, "--b", 2.0,
                    "--n", 600, "--seed", seed, "--out", path]
            if sfile is not None:
                args += ["--scatter", sfile]
            run_cli(*args)
            parts.append(eio.read_matrix(path))
        data = tmp_path / "d.csv"
        eio.write_matrix_csv(data, np.vstack(parts))
        out = tmp_path / "mix.json"
        trace = tmp_path / "trace.csv"
        code = run_cli("fit-mixture", "--data", data, "--k", 2,
                       "--init", "kmeans-on-radii", "--rounds", 200,
                       "--tol", 1e-6, "--out", out, "--trace", trace)
        assert code == 0
        model, info = eio.read_model(out)
        assert model.n_components == 2
        assert info["rounds"] > 0
        # scatter scale trades off against b, so compare implied covariances
        scales = sorted(
            c.shape_a * c.scale_b / 2.0 * np.trace(c.scatter.entries) / 2.0
            for c in model.components)
        assert scales[0] == pytest.approx(1.0, rel=0.3)
        assert scales[1] == pytest.approx(25.0, rel=0.3)
        lls = [r["avg_loglik"] for r in eio.read_trace(trace)]
        assert np.all(np.diff(lls) > -1e-9)

    def test_too_few_samples(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        eio.write_matrix_csv(data, np.random.default_rng(0)
                             .standard_normal((5, 3)))
        code = run_cli("fit-mixture", "--data", data, "--k", 2,
                       "--out", tmp_path / "m.json")
        assert code == 4
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_matches_fit_info(self, work, capsys):
        assert run_cli("eval", "--data", work["data"],
                       "--model", work["model"]) == 0
        out = capsys.readouterr().out
        printed = {line.split()[0]: line.split()[1]
                   for line in out.splitlines()}
        _, info = eio.read_model(work["model"])
        assert float(printed["avg_loglik"]) == pytest.approx(
            info["final_avg_loglik"], abs=1e-12)
        n = eio.read_matrix(work["data"]).shape[0]
        assert float(printed["total_loglik"]) == pytest.approx(
            n * float(printed["avg_loglik"]), rel=1e-12)

    def test_splits_reported(self, work, capsys):
        assert run_cli("eval", "--data", work["data"], "--model",
                       work["model"], "--splits", 4) == 0
        out = capsys.readouterr().out
        printed = {line.split()[0]: float(line.split()[1])
                   for line in out.splitlines()}
        # equal-size unit-weight splits average back to the global figure
        assert printed["split_avg_loglik_mean"] == pytest.approx(
            printed["avg_loglik"], abs=1e-12)
        assert printed["split_avg_loglik_std"] < 0.2

    @pytest.mark.parametrize("splits", [1, 4])
    def test_total_from_split_totals(self, work, capsys, monkeypatch, splits):
        # one pass over the data, split by split; a single split is that
        # pass itself, bit for bit
        calls = []

        def counted(model, data):
            calls.append(data.n)
            return egd.mixture_log_likelihood(model, data)

        monkeypatch.setattr(egd.cli, "mixture_log_likelihood", counted)
        assert run_cli("eval", "--data", work["data"], "--model",
                       work["model"], "--splits", splits) == 0
        assert len(calls) == splits and sum(calls) == 4000
        out = capsys.readouterr().out
        printed = {line.split()[0]: float(line.split()[1])
                   for line in out.splitlines()}
        model, _ = eio.read_model(work["model"])
        data = egd.Dataset(eio.read_matrix(work["data"]))
        single = egd.mixture_log_likelihood(model, data)
        if splits == 1:
            assert printed["total_loglik"] == single
            assert printed["avg_loglik"] == single / data.total_weight
        else:
            assert printed["total_loglik"] == pytest.approx(single, rel=1e-12)

    def test_mi_rate_printed(self, work, capsys):
        assert run_cli("eval", "--data", work["data"], "--model",
                       work["model"], "--mi-rate") == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines()
                if l.startswith("mi_rate_bits_per_pixel")][0]
        value = line.split()[1]
        assert len(value.split(".")[1]) == 4
        assert np.isfinite(float(value))

    def test_dim_mismatch_is_data_error(self, work, tmp_path, capsys):
        data = tmp_path / "d2.csv"
        eio.write_matrix_csv(data, np.ones((10, 2)))
        code = run_cli("eval", "--data", data, "--model", work["model"])
        assert code == 4
        assert "does not match model" in capsys.readouterr().err

    def test_truncated_binary_header_is_data_error(self, work, tmp_path,
                                                   capsys):
        data = tmp_path / "short.bin"
        data.write_bytes(b"EGDM\x01\x00")
        code = run_cli("eval", "--data", data, "--model", work["model"])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_model_without_dim_is_data_error(self, work, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({"format": "egd-mixture-v1",
                                     "components": []}))
        code = run_cli("eval", "--data", work["data"], "--model", model)
        assert code == 4
        assert "'dim'" in capsys.readouterr().err

    def test_too_many_splits(self, work, tmp_path):
        data = tmp_path / "tiny.csv"
        eio.write_matrix_csv(data, np.random.default_rng(1)
                             .standard_normal((4, 3)))
        with pytest.raises(SystemExit) as ex:
            run_cli("eval", "--data", data, "--model", work["model"],
                    "--splits", 9)
        assert ex.value.code == 2


class TestBench:
    def bench_args(self, out_dir, trials=2):
        return ("bench", "--dim", 3, "--a", 1.0, "--b", 2.0, "--n", 200,
                "--trials", trials, "--seed", 23, "--tol", 1e-8,
                "--out-dir", out_dir)

    def test_outputs_and_reproducibility(self, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert run_cli(*self.bench_args(d)) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert "runs.csv" in names and "summary.csv" in names
        assert sum(n.startswith("trace_") for n in names) == 2 * 2 * 2
        for name in names:
            drop = {"elapsed_ms", "mean_elapsed_ms"}
            assert strip_timing(dirs[0] / name, drop) == \
                strip_timing(dirs[1] / name, drop)

    def test_runs_table_shape(self, tmp_path):
        out = tmp_path / "r"
        run_cli(*self.bench_args(out, trials=3))
        rows = strip_timing(out / "runs.csv", set())
        assert rows[0] == ("trial", "algo", "init", "iterations",
                           "converged", "final_avg_loglik",
                           "final_residual", "elapsed_ms")
        assert len(rows) == 1 + 3 * 2 * 2
        by_key = {(r[0], r[1], r[2]): r for r in rows[1:]}
        for trial in "012":
            fp = float(by_key[(trial, "fp", "sample-cov")][5])
            kt = float(by_key[(trial, "kent-tyler", "sample-cov")][5])
            assert fp == pytest.approx(kt, abs=1e-5)

    def test_elapsed_within_wall_time(self, tmp_path):
        # each fit's elapsed_ms is its own duration, so all of them together
        # cannot exceed the time of the whole command
        out = tmp_path / "r"
        start = time.perf_counter()
        assert run_cli(*self.bench_args(out, trials=3)) == 0
        wall_ms = 1000.0 * (time.perf_counter() - start)
        with open(out / "runs.csv", newline="") as fh:
            elapsed = [float(r["elapsed_ms"]) for r in csv.DictReader(fh)]
        assert len(elapsed) == 12 and min(elapsed) > 0.0
        assert sum(elapsed) <= wall_ms

    def test_environment_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "r"
        assert run_cli(*self.bench_args(out)) == 0
        env = json.loads((out / "environment.json").read_text())
        assert env == {"OPENBLAS_NUM_THREADS": "1",
                       "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None,
                       "cpu_count": os.cpu_count(),
                       "numpy": np.__version__,
                       "scipy": scipy.__version__}

    def test_environment_without_scipy(self, tmp_path, monkeypatch):
        import importlib.metadata

        def version(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", version)
        out = tmp_path / "r"
        assert run_cli(*self.bench_args(out)) == 0
        env = json.loads((out / "environment.json").read_text())
        assert env["scipy"] is None

    def test_unknown_algo_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as ex:
            run_cli("bench", "--dim", 2, "--a", 0.5, "--b", 1.0, "--n", 50,
                    "--algos", "fp,newton", "--out-dir", tmp_path / "r")
        assert ex.value.code == 2

    def test_kent_tyler_shape_guard(self, tmp_path):
        with pytest.raises(SystemExit) as ex:
            run_cli("bench", "--dim", 2, "--a", 1.0, "--b", 1.0, "--n", 50,
                    "--out-dir", tmp_path / "r")
        assert ex.value.code == 2


class TestPreprocess:
    def test_zero_noise_is_pure_log(self, tmp_path):
        rng = np.random.default_rng(29)
        raw = rng.uniform(1.0, 255.0, (50, 4))
        src = tmp_path / "raw.csv"
        out = tmp_path / "log.csv"
        eio.write_matrix_csv(src, raw)
        assert run_cli("preprocess", "--data", src, "--noise-fraction", 0.0,
                       "--out", out) == 0
        assert_allclose(eio.read_matrix(out), np.log(raw), rtol=1e-15)

    def test_nonpositive_entry_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        eio.write_matrix_csv(src, np.array([[1.0, 2.0], [0.0, 3.0]]))
        code = run_cli("preprocess", "--data", src, "--out",
                       tmp_path / "log.csv")
        assert code == 4
        assert "not positive" in capsys.readouterr().err

    def test_seeded_noise_reproducible(self, tmp_path):
        src = tmp_path / "raw.csv"
        eio.write_matrix_csv(src, np.random.default_rng(31)
                             .uniform(1.0, 9.0, (30, 3)))
        for name in ("a.csv", "b.csv"):
            run_cli("preprocess", "--data", src, "--seed", 5,
                    "--out", tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()


class TestModelJsonShape:
    def test_document_layout(self, work):
        doc = json.loads(work["model"].read_text())
        assert doc["format"] == "egd-mixture-v1"
        assert doc["dim"] == 3
        assert len(doc["components"]) == 1
        comp = doc["components"][0]
        assert set(comp) == {"weight", "a", "b", "scatter"}
        assert len(comp["scatter"]) == 9
        assert {"iterations", "converged", "tol", "final_residual",
                "final_avg_loglik", "algo"} <= set(doc["fit_info"])

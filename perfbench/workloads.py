"""The benchmark workloads: inputs from a seed, requests, output checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Requests come in *cycles* (a fixed
list of requests over one input), and a run always completes whole cycles
so the mix of request kinds is the same in every run.  A check returns
``None`` when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import egd
import egd.cli
import egd.io

# ---------------------------------------------------------------- checks --
# Tolerances are fixed here, before any run, from the solver tolerances.

# em_q16: per-sweep decreases larger than this exceed what the inner
# solvers (tol 1e-10 on the scatter, 1e-10 relative on the shape) allow.
EM_MONOTONE_SLACK = 1e-8
# The fitted model may not fall below the generating model's average
# log-likelihood on the same data by more than this many nats per sample.
EM_TRUTH_MARGIN = 0.01
# files_q64: eval recomputes the fit's final average log-likelihood.
EVAL_REL_AGREE = 1e-9


def check_em_fit(report, truth_avg_loglik: float) -> str | None:
    """Monotone trace and a final loglik not below the generating model's."""
    if not report.converged:
        return "not converged"
    trace = np.asarray(report.loglik_trace)
    drop = float(-np.min(np.diff(trace))) if trace.size > 1 else 0.0
    if drop > EM_MONOTONE_SLACK:
        return f"log-likelihood trace decreases by {drop:.3g}"
    if not trace[-1] >= truth_avg_loglik - EM_TRUTH_MARGIN:
        return (f"final avg loglik {trace[-1]:.6f} below generating model's "
                f"{truth_avg_loglik:.6f} by more than {EM_TRUTH_MARGIN}")
    return None


def eval_avg_loglik(stdout: str) -> float:
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key == "avg_loglik":
            return float(value)
    raise ValueError("eval printed no avg_loglik line")


def check_eval(stdout: str, model_path) -> str | None:
    """``eval``'s avg_loglik equals the fit's recorded final avg loglik."""
    with open(model_path) as fh:
        expected = float(json.load(fh)["fit_info"]["final_avg_loglik"])
    got = eval_avg_loglik(stdout)
    if not abs(got - expected) <= EVAL_REL_AGREE * abs(expected):
        return f"eval avg_loglik {got!r} != fit final_avg_loglik {expected!r}"
    return None


def check_same_matrix(a: np.ndarray, b: np.ndarray) -> str | None:
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return "CSV and binary reads differ"
    return None


# -------------------------------------------------------------- requests --
@dataclass
class Request:
    """One timed call and the untimed check of what it returned."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # counters for the traced run, taken from a result that passed its check
    counts: Callable[[object], dict] | None = None


def cli_call(argv):
    """``egd.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(_stdio.StringIO()):
        try:
            code = egd.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            # argparse reports usage errors by exiting
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def cli_request(kind, argv, check=None) -> Request:
    """One CLI call; it fails on a non-zero exit code, and otherwise if
    ``check(stdout)`` reports a problem."""

    def checked(result):
        code, out = result
        if code != 0:
            return f"egd {argv[0]} exited with code {code}"
        return check(out) if check else None

    return Request(kind, lambda: cli_call(argv), checked)


def random_scatter(rng, q: int, spread: float) -> np.ndarray:
    m = rng.standard_normal((q, q)) * spread
    return np.eye(q) + m @ m.T / q


class Workload:
    """Inputs are made by :meth:`setup`; :meth:`cycle` lists requests."""

    name = ""
    # how many inputs setup makes; requests cycle through them
    pool = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, k: int) -> list[Request]:
        raise NotImplementedError

    def children(self, n):
        return np.random.SeedSequence(self.seed).spawn(n)


class EmQ16(Workload):
    """Library ``fit_mixture``, K = 3, on mixtures differing in radial law."""

    name = "em_q16"
    pool = 48
    q, n = 16, 4000
    # (a, b) per component; radial means a*b are 1, 16 and 100
    radial = ((0.5, 2.0), (4.0, 4.0), (10.0, 10.0))
    mix_probs = (0.3, 0.4, 0.3)

    def setup(self):
        self.inputs = []
        for child in self.children(self.pool):
            rng = np.random.default_rng(child)
            comps = [egd.EgdParams(egd.ScatterMatrix(
                random_scatter(rng, self.q, 0.3)), a, b)
                for a, b in self.radial]
            truth = egd.MixtureModel(comps, np.asarray(self.mix_probs))
            data = egd.sample_mixture(truth, self.n, int(rng.integers(2**62)))
            self.inputs.append((data, truth))
        self.truth_avg = {}

    def cycle(self, k):
        index = k % self.pool
        data, truth = self.inputs[index]

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = egd.fit_mixture(data, egd.EmConfig(
                    n_components=3, seed=0, init="kmeans-on-radii"))
            frozen = sum(any(w in str(c.message) for w in FROZEN_WORDS)
                         for c in caught)
            return report, frozen

        def check(result):
            report, _frozen = result
            if index not in self.truth_avg:
                self.truth_avg[index] = (
                    egd.mixture_log_likelihood(truth, data) / data.total_weight)
            return check_em_fit(report, self.truth_avg[index])

        return [Request("fit_mixture", run, check,
                        lambda result: {"frozen_warnings": result[1]})]


# warnings ``fit_mixture`` raises for frozen, degenerate or removed components
FROZEN_WORDS = ("frozen", "degenerate", "removing")


class FilesQ64(Workload):
    """The CLI file pipeline at q = 64, n = 20000, CSV then binary.

    A cycle is the five commands of the pipeline, each its own request.
    """

    name = "files_q64"
    pool = 8
    q, n = 64, 20000

    def setup(self):
        rng = np.random.default_rng(self.children(1)[0])
        self.scatter_path = self.workdir / "scatter.csv"
        egd.io.write_matrix_csv(self.scatter_path,
                                random_scatter(rng, self.q, 0.5))
        self.inputs = [int(s) for s in rng.integers(2**31, size=self.pool)]

    def cycle(self, k):
        w = self.workdir
        csv_path, bin_path = w / "x.csv", w / "x.bin"
        model, trace = w / "model.json", w / "trace.csv"
        # a step that fails must not leave the next one the last cycle's file
        for path in (csv_path, bin_path, model, trace):
            path.unlink(missing_ok=True)
        sample = ["sample", "--dim", self.q, "--a", 1.0, "--b", 2.0,
                  "--scatter", self.scatter_path, "--n", self.n,
                  "--seed", self.inputs[k % self.pool]]
        evaluate = ["eval", "--model", model, "--splits", 4, "--mi-rate"]
        return [
            cli_request("sample_csv", sample + ["--out", csv_path]),
            cli_request("fit", [
                "fit", "--data", csv_path, "--a", 1.0, "--b", 2.0,
                "--tol", 1e-10, "--out", model, "--trace", trace]),
            cli_request("eval_csv", evaluate + ["--data", csv_path],
                        lambda out: check_eval(out, model)),
            cli_request("sample_binary",
                        sample + ["--out", bin_path, "--format", "binary"],
                        lambda _out: check_same_matrix(
                            egd.io.read_matrix(csv_path),
                            egd.io.read_matrix(bin_path))),
            cli_request("eval_binary", evaluate + ["--data", bin_path],
                        lambda out: check_eval(out, model)),
        ]


WORKLOADS = {w.name: w for w in (EmQ16, FilesQ64)}

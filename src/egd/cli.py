"""Command-line front end.

Subcommands: ``sample``, ``fit``, ``fit-mixture``, ``eval``, ``bench``,
``preprocess``.  Exit codes: 0 success, 2 usage error, 3 a fit did not
converge: it hit its iteration cap or stopped near-singular (the model is
still written), 4 bad data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io as eio
from .core import Dataset, EgdParams, MixtureModel, ScatterMatrix, sample
from .mixture import (EmConfig, fit_mixture, mi_rate, mixture_log_likelihood,
                      preprocess_patches, sample_mixture)
from .scatter import FixedPointConfig, fit_kent_tyler, fit_scatter

__all__ = ["build_parser", "main", "run"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DATA = 4

_FITS = {"fp": fit_scatter, "kent-tyler": fit_kent_tyler}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def _load_dataset(path, weights_path=None) -> Dataset:
    samples = eio.read_matrix(path)
    weights = None
    if weights_path is not None:
        w = eio.read_matrix(weights_path)
        if 1 not in w.shape:
            raise ValueError("weights file must hold a single row or column")
        weights = w.ravel()
    return Dataset(samples, weights)


def _write_samples(path, data: np.ndarray, fmt: str) -> None:
    if fmt == "binary":
        eio.write_matrix_binary(path, data)
    else:
        eio.write_matrix_csv(path, data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egd",
        description="Fit, sample, and evaluate elliptical gamma models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw samples from a model")
    p.add_argument("--model", help="mixture model JSON file")
    p.add_argument("--dim", type=_positive_int)
    p.add_argument("--a", type=_positive_float)
    p.add_argument("--b", type=_positive_float)
    p.add_argument("--scatter", help="scatter matrix file (default identity)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")

    p = sub.add_parser("fit", help="fit a single-component scatter")
    p.add_argument("--data", required=True)
    p.add_argument("--a", type=_positive_float, required=True)
    p.add_argument("--b", type=_positive_float, required=True)
    p.add_argument("--weights")
    p.add_argument("--init", default="sample-cov",
                   help="'identity', 'sample-cov', or a matrix file; for "
                        "fp, 'identity' is B = (2/b) times the weighted "
                        "second moment (the sample-cov start when b = 2); "
                        "for kent-tyler it is I")
    p.add_argument("--alpha-rule", choices=("eigen", "trace"), default="eigen")
    p.add_argument("--algo", choices=_FITS, default="fp")
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--max-iter", type=_positive_int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")

    p = sub.add_parser("fit-mixture", help="fit a mixture by EM")
    p.add_argument("--data", required=True)
    p.add_argument("--weights")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=_positive_int, default=100)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--init", default="random-assignment",
                   choices=("random-assignment", "kmeans-on-radii"))
    p.add_argument("--out", required=True)
    p.add_argument("--trace")

    p = sub.add_parser("eval", help="evaluate a model on data")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mi-rate", action="store_true",
                   help="also report the multi-information rate in bits/pixel")
    p.add_argument("--splits", type=_positive_int, default=1,
                   help="evaluate on N contiguous splits and report mean/std")

    p = sub.add_parser("bench", help="compare fitting algorithms")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--a", type=_positive_float, required=True)
    p.add_argument("--b", type=_positive_float, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algos", default="fp,kent-tyler",
                   help="comma-separated subset of: fp, kent-tyler")
    p.add_argument("--alpha-rule", choices=("eigen", "trace"), default="eigen")
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--max-iter", type=_positive_int, default=1000)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("preprocess", help="log-transform positive intensities")
    p.add_argument("--data", required=True)
    p.add_argument("--noise-fraction", type=float, default=0.002)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "binary"), default="csv")

    return parser


def cmd_sample(args, parser) -> int:
    direct = [args.dim, args.a, args.b]
    if args.model is not None:
        if any(v is not None for v in direct) or args.scatter is not None:
            parser.error("--model conflicts with --dim/--a/--b/--scatter")
        model, _ = eio.read_model(args.model)
        data = sample_mixture(model, args.n, args.seed)
        desc = (f"mixture: K={model.n_components} dim={model.dim} "
                f"weights={[round(float(p), 6) for p in model.mix_probs]}")
    else:
        if any(v is None for v in direct):
            parser.error("either --model or all of --dim/--a/--b required")
        if args.scatter is not None:
            scatter = ScatterMatrix(eio.read_matrix(args.scatter))
            if scatter.dim != args.dim:
                raise ValueError("scatter dimension does not match --dim")
        else:
            scatter = ScatterMatrix.identity(args.dim)
        params = EgdParams(scatter, args.a, args.b)
        data = sample(params, args.n, args.seed)
        desc = f"single component: dim={args.dim} a={args.a} b={args.b}"
    _write_samples(args.out, data.samples, args.format)
    print(f"sampled n={args.n} seed={args.seed} ({desc})", file=sys.stderr)
    return EXIT_OK


def _resolve_init(init_arg):
    if init_arg in ("identity", "sample-cov"):
        return init_arg, None
    return "user", ScatterMatrix(eio.read_matrix(init_arg)).entries


def cmd_fit(args, parser) -> int:
    data = _load_dataset(args.data, args.weights)
    init, user_matrix = _resolve_init(args.init)
    config = FixedPointConfig(init=init, tol=args.tol, max_iter=args.max_iter,
                              alpha_rule=args.alpha_rule,
                              user_matrix=user_matrix)
    if args.algo == "kent-tyler" and args.a >= 0.5 * data.dim:
        parser.error("--algo kent-tyler requires a < dim/2")
    report = _FITS[args.algo](data, args.a, args.b, config)
    fit_info = {
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "tol": args.tol,
        # null when not evaluated (a near-singular stop): JSON has no NaN
        "final_residual": (report.final_residual
                           if math.isfinite(report.final_residual) else None),
        # null when the fit stopped before accepting any iterate
        "final_avg_loglik": (float(report.loglik_trace[-1])
                             if report.iterations else None),
        "algo": args.algo,
    }
    model = MixtureModel([EgdParams(report.sigma_hat, args.a, args.b)],
                         np.ones(1))
    eio.write_model(args.out, model, fit_info)
    if args.trace:
        eio.write_trace(args.trace, eio.trace_rows(report))
    if report.near_singular and not report.converged:
        print(f"stopped near-singular after {report.iterations} iterations "
              "(the model is still written)", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    if not report.converged:
        print(f"did not converge within {args.max_iter} iterations "
              f"(final residual {report.final_residual:.3e})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged in {report.iterations} iterations "
          f"(avg loglik {report.loglik_trace[-1]:.6f})", file=sys.stderr)
    return EXIT_OK


def cmd_fit_mixture(args, parser) -> int:
    data = _load_dataset(args.data, args.weights)
    config = EmConfig(n_components=args.k, outer_rounds=args.rounds,
                      tol=args.tol, seed=args.seed, init=args.init)
    report = fit_mixture(data, config)
    fit_info = {
        "rounds": report.rounds,
        "converged": bool(report.converged),
        "tol": args.tol,
        "seed": args.seed,
        "final_avg_loglik": float(report.loglik_trace[-1]),
    }
    eio.write_model(args.out, report.model, fit_info)
    if args.trace:
        rows = [(i, ll, None, None, None, None, None)
                for i, ll in enumerate(report.loglik_trace)]
        eio.write_trace(args.trace, rows)
    if not report.converged:
        print(f"did not converge within {args.rounds} rounds", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged after {report.rounds} rounds "
          f"(avg loglik {report.loglik_trace[-1]:.6f})", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args, parser) -> int:
    data = _load_dataset(args.data)
    model, _ = eio.read_model(args.model)
    if data.dim != model.dim:
        raise ValueError(f"data dimension {data.dim} does not match model "
                         f"dimension {model.dim}")
    if args.splits > data.n:
        parser.error("--splits exceeds the number of samples")
    bounds = np.linspace(0, data.n, args.splits + 1).astype(int)
    totals = []
    avgs = []
    rates = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = Dataset(data.samples[lo:hi], data.weights[lo:hi])
        totals.append(mixture_log_likelihood(model, part))
        avg = totals[-1] / part.total_weight
        avgs.append(avg)
        if args.mi_rate:
            rates.append(mi_rate(avg, part, data.dim))
    # the splits partition the data, so their totals add up to the total
    total = math.fsum(totals)
    print(f"total_loglik {total!r}")
    print(f"avg_loglik {total / data.total_weight!r}")
    if args.splits > 1:
        print(f"split_avg_loglik_mean {float(np.mean(avgs))!r}")
        print(f"split_avg_loglik_std {float(np.std(avgs))!r}")
    if args.mi_rate:
        print(f"mi_rate_bits_per_pixel {np.mean(rates):.4f}")
        if args.splits > 1:
            print(f"mi_rate_std {np.std(rates):.4f}")
    return EXIT_OK


def _bench_trial(trial, args, algos, out_dir):
    seq = np.random.SeedSequence(args.seed, spawn_key=(trial,))
    rng = np.random.default_rng(seq)
    q = args.dim
    amat = rng.standard_normal((q, q))
    sigma = ScatterMatrix(amat @ amat.T + 0.1 * np.eye(q))
    params = EgdParams(sigma, args.a, args.b)
    data = sample(params, args.n, int(rng.integers(2**63)))
    rows = []
    for algo in algos:
        for init in ("identity", "sample-cov"):
            config = FixedPointConfig(init=init, tol=args.tol,
                                      max_iter=args.max_iter,
                                      alpha_rule=args.alpha_rule)
            report = _FITS[algo](data, args.a, args.b, config)
            name = f"trace_trial{trial:03d}_{algo}_{init}.csv"
            eio.write_trace(out_dir / name, eio.trace_rows(report))
            rows.append({
                "trial": trial,
                "algo": algo,
                "init": init,
                "iterations": report.iterations,
                "converged": int(report.converged),
                "final_avg_loglik": (report.loglik_trace[-1]
                                     if report.iterations else math.nan),
                "final_residual": report.final_residual,
                # the trace holds timestamps since the fit started
                "elapsed_ms": (float(report.elapsed_ms_trace[-1])
                               if report.elapsed_ms_trace.size else 0.0),
            })
    return rows


_RUN_COLUMNS = ("trial", "algo", "init", "iterations", "converged",
                "final_avg_loglik", "final_residual", "elapsed_ms")
# thread settings recorded next to the timings; unset variables are null
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _bench_environment() -> dict:
    import importlib.metadata

    env = {name: os.environ.get(name) for name in _THREAD_VARIABLES}
    # the installed scipy version, read without importing scipy; null when
    # scipy is absent
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    env.update(cpu_count=os.cpu_count(), numpy=np.__version__,
               scipy=scipy_version)
    return env


def cmd_bench(args, parser) -> int:
    algos = tuple(name.strip() for name in args.algos.split(",") if name.strip())
    for name in algos:
        if name not in _FITS:
            parser.error(f"unknown algorithm {name!r} (choose from "
                         f"{', '.join(_FITS)})")
    if not algos:
        parser.error("--algos must name at least one algorithm")
    if "kent-tyler" in algos and args.a >= 0.5 * args.dim:
        parser.error("kent-tyler requires a < dim/2")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [row for trial in range(args.trials)
            for row in _bench_trial(trial, args, algos, out_dir)]
    with open(out_dir / "environment.json", "w") as fh:
        json.dump(_bench_environment(), fh, indent=2)
        fh.write("\n")
    with open(out_dir / "runs.csv", "w", newline="") as fh:
        fh.write(",".join(_RUN_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) if c in ("trial", "algo", "init",
                                                   "iterations", "converged")
                              else repr(float(row[c]))
                              for c in _RUN_COLUMNS) + "\n")
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        fh.write("algo,init,mean_iterations,mean_elapsed_ms,converged_frac\n")
        for algo in algos:
            for init in ("identity", "sample-cov"):
                group = [r for r in rows
                         if r["algo"] == algo and r["init"] == init]
                fh.write(",".join([
                    algo, init,
                    repr(float(np.mean([r["iterations"] for r in group]))),
                    repr(float(np.mean([r["elapsed_ms"] for r in group]))),
                    repr(float(np.mean([r["converged"] for r in group]))),
                ]) + "\n")
    print(f"wrote {len(rows)} runs over {args.trials} trials to {out_dir}",
          file=sys.stderr)
    return EXIT_OK


def cmd_preprocess(args, parser) -> int:
    data = _load_dataset(args.data)
    out = preprocess_patches(data, args.noise_fraction, args.seed)
    _write_samples(args.out, out.samples, args.format)
    print(f"preprocessed {out.n} rows (noise fraction "
          f"{args.noise_fraction}, seed {args.seed})", file=sys.stderr)
    return EXIT_OK


_DISPATCH = {
    "sample": cmd_sample,
    "fit": cmd_fit,
    "fit-mixture": cmd_fit_mixture,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "preprocess": cmd_preprocess,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _DISPATCH[args.command]
    try:
        return handler(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    raise SystemExit(main())

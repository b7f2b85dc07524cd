"""Benchmark of the ``egd`` package, run from the root of a source checkout.

    python3 perfbench/run.py --workload em_q16 --seed 1 --seconds 50 --trace 0

Imports ``egd`` from ``src/`` of the checkout, with BLAS pinned to one
thread, makes the workload's inputs from ``--seed``, warms up with one
cycle of requests and then sends whole cycles, one request at a time,
until ``--seconds`` have passed.  Every output is checked.

With ``--trace 0`` the last line of stdout is a JSON result holding the
end-to-end metrics.  With ``--trace 1`` every cycle runs twice, untraced
and with every public ``egd`` function wrapped in a span, and the result
holds the per-layer metrics; the difference between the two is the
tracing overhead.  Lines before the result, starting with ``#``,
give sample counts, the tail percentile and the environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# set-up is repeated this often and its median reported
SETUP_REPEATS = 5


def pin_environment() -> None:
    """One BLAS thread, serial ``egd bench``; must run before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("EGD_THREADS", None)


def import_seconds() -> float:
    """Seconds to ``import egd`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import egd; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {})
        return {part: {k: deps.get(part, {}).get(k)
                       for k in ("name", "version", "openblas configuration")}
                for part in ("blas", "lapack")}

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_vars": {v: os.environ.get(v)
                        for v in BLAS_THREAD_VARS + ("EGD_THREADS",)},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unavailable (not a git checkout)",
    }


def machine_probe() -> dict:
    """Milliseconds for two fixed computations, to show machine-speed drift.

    Not a metric of ``egd``: on a shared host both readings move with the
    load of other tenants, and comparing them across runs tells that drift
    apart from a change in the program.
    """
    import numpy as np

    x = np.random.default_rng(0).standard_normal((20000, 64))

    def gemm():
        return x.T @ x

    def python():
        return sum(i * i for i in range(200000))

    out = {}
    for name, call in (("gemm_64x20000_ms", gemm), ("python_loop_ms", python)):
        times = []
        for _ in range(9):
            start = time.perf_counter()
            call()
            times.append(1000.0 * (time.perf_counter() - start))
        out[name] = statistics.median(times)
    return out


def run_request(request, tracer=None) -> metrics.Outcome:
    start = time.perf_counter()
    try:
        if tracer is None:
            result = request.run()
        else:
            result = tracer.request(request.run)
    except Exception as exc:  # a raised error is a failed request
        return metrics.Outcome(request.kind, time.perf_counter() - start,
                               f"raised {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    try:
        failure = request.check(result)
    except Exception as exc:  # so is output the check cannot read
        failure = f"check raised {type(exc).__name__}: {exc}"
    counts = request.counts(result) if request.counts and not failure else {}
    return metrics.Outcome(request.kind, latency, failure, counts)


def run_cycles(workload, cycles, seconds=None, tracer=None):
    """Run the requests of ``cycles`` (an iterable of cycle numbers).

    With ``seconds``, stop after the first whole cycle that ends past it.
    """
    outcomes = []
    start = time.perf_counter()
    for k in cycles:
        for request in workload.cycle(k):
            outcomes.append(run_request(request, tracer))
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return outcomes


def set_up(make, tracer):
    """Make the inputs ``SETUP_REPEATS`` times; the last time under ``tracer``.

    Returns the last workload and ``setup_s``.
    """
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    generate = []
    workload = None
    for rep in range(SETUP_REPEATS):
        workload = None
        start = time.perf_counter()
        workload = make()
        if tracer is not None and rep == SETUP_REPEATS - 1:
            with tracer:
                tracer.install(spans.egd_targets())
                tracer.request(workload.setup)
        else:
            workload.setup()
        generate.append(time.perf_counter() - start)
    return workload, statistics.median(imports) + statistics.median(generate)


def run_traced(workload, seconds):
    """Each cycle untraced and traced; returns both outcomes and the tracer.

    The order alternates from cycle to cycle, so drift in machine speed
    cancels from the difference between the two.
    """
    targets = spans.egd_targets()
    tracer = spans.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    for k in itertools.count(1):
        for with_trace in ((False, True) if k % 2 else (True, False)):
            if with_trace:
                with tracer:
                    tracer.install(targets)
                    traced += run_cycles(workload, [k], tracer=tracer)
            else:
                untraced += run_cycles(workload, [k])
        if time.perf_counter() - start >= seconds:
            return untraced, traced, tracer


def measure(name: str, seed: int, seconds: float, trace: bool):
    import workloads

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_tracer = spans.Tracer() if trace else None
        workload, setup_s = set_up(
            lambda: workloads.WORKLOADS[name](seed, workdir), setup_tracer)
        probes = {"before": machine_probe()}
        warmup = run_cycles(workload, [0])
        if trace:
            untraced, traced, tracer = run_traced(workload, seconds)
            found = metrics.per_layer(tracer.spans, traced, untraced,
                                      setup_tracer.spans)
            outcomes = untraced + traced
        else:
            outcomes = run_cycles(workload, itertools.count(1), seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            found = metrics.end_to_end(outcomes, setup_s, rss_mb)
        probes["after"] = machine_probe()
        return warmup, outcomes, found, probes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run_all(args, names) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"# {name}: {results[name]['attempted']} requests, "
              f"failed_frac {results[name]['failed'] / results[name]['attempted']:.4g}")
        for key, metric in results[name]["metrics"].items():
            print(f"# {name} {key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "egd" / "__init__.py").is_file():
        print(f"error: no egd sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    warmup, outcomes, found, probes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    failed = [o for o in outcomes if o.failure]
    attempted = len(outcomes)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests attempted, {len(failed)} failed "
          f"(failed_frac {len(failed) / attempted:.4g}), closed loop with "
          "one client")
    if not args.trace:
        samples = ", ".join(f"{kind} {len(group)}" for kind, group
                            in metrics.by_kind(outcomes).items())
        print(f"# latency samples per request kind: {samples}; the tail of "
              "a kind is its highest percentile with ten samples beyond, "
              "or its maximum (p100) when it has fewer than 11")
        for key, (value, unit) in metrics.latency_summary(outcomes).items():
            print(f"# {key} {value:.6g} {unit} (not gated)")
    for o in (warmup + outcomes):
        if o.failure:
            print(f"# FAILED {o.kind}: {o.failure}")
    for key, (value, unit) in found.items():
        print(f"# {key} {value:.6g} {unit}")
    print("# environment " + json.dumps(environment(), sort_keys=True))
    print("# machine_probe " + json.dumps(probes))
    result = {
        "correct": not failed and not any(o.failure for o in warmup),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in found.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

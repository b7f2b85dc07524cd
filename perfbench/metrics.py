"""End-to-end metrics from request outcomes, per-layer metrics from spans.

Per-layer times and counts are per traced cycle (each of a workload's
request kinds once), so they do not grow with run length; ``*.iterations``
of the scatter fits and ``*.ms_per_iter`` are per fit and per iteration.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from spans import LAYERS, self_times


@dataclass
class Outcome:
    """A finished request: its latency and why it failed, if it did."""

    kind: str
    latency_s: float
    failure: str | None = None
    counts: dict = field(default_factory=dict)


def tail(latencies):
    """Value and percentile of the highest order statistic with ten beyond.

    With fewer than eleven samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def percentile(values, pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default).

    Written without numpy: ``run.py`` imports this module before it pins
    the BLAS threads, which must happen before numpy loads.
    """
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])


def by_kind(outcomes) -> dict:
    """Latencies in seconds, grouped by request kind in order of first use."""
    groups: dict[str, list[float]] = {}
    for o in outcomes:
        groups.setdefault(o.kind, []).append(o.latency_s)
    return groups


def cycle_ms(outcomes, pct: float) -> float:
    """One cycle's latency: each request kind's percentile ``pct``, summed.

    Every cycle of a workload sends each of its request kinds once, so this
    is the time of one cycle if every request took that percentile of the
    time its kind took over the run.
    """
    return 1000.0 * sum(percentile(latencies, pct)
                        for latencies in by_kind(outcomes).values())


def end_to_end(outcomes, setup_s: float, peak_rss_mb: float) -> dict:
    """The gated metrics: set-up time, cycle latency and memory."""
    return {
        "setup_s": (setup_s, "s"),
        "cycle_p90_ms": (cycle_ms(outcomes, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def latency_summary(outcomes) -> dict:
    """Ungated figures printed beside the result.

    On a shared host the median moves with the share of the run that other
    tenants slow down; the gated ``cycle_p90_ms`` moves much less.
    """
    latencies = [o.latency_s for o in outcomes]
    completed = sum(o.failure is None for o in outcomes)
    out = {
        "requests_per_s": (completed / sum(latencies), "1/s"),
        "cycle_p50_ms": (cycle_ms(outcomes, 50), "ms"),
    }
    for kind, group in by_kind(outcomes).items():
        tail_s, pct = tail(group)
        out[f"{kind}.p50_ms"] = (1000.0 * statistics.median(group), "ms")
        out[f"{kind}.p{pct:.4g}_ms"] = (1000.0 * tail_s, "ms")
    return out


SELF_MS = (
    "scatter.whiten", "scatter.fit_scatter",
    "core.squared_radius", "core.log_density", "core.sample",
    "mixture.sample_mixture", "gammafit.fit_gamma_weighted",
    "mixture.e_step", "mixture.m_step_scatter", "mixture.m_step_shape",
    "mixture.mi_rate",
    "io.read_matrix", "io.write_matrix_csv", "io.write_matrix_binary",
    "io.read_model", "io.write_model", "io.write_trace",
    "cli.sample", "cli.fit", "cli.eval",
)
# sampling done while making the inputs, reported per set-up
SETUP_SELF_MS = ("core.sample", "mixture.sample_mixture")
CALLS = ("core.squared_radius", "gammafit.fit_gamma_weighted",
         "mixture.e_step", "io.write_trace")
# (span name, alpha rule) -> metric prefix of fits timed per iteration
PER_ITERATION = {
    ("scatter.fit_nonconcave", "eigen"): "scatter.nonconcave_eigen",
    ("scatter.fit_concave", None): "scatter.fit_concave",
}
ITERATIONS_PER_FIT = ("scatter.fit_nonconcave", "scatter.fit_concave")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, traced, untraced, setup_spans) -> dict:
    """Per-layer metrics of the traced requests and one traced set-up.

    ``traced`` and ``untraced`` are the outcomes of the same requests run
    with and without tracing; their difference is the tracing overhead.
    Spans outside any request (those of output checks) are ignored.
    """
    n = len(traced) / len(by_kind(traced))  # cycles
    selfs = self_times(spans)
    sums: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    outside = 0.0
    per_iter = {prefix: [0.0, 0] for prefix in PER_ITERATION.values()}
    read_mb = {"csv": [0.0, 0.0], "binary": [0.0, 0.0]}
    for span, own in zip(spans, selfs):
        if span.request is None:
            continue
        if span.name == "request":
            outside += own
            continue
        sums[span.name] = sums.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_self[span.name.split(".", 1)[0]] += own
        for key, value in span.notes.items():
            if isinstance(value, (int, float)):
                tag = f"{span.name}.{key}"
                notes[tag] = notes.get(tag, 0) + value
        prefix = PER_ITERATION.get((span.name, span.notes.get("rule")))
        if prefix and "iterations" in span.notes:
            per_iter[prefix][0] += span.duration
            per_iter[prefix][1] += span.notes["iterations"]
        if span.name == "io.read_matrix" and "format" in span.notes:
            acc = read_mb[span.notes["format"]]
            acc[0] += span.notes["bytes"] / 1e6
            acc[1] += span.duration

    out = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (1000.0 * sums.get(name, 0.0) / n, "ms")
    for name in CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
    for prefix, (seconds, iters) in per_iter.items():
        out[f"{prefix}.ms_per_iter"] = (1000.0 * _ratio(seconds, iters), "ms")
    for name in ITERATIONS_PER_FIT:
        out[f"{name}.iterations"] = (
            _ratio(notes.get(f"{name}.iterations", 0), calls.get(name, 0)),
            "count")
    out["gammafit.fit_gamma_weighted.iterations"] = (
        notes.get("gammafit.fit_gamma_weighted.iterations", 0) / n, "count")
    out["mixture.sweeps"] = (notes.get("mixture.fit_mixture.sweeps", 0) / n,
                             "count")
    out["mixture.rounds"] = (notes.get("mixture.fit_mixture.rounds", 0) / n,
                             "count")
    updates = (notes.get("mixture.m_step_scatter.components", 0)
               + notes.get("mixture.m_step_shape.components", 0))
    frozen = sum(o.counts.get("frozen_warnings", 0) for o in traced)
    out["mixture.frozen_components"] = (_ratio(frozen, updates), "fraction")
    for fmt, (mb, seconds) in read_mb.items():
        out[f"io.read_matrix.{fmt}_mb_per_s"] = (_ratio(mb, seconds), "MB/s")
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_ms"] = (1000.0 * seconds / n, "ms")

    setup_self = self_times(setup_spans)
    for name in SETUP_SELF_MS:
        out[f"setup.{name}.self_ms"] = (1000.0 * sum(
            own for span, own in zip(setup_spans, setup_self)
            if span.name == name), "ms")

    traced_ms = 1000.0 * sum(o.latency_s for o in traced) / n
    untraced_ms = 1000.0 * sum(o.latency_s for o in untraced) / n
    out["trace.untraced_cycle_ms"] = (untraced_ms, "ms")
    out["trace.traced_cycle_ms"] = (traced_ms, "ms")
    out["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    out["trace.layer_self_sum_ms"] = (
        1000.0 * sum(layer_self.values()) / n, "ms")
    out["trace.outside_spans_ms"] = (1000.0 * outside / n, "ms")
    out["trace.spans_per_cycle"] = (
        sum(s.request is not None for s in spans) / n, "count")
    return out

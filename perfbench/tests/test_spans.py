import json
from pathlib import Path

import numpy as np
import pytest

import egd
import egd.cli
import egd.core
import egd.mixture
import metrics
import spans
from spans import Span, Tracer, covered, self_times

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def small_mixture_data():
    comps = [egd.EgdParams(egd.ScatterMatrix(np.eye(3)), a, b)
             for a, b in ((0.5, 2.0), (6.0, 6.0))]
    model = egd.MixtureModel(comps, np.array([0.5, 0.5]))
    return egd.sample_mixture(model, 400, 5)


def traced_fit():
    data = small_mixture_data()
    with Tracer() as tracer:
        tracer.install(spans.egd_targets())
        report = tracer.request(lambda: egd.fit_mixture(
            data, egd.EmConfig(n_components=2, init="kmeans-on-radii")))
    return tracer.spans, report


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_self_time_subtracts_children():
    tree = [Span("request", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0),
            Span("b", 2.0, 3.0, parent=1), Span("c", 5.0, 9.0, parent=0)]
    assert self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_spans_nest_and_self_times_sum_to_request_wall_time():
    recorded, report = traced_fit()
    assert report.converged
    root = recorded[0]
    assert root.name == "request" and root.parent is None
    for i, span in enumerate(recorded[1:], start=1):
        assert span.request == 0
        assert span.parent is not None and span.parent < i
        parent = recorded[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
    # siblings never overlap in a single-threaded run
    for i in range(len(recorded)):
        kids = sorted((s.start, s.end) for s in recorded if s.parent == i)
        assert all(a[1] <= b[0] for a, b in zip(kids, kids[1:]))
    assert sum(self_times(recorded)) == pytest.approx(root.duration,
                                                      rel=1e-9, abs=1e-9)


def test_internal_calls_are_seen():
    recorded, _ = traced_fit()
    names = {s.name for s in recorded}
    assert {"mixture.fit_mixture", "mixture.e_step", "core.log_density",
            "mixture.m_step_scatter", "scatter.fit_scatter",
            "scatter.whiten", "gammafit.fit_gamma_weighted"} <= names
    parents = {recorded[s.parent].name for s in recorded
               if s.name == "core.squared_radius"}
    # called from core.log_density and through egd.mixture's own binding
    assert {"core.log_density", "mixture.m_step_shape"} <= parents


def test_every_binding_is_wrapped_and_restored():
    originals = (egd.core.squared_radius, egd.mixture.squared_radius,
                 egd.squared_radius, egd.cli._DISPATCH["fit"])
    assert originals[0] is originals[1] is originals[2]
    tracer = Tracer()
    tracer.install(spans.egd_targets())
    try:
        wrapped = (egd.core.squared_radius, egd.mixture.squared_radius,
                   egd.squared_radius, egd.cli._DISPATCH["fit"])
        for before, after in zip(originals, wrapped):
            assert after is not before and after.__wrapped__ is before
    finally:
        tracer.uninstall()
    restored = (egd.core.squared_radius, egd.mixture.squared_radius,
                egd.squared_radius, egd.cli._DISPATCH["fit"])
    assert all(a is b for a, b in zip(originals, restored))


def test_per_layer_metrics_match_benchmark_json():
    recorded, _ = traced_fit()
    traced = [metrics.Outcome("fit_mixture", recorded[0].duration)]
    found = metrics.per_layer(recorded, traced, traced, recorded)
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert set(found) == {m["name"] for m in declared["per_layer"]}
    for m in declared["per_layer"]:
        assert found[m["name"]][1] == m["unit"]
    assert found["mixture.sweeps"][0] > 0
    assert found["core.squared_radius.calls"][0] > 0
    layer_sum = sum(found[f"{layer}.self_ms"][0] for layer in spans.LAYERS)
    assert layer_sum + found["trace.outside_spans_ms"][0] == pytest.approx(
        1000.0 * recorded[0].duration, rel=1e-9)


def test_end_to_end_metrics_match_benchmark_json():
    outcomes = [metrics.Outcome("r", 0.01 * (i + 1)) for i in range(30)]
    found = metrics.end_to_end(outcomes, 0.5, 100.0)
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert set(found) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert found[m["name"]][1] == m["unit"]


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    for pct in (0, 10, 25, 50, 90, 100):
        assert metrics.percentile(values, pct) == pytest.approx(
            np.percentile(values, pct), rel=1e-12)
    assert metrics.percentile([2.5], 10) == 2.5


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, pct = metrics.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert metrics.tail([3, 1, 2]) == (3, 100.0)

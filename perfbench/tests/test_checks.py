from types import SimpleNamespace

import numpy as np

import egd
import egd.io
import run
import workloads
from workloads import Request


def em_report(trace, converged=True):
    return SimpleNamespace(loglik_trace=np.asarray(trace), converged=converged)


def test_em_check():
    good = em_report([-3.0, -2.5, -2.4, -2.4 + 1e-12])
    assert workloads.check_em_fit(good, -2.41) is None
    assert workloads.check_em_fit(em_report([-3.0, -2.4, -2.5, -2.4]),
                                  -2.41) is not None
    assert workloads.check_em_fit(good, -2.0) is not None
    assert workloads.check_em_fit(em_report([-3.0, -2.4], False),
                                  -2.41) is not None


def test_eval_and_matrix_checks(tmp_path):
    model_path = tmp_path / "model.json"
    model = egd.MixtureModel(
        [egd.EgdParams(egd.ScatterMatrix(np.eye(2)), 1.0, 2.0)], np.ones(1))
    egd.io.write_model(model_path, model, {"final_avg_loglik": -2.5})
    assert workloads.check_eval("total_loglik -25.0\navg_loglik -2.5\n",
                                model_path) is None
    assert workloads.check_eval("avg_loglik -2.5000001\n",
                                model_path) is not None
    m = np.arange(6.0).reshape(3, 2) + 0.1
    assert workloads.check_same_matrix(m, m.copy()) is None
    flipped = m.copy()
    flipped[1, 1] = np.nextafter(flipped[1, 1], np.inf)
    assert workloads.check_same_matrix(m, flipped) is not None


class FakeWorkload:
    def __init__(self, requests):
        self.requests = requests

    def cycle(self, k):
        return self.requests


def raise_error():
    raise ValueError("broken")


def test_failed_requests_count_raised_errors_and_exit_codes(tmp_path):
    requests = [
        Request("raises", raise_error, lambda r: None),
        workloads.cli_request("missing_data", [
            "eval", "--data", tmp_path / "absent.csv",
            "--model", tmp_path / "absent.json"]),
        workloads.cli_request("usage_error", ["fit", "--a", "-1"]),
        Request("ok", lambda: 1, lambda r: None),
        Request("wrong_output", lambda: 1, lambda r: "wrong"),
    ]
    outcomes = run.run_cycles(FakeWorkload(requests), [0])
    failures = {o.kind: o.failure for o in outcomes}
    assert failures["raises"].startswith("raised ValueError")
    assert "exited with code 4" in failures["missing_data"]
    assert "exited with code 2" in failures["usage_error"]
    assert failures["ok"] is None
    assert failures["wrong_output"] == "wrong"
    assert sum(o.failure is not None for o in outcomes) / len(outcomes) == 0.8

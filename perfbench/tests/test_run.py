import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_holds_declared_metrics(trace, section):
    done = run_bench(ROOT, "--workload", "em_q16", "--seed", 3,
                     "--seconds", 0.1, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}
    for m in DECLARED[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert not (ROOT / ".perfbench_work").exists()


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "em_q16", "--seed", 1,
                     "--seconds", 1)
    assert done.returncode != 0
    assert done.stdout == ""

"""The benchmark's command line ends every run with its JSON result.

Short runs of ``perfbench/run.py`` for both registered workloads, and one
traced run, as subprocesses: each must exit 0 with nothing on stderr, and
its last stdout line must be the result, with every metric that
BENCHMARK.json names present.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_ends_with_a_correct_result(workload):
    metrics = _run("--workload", workload, "--seed", "0", "--seconds", "1")
    for spec in SPEC["end_to_end"]:
        value = metrics[spec["name"]]["value"]
        assert isinstance(value, float) and math.isfinite(value) and value > 0.0


def test_traced_run_reports_every_layer_metric():
    metrics = _run("--workload", "campaign_sweep", "--seed", "0",
                   "--trace", "1")
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in metrics] \
        == []

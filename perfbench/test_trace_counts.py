"""The traced run's counts repeat exactly across runs with the same seed.

Runs the benchmark twice per workload as separate processes (`--seconds 1`,
so one untraced pass and one traced pass each); about three minutes in all:

    python3 -m pytest perfbench/test_trace_counts.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import COUNT_METRICS, METRICS  # noqa: E402


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["generation", "triangles", "corpus"])
def test_counts_repeat(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(METRICS)
    counts = {name: first["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNT_METRICS}
    assert any(counts[name] for name in COUNT_METRICS if name.endswith(".calls"))

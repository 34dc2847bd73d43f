"""Smoke test of `perfbench/run.py`: a short `plain` run, untraced and
traced, ends correct with no failed op. A rename in gridshare that the
tracer's wrappers depend on fails here rather than in a benchmark run."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("trace", [0, 1])
def test_perfbench_plain_smoke(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "plain", "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout

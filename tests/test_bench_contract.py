"""The benchmark's set-up probe calls the package from outside
(``bench/setup_probe.py``: ``init_search``, ``step``, the per-point
objective); it must keep running against the current API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("problem,mode", [("smd1", "nested"), ("smd12", "cr")])
def test_setup_probe_runs(problem, mode):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "setup_probe.py"),
                          ROOT, problem, mode, "0"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.strip().splitlines()[-1]) > 0.0

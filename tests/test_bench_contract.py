"""The benchmark's set-up probe calls the package from outside
(``bench/setup_probe.py``: ``init_search``, ``step``, the per-point
objective); it must keep running against the current API, and the tracer
(``bench/tracer.py``) must see the gate at the attributes it wraps."""

import os
import subprocess
import sys
from collections import Counter

import pytest

import crblea.crframework as crf
from crblea import HarnessConfig, TerminationRule, run_single

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("problem,mode", [("smd1", "nested"), ("smd12", "cr")])
def test_setup_probe_runs(problem, mode):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "setup_probe.py"),
                          ROOT, problem, mode, "0"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.strip().splitlines()[-1]) > 0.0


def test_the_gate_runs_behind_the_attributes_the_tracer_wraps(monkeypatch):
    # counting pass-through wrappers, set where bench/tracer.py sets its own
    cfg = HarnessConfig(problem="tq", mode="cr", upper=6, termination=TerminationRule(fes_u_max=150))
    plain = run_single(cfg, 0)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("pgr", "ranking_scores"):
        monkeypatch.setattr(crf, name, counted(name, getattr(crf, name)))
    record = run_single(cfg, 0)
    assert record.to_dict() == plain.to_dict() and record.trainings_done >= 1
    # each gate scores its parents and its offspring, and a resampled batch
    assert calls["ranking_scores"] == 2 * calls["pgr"] + record.resamplings > 0

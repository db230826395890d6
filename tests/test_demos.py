"""The demos run to completion against the current package.

``demos/smd1_comparison.py`` (about 18 s) is left out.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_ranking_network_demo():
    out = run_demo("ranking_network_demo.py")
    assert out.returncode == 0, out.stderr
    assert "correlation between (negated) score and F: 0.706" in out.stdout


def test_toy_walkthrough():
    out = run_demo("toy_walkthrough.py")
    assert out.returncode == 0, out.stderr

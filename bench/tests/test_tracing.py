"""Tracing must not change what a run does, and must clean up after itself.

    python3 -m pytest bench/tests
"""

import importlib

import pytest

from crblea.cli import run_single
from _corpus import protocol_config
from tracer import BOUNDARIES, Tracer


def _current_attributes():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in BOUNDARIES}


@pytest.mark.parametrize("mode", ["nested", "cr"])
def test_traced_tq_run_matches_untraced(mode):
    cfg = protocol_config("tq", mode)
    originals = _current_attributes()
    plain = run_single(cfg, 0)
    tracer = Tracer()
    with tracer.installed():
        assert all(_current_attributes()[key] is not fn for key, fn in originals.items())
        traced = run_single(cfg, 0)
    assert _current_attributes() == originals
    assert traced.to_dict() == plain.to_dict()
    assert (tracer.ledger.fes_u, tracer.ledger.fes_l) == (plain.fes_u, plain.fes_l)
    assert tracer.calls("problems.evaluate_lower") == plain.fes_l
    assert tracer.calls("nested.lower_level_search") == plain.fes_u
    assert (tracer.calls("ranknet.train") > 0) == (mode == "cr")


def test_wrappers_restored_when_the_run_raises():
    originals = _current_attributes()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("run failed")
    assert _current_attributes() == originals

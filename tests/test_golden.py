"""Golden records: the evaluation and search paths must reproduce, bit for bit,
records and evaluations captured from the reference implementation.

Any change that is meant to speed up a path without changing its behaviour
must keep these passing unchanged.  A change that is meant to alter the
behaviour (a new RNG stream, a different search) updates the pins and says
why.
"""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from crblea import EvalLedger, TerminationRule
from crblea.cli import run_single
from crblea.problems import evaluate_lower, evaluate_upper, get_problem, make_smd, problem_names
from _corpus import CACHE_DIR, protocol_config


def _sha1(record):
    return hashlib.sha1(json.dumps(record.to_dict(), sort_keys=True).encode()).hexdigest()


def _fresh_and_cached(problem, mode):
    """Seed-0 protocol run made now, and its record in the corpus cache."""
    with open(os.path.join(CACHE_DIR, f"{problem}_{mode}_seed0.json")) as fh:
        cached = json.load(fh)
    record = run_single(protocol_config(problem, mode), 0)
    return json.loads(json.dumps(record.to_dict())), cached


@pytest.mark.parametrize("mode", ["nested", "cr"])
def test_tq_protocol_run_matches_cached_corpus_record(mode):
    fresh, cached = _fresh_and_cached("tq", mode)
    assert fresh == cached


# The acceptance criteria judge cached runs; a fresh SMD1 run must still equal
# its cached record, so an algorithm change cannot leave them judging stale runs.
@pytest.mark.parametrize("mode", ["nested", "cr"])
def test_smd1_protocol_run_matches_cached_corpus_record(mode):
    fresh, cached = _fresh_and_cached("smd1", mode)
    assert fresh == cached


# Short-budget runs: (config, sha1 of the sorted-key JSON record).
# smd12 is constrained at both levels, so the feasibility-first paths of the
# lower CMA-ES, the upper selection and the gated CR loop (2 trainings, 2
# resamplings at this budget) are all live.  The smd6 run is the nested
# baseline with the default lower configuration.  Both start every task after
# the first from archived responses.
SHORT_RUNS = {
    "smd12-cr-lowercma": (
        replace(protocol_config("smd12", "cr"),
                termination=TerminationRule(fes_u_max=120, fes_l_max=100)),
        "6f61f8b5f18a77f9cb655c5cf431507af1ef0482",
    ),
    "smd6-nested-lowercma": (
        replace(protocol_config("smd6", "nested"),
                termination=TerminationRule(fes_u_max=60, fes_l_max=100)),
        "e35d0868ee4f4a6f8fc72dc880b8fc4efa2da869",
    ),
}


@pytest.mark.parametrize("name", sorted(SHORT_RUNS))
def test_short_run_record_sha1(name):
    cfg, digest = SHORT_RUNS[name]
    assert _sha1(run_single(cfg, 0)) == digest


# sha1 over (f, F, feasible, FEASIBLE, g, G) of 64 uniform points per problem.
EVALUATION_SHA1 = {
    "smd1": "ea5cf87c06bb86af1d40df39fc600a9c9253d319",
    "smd10": "279e0abe0a85e91c69a7c73481c02a3699b83c77",
    "smd11": "255aaf468508c886dc7130235f2c9603b625020f",
    "smd12": "e730071b02b1534cf6a3ba413d36e2bd6e26cd2e",
    "smd2": "6ffbd84024e376f4f582c1a59d4acb39b88ca6ad",
    "smd3": "85bc270218a767debbf6d72ac6b6feb764eb3cf6",
    "smd4": "b90a906d297d38cd6c4c850b345ab0ddb31da61b",
    "smd5": "c64a5daecec49da876ca1c5418efa6895c849e8d",
    "smd6": "91b2441797cb9f067dbdbf621fa7fe818e958982",
    "smd7": "80efa41e00c4b0e7c162f0a60f96792ef0d77ef2",
    "smd8": "c5cf3b0f3138f12ab74b3c2dfbf1bd7e3f9fbd5b",
    "smd9": "13d3fdaa7d2edbb62a90bde3f6aace22f5b11da8",
    "tq": "a4d90f0c72d7c9d5f76e66261a14de26f365d94b",
}


def test_every_problem_is_pinned():
    assert sorted(EVALUATION_SHA1) == problem_names()


def _evaluations_sha1(p):
    rng = np.random.default_rng(7)
    ledger = EvalLedger()
    h = hashlib.sha1()
    for _ in range(64):
        x_u = rng.uniform(p.upper_bounds[:, 0], p.upper_bounds[:, 1])
        x_l = rng.uniform(p.lower_bounds[:, 0], p.lower_bounds[:, 1])
        f, g, feasible = evaluate_lower(p, x_u, x_l, ledger)
        F, G, upper_feasible = evaluate_upper(p, x_u, x_l, ledger)
        h.update(np.array([f, F, feasible, upper_feasible], dtype=float).tobytes()
                 + g.tobytes() + G.tobytes())
    assert (ledger.fes_l, ledger.fes_u) == (64, 64)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(EVALUATION_SHA1))
def test_problem_evaluations_sha1(name):
    assert _evaluations_sha1(get_problem(name)) == EVALUATION_SHA1[name]


# SMD10 and SMD12 at larger (m, n), hashed as above.  At (2, 3) every
# "other coordinates" sum of their cubic constraints has one term, so only
# these pins see the order in which a sum of several cubes is added up.
LARGER_SMD_SHA1 = {
    (10, 4, 6): "b35ca3603d0dd39cf7e76a785f0d1998b829af57",
    (10, 6, 9): "e4753889e0b4f3bed476b7444b2741b0816b7073",
    (12, 4, 6): "abb88df5f50cb273b1388db47d77cef597555407",
    (12, 6, 9): "2fb69519bb4a07ae0e5ea9bf9903661bb6a53b99",
}


@pytest.mark.parametrize("index, m, n", sorted(LARGER_SMD_SHA1))
def test_larger_smd_evaluations_sha1(index, m, n):
    assert _evaluations_sha1(make_smd(index, m, n)) == LARGER_SMD_SHA1[index, m, n]

"""Nested baseline: lower-level search, selection, termination, full runs."""

import numpy as np
import pytest

from crblea import (
    ContractViolationError,
    EvalLedger,
    HarnessConfig,
    OptimizerConfig,
    TerminationRule,
    UpperIndividual,
    environmental_selection,
    lower_level_search,
    resolve_individual,
    run_nested_blea,
)
from crblea.nested import BestTracker, check_upper_termination, upper_variation
from crblea.optimizers import CMAES
from crblea.problems import get_problem

TOY = get_problem("tq")  # lower optimum at x_l = x_u + c with c = (-2, -2)


def small_config(**kwargs):
    defaults = dict(
        problem="tq",
        upper=OptimizerConfig(pop_size=6),
        termination=TerminationRule(fes_u_max=120, fes_u_var_window=40),
    )
    defaults.update(kwargs)
    return HarnessConfig(**defaults)


def make_ind(F, violation=0.0):
    return UpperIndividual(x_u=np.zeros(2), x_l_star=np.zeros(2), F=F,
                           f_star=0.0, violation=violation,
                           feasible=violation == 0.0)


class TestTerminationRule:
    def test_defaults(self):
        rule = TerminationRule()
        assert (rule.fes_u_max, rule.fes_l_max) == (2500, 250)
        assert (rule.fes_u_var_window, rule.fes_l_var_window) == (350, 25)
        rule.validate()

    @pytest.mark.parametrize("field", ["fes_u_max", "fes_l_max", "target_acc"])
    def test_positive_required(self, field):
        with pytest.raises(ContractViolationError):
            TerminationRule(**{field: 0}).validate()


def test_require_evaluated():
    with pytest.raises(ContractViolationError):
        UpperIndividual(x_u=np.zeros(2)).require_evaluated()
    make_ind(1.0).require_evaluated()


def test_lower_search_recovers_toy_response():
    rule = TerminationRule()
    cfg = OptimizerConfig(kind=CMAES, pop_size=5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x_u = rng.uniform(-3, 3, 2)
        x_l, f = lower_level_search(TOY, x_u, cfg, rule, EvalLedger(), rng=rng)
        assert np.max(np.abs(x_l - (x_u - 2.0))) < 1e-2
        assert f < 1e-4


def test_lower_search_respects_budget():
    # 37 = 5 initial + 6 generations of 5 + 2 points of a generation the cap cuts short
    seen = []

    def lower(x_u, x_l):
        f, g = TOY.lower(x_u, x_l)
        seen.append((f, x_l.copy()))
        return f, g

    p = type(TOY)(
        name="tq-logged", m=2, n=2, upper_bounds=TOY.upper_bounds,
        lower_bounds=TOY.lower_bounds, upper=TOY.upper, lower=lower, optimum=TOY.optimum,
    )
    rule = TerminationRule(fes_l_max=37, lower_var_eps=1e-300)
    ledger = EvalLedger()
    x_l, f = lower_level_search(p, np.zeros(2), OptimizerConfig(kind=CMAES, pop_size=5),
                                rule, ledger, rng=np.random.default_rng(0))
    assert ledger.fes_l == len(seen) == 37
    best_f, best_x = min(seen, key=lambda s: s[0])
    assert f == best_f
    assert np.array_equal(x_l, best_x)


def test_lower_search_budget_must_cover_initial_population():
    ledger = EvalLedger()
    with pytest.raises(ContractViolationError):
        lower_level_search(TOY, np.zeros(2), OptimizerConfig(kind=CMAES, pop_size=5),
                           TerminationRule(fes_l_max=4), ledger, rng=np.random.default_rng(0))
    assert ledger.fes_l == 0


def test_lower_search_stagnation_stops_early():
    # a constant landscape stalls immediately; the window should cut the task
    flat = get_problem("tq")
    p = type(flat)(
        name="flat", m=2, n=2,
        upper_bounds=flat.upper_bounds, lower_bounds=flat.lower_bounds,
        upper=flat.upper, lower=lambda xu, xl: (1.0, np.empty(0)),
        optimum=(0.0, 0.0),
    )
    rule = TerminationRule(fes_l_max=250)
    ledger = EvalLedger()
    lower_level_search(p, np.zeros(2), OptimizerConfig(kind=CMAES, pop_size=5),
                       rule, ledger, rng=np.random.default_rng(0))
    assert ledger.fes_l < 100


def test_environmental_selection_feasibility_first():
    pool = [make_ind(5.0), make_ind(1.0, violation=2.0), make_ind(3.0),
            make_ind(-9.0, violation=0.5), make_ind(4.0)]
    kept = environmental_selection(pool, 3)
    assert [ind.F for ind in kept] == [3.0, 4.0, 5.0]


def test_environmental_selection_stable_ties():
    a, b, c = make_ind(1.0), make_ind(1.0), make_ind(2.0)
    assert environmental_selection([a, b, c], 2) == [a, b]


def test_environmental_selection_pool_too_small():
    with pytest.raises(ContractViolationError):
        environmental_selection([make_ind(1.0)], 2)


class TestUpperTermination:
    def test_budget(self):
        ledger = EvalLedger(fes_u=2500)
        assert check_upper_termination(ledger, [1.0], TerminationRule()) == "budget"

    def test_stagnation(self):
        rule = TerminationRule(fes_u_var_window=10)
        history = [5.0] * 3 + [1.0] * 10
        assert check_upper_termination(EvalLedger(), history, rule) == "stagnation"
        assert check_upper_termination(EvalLedger(), history[:9], rule) is None

    def test_target(self):
        rule = TerminationRule()
        assert check_upper_termination(
            EvalLedger(), [5.0, 1e-8], rule, known_opt=(0.0, 0.0)) == "target"
        # infeasible incumbents never trigger the target stop
        assert check_upper_termination(
            EvalLedger(), [1e-8], rule, known_opt=(0.0, 0.0), best_feasible=False) is None


def test_best_tracker_elitist_history():
    tracker = BestTracker()
    for F in (5.0, 7.0, 2.0, 3.0):
        tracker.observe(make_ind(F))
    assert tracker.history == [5.0, 5.0, 2.0, 2.0]
    assert tracker.best.F == 2.0


@pytest.mark.parametrize("kind", ["de", "cmaes"])
def test_upper_variation_count_and_bounds(kind):
    rng = np.random.default_rng(0)
    parents = [make_ind(float(i)) for i in range(6)]
    for i, ind in enumerate(parents):
        ind.x_u = rng.uniform(-4, 9, 2)
    bounds = np.tile([-5.0, 10.0], (2, 1))
    out = upper_variation(parents, OptimizerConfig(kind=kind, pop_size=6), bounds, rng, count=4)
    assert len(out) == 4
    for x in out:
        assert np.all(x >= -5.0) and np.all(x <= 10.0)


def test_upper_variation_unknown_kind():
    parents = [make_ind(0.0) for _ in range(4)]
    with pytest.raises(ContractViolationError):
        upper_variation(parents, OptimizerConfig(kind="x", pop_size=4),
                        np.tile([-1.0, 1.0], (2, 1)), np.random.default_rng(0))


class TestFullRun:
    def test_toy_run_record_consistency(self):
        record = run_nested_blea(TOY, small_config(), seed=3)
        assert record.problem == "tq" and record.mode == "nested"
        assert record.fes_t == record.fes_u + record.fes_l
        assert record.fes_u <= 120
        assert record.stop_reason in ("budget", "stagnation", "target")
        fes = [t[0] for t in record.trace]
        assert fes == sorted(fes)
        best = [t[1] for t in record.trace]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_seeded_determinism(self):
        r1 = run_nested_blea(TOY, small_config(), seed=11)
        r2 = run_nested_blea(TOY, small_config(), seed=11)
        assert r1.to_dict() == r2.to_dict()

    def test_population_formula_recorded(self):
        record = run_nested_blea(get_problem("smd1"), HarnessConfig(
            problem="smd1",
            termination=TerminationRule(fes_u_max=30, fes_u_var_window=10),
        ), seed=0)
        assert record.pop_size_upper == 5  # 4 + floor(ln(2 + 3))
        assert record.pop_size_lower == 5  # 4 + floor(ln(3))
        assert "4+floor(ln(m+n))" in record.pop_formula

    def test_resolve_individual_counts_one_upper_fe(self):
        ledger = EvalLedger()
        cfg = small_config().resolved(TOY)
        ind = resolve_individual(TOY, np.zeros(2), cfg, ledger, np.random.default_rng(0))
        assert ledger.fes_u == 1
        assert ind.F is not None and ind.x_l_star is not None

"""Nested baseline: lower-level search, selection, termination, full runs."""

import numpy as np
import pytest

from crblea import (
    ConfigurationError,
    ContractViolationError,
    evaluate_upper,
    nested,
    EvalLedger,
    HarnessConfig,
    LowerConfig,
    NestedRun,
    TerminationRule,
    UpperConfig,
    UpperIndividual,
    environmental_selection,
    lower_level_search,
    run_nested_blea,
)
from crblea.cli import run_single
from crblea.nested import check_upper_termination, upper_variation
from crblea.problems import get_problem

TOY = get_problem("tq")  # lower optimum at x_l = x_u + c with c = (-2, -2)


def small_config(**kwargs):
    defaults = dict(
        problem="tq",
        upper=UpperConfig(pop_size=6),
        termination=TerminationRule(fes_u_max=120, fes_u_var_window=40),
    )
    defaults.update(kwargs)
    return HarnessConfig(**defaults)


def make_ind(F, violation=0.0):
    return UpperIndividual(x_u=np.zeros(2), x_l_star=np.zeros(2), F=F,
                           f_star=0.0, violation=violation)


class TestTerminationRule:
    def test_defaults(self):
        rule = TerminationRule()
        assert (rule.fes_u_max, rule.fes_l_max) == (2500, 250)
        assert (rule.fes_u_var_window, rule.fes_l_var_window) == (350, 25)
        rule.validate()

    @pytest.mark.parametrize("field", ["fes_u_max", "fes_l_max", "target_acc"])
    def test_positive_required(self, field):
        with pytest.raises(ConfigurationError, match=f"termination.{field}"):
            TerminationRule(**{field: 0}).validate()


def test_require_evaluated():
    with pytest.raises(ContractViolationError):
        UpperIndividual(x_u=np.zeros(2)).require_evaluated()
    make_ind(1.0).require_evaluated()


def test_lower_search_recovers_toy_response():
    rule = TerminationRule()
    cfg = LowerConfig(pop_size=5)
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
    x_l, f = lower_level_search(p, np.zeros(2), LowerConfig(pop_size=5),
                                rule, ledger, rng=np.random.default_rng(0))
    assert ledger.fes_l == len(seen) == 37
    best_f, best_x = min(seen, key=lambda s: s[0])
    assert f == best_f
    assert np.array_equal(x_l, best_x)


def test_lower_search_budget_must_cover_initial_population():
    ledger = EvalLedger()
    with pytest.raises(ContractViolationError):
        lower_level_search(TOY, np.zeros(2), LowerConfig(pop_size=5),
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
    lower_level_search(p, np.zeros(2), LowerConfig(pop_size=5),
                       rule, ledger, rng=np.random.default_rng(0))
    assert ledger.fes_l < 100


def test_environmental_selection_feasibility_first():
    # feasibles by F, then every feasible before any infeasible, then
    # infeasibles by violation whatever their F
    pool = [make_ind(5.0), make_ind(0.0, violation=2.0), make_ind(3.0),
            make_ind(9.0, violation=1.0), make_ind(4.0)]
    assert [ind.F for ind in environmental_selection(pool, 3)] == [3.0, 4.0, 5.0]
    assert [ind.F for ind in environmental_selection(pool, 5)] == [3.0, 4.0, 5.0, 9.0, 0.0]


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


def test_resolve_keeps_the_elitist_history(monkeypatch):
    run = NestedRun(TOY, small_config(), seed=0)
    Fs = iter((5.0, 7.0, 2.0, 3.0))
    monkeypatch.setattr(nested, "evaluate_upper", lambda *args: (next(Fs), np.empty(0), True))
    for _ in range(4):
        run.resolve(np.zeros(2))
    assert run.history == [5.0, 5.0, 2.0, 2.0]
    assert run.best.F == 2.0


def test_upper_variation_count_and_bounds():
    rng = np.random.default_rng(0)
    parents = [make_ind(float(i)) for i in range(6)]
    for i, ind in enumerate(parents):
        ind.x_u = rng.uniform(-4, 9, 2)
    bounds = np.tile([-5.0, 10.0], (2, 1))
    out = upper_variation(parents, UpperConfig(pop_size=6), bounds, rng)
    assert len(out) == 6  # one offspring per parent
    for x in out:
        assert np.all(x >= -5.0) and np.all(x <= 10.0)


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

    def test_resolve_counts_one_upper_fe(self):
        run = NestedRun(TOY, small_config(), seed=0)
        ind = run.resolve(np.zeros(2))
        assert run.ledger.fes_u == 1
        assert ind.F is not None and ind.x_l_star is not None


@pytest.mark.parametrize("mode", ["nested", "cr"])
def test_budget_smaller_than_the_upper_population(monkeypatch, mode):
    tasks = []
    search = nested.lower_level_search

    def task(*args, **kwargs):
        tasks.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(nested, "lower_level_search", task)
    record = run_single(small_config(mode=mode, termination=TerminationRule(fes_u_max=3)), 0)
    assert record.pop_size_upper == 6
    assert record.stop_reason == "budget"
    assert record.fes_u == 3 and len(tasks) == 3
    assert record.trace[-1][0] == record.fes_t


class TestWarmStart:
    """Lower tasks start from the responses of nearby, already resolved upper
    points; only the first task of a run starts cold."""

    def test_first_task_of_a_run_takes_the_cold_path(self, monkeypatch):
        # (x_l*, f*) of the first SMD1 task of protocol seed 0, as computed by
        # the search before warm starts existed
        p = get_problem("smd1")
        cfg = HarnessConfig(problem="smd1", upper=UpperConfig(pop_size=20)).resolved(p)
        rng = np.random.default_rng(0)
        x_u = rng.uniform(p.upper_bounds[:, 0], p.upper_bounds[:, 1])
        ledger = EvalLedger()
        x_l, f = lower_level_search(p, x_u, cfg.lower, cfg.termination, ledger, rng=rng)
        assert x_l.tolist() == [0.013245212782954499, -0.0054774622445883225, -0.7686469675541575]
        assert f == 0.0003971843755323877
        assert ledger.fes_l == 250

        starts = []
        search = nested.lower_level_search

        def recording(*args, **kwargs):
            starts.append(kwargs.get("start"))
            return search(*args, **kwargs)

        monkeypatch.setattr(nested, "lower_level_search", recording)
        run_nested_blea(p, HarnessConfig(
            problem="smd1", upper=UpperConfig(pop_size=20),
            termination=TerminationRule(fes_u_max=25)), seed=0)
        assert starts[0] is None
        assert len(starts) == 25 and all(s is not None for s in starts[1:])

    @pytest.mark.parametrize("mode", ["nested", "cr"])
    def test_ledger_counts_every_evaluation_and_no_task_exceeds_its_cap(self, monkeypatch, mode):
        calls = {"lower": 0, "upper": 0}
        tasks = []
        evaluate_lower, evaluate_upper = nested.evaluate_lower, nested.evaluate_upper
        search = nested.lower_level_search

        def counted_lower(*args):
            calls["lower"] += 1
            return evaluate_lower(*args)

        def counted_upper(*args):
            calls["upper"] += 1
            return evaluate_upper(*args)

        def task(p, x_u, cfg, rule, ledger, rng=None, **kwargs):
            before = ledger.fes_l
            out = search(p, x_u, cfg, rule, ledger, rng=rng, **kwargs)
            tasks.append(ledger.fes_l - before)
            return out

        confirmations = []
        confirm = NestedRun.confirm_elite

        def counted_confirm(run):
            confirmations.append(1)
            return confirm(run)

        monkeypatch.setattr(nested, "evaluate_lower", counted_lower)
        monkeypatch.setattr(nested, "evaluate_upper", counted_upper)
        monkeypatch.setattr(nested, "lower_level_search", task)
        monkeypatch.setattr(NestedRun, "confirm_elite", counted_confirm)
        rule = TerminationRule(fes_u_max=400, fes_u_var_window=40, fes_l_max=60)
        cfg = HarnessConfig(problem="smd5", mode=mode, upper=UpperConfig(pop_size=10),
                            termination=rule)
        record = run_single(cfg, 1)
        assert confirmations, "the run never reached the stagnation confirmation"
        assert (record.fes_l, record.fes_u) == (calls["lower"], calls["upper"])
        assert sum(tasks) == record.fes_l and len(tasks) == record.fes_u
        assert max(tasks) <= rule.fes_l_max
        assert record.trace[-1][0] == record.fes_t

    def test_warm_started_smd1_task_resolves_its_response(self):
        # Started from the exact responses of five upper points within about
        # 0.05 of x_u, every task ends below 1e-5; from a cold start the same
        # search leaves a median residual near 6e-4 at these points.
        p = get_problem("smd1")
        cfg = HarnessConfig(problem="smd1").resolved(p)
        low, high = p.upper_bounds[:, 0], p.upper_bounds[:, 1]
        rng = np.random.default_rng(3)
        for _ in range(10):
            x_u = rng.uniform(low, high)
            near = np.clip(x_u + rng.normal(0.0, 0.05, (5, 2)), low, high)
            start = np.array([[0.0, 0.0, np.arctan(v[1])] for v in near])
            ledger = EvalLedger()
            _, f = lower_level_search(p, x_u, cfg.lower, cfg.termination, ledger, rng=rng,
                                      start=start)
            assert f < 1e-5  # SMD1's lower optimum value is 0 at every x_u
            assert ledger.fes_l <= cfg.termination.fes_l_max


def _archive_of(points):
    """An archive over the unit square holding one member per upper point;
    member i's response is [i]."""
    archive = nested.ResponseArchive(np.tile([0.0, 1.0], (2, 1)))
    for i, x_u in enumerate(points):
        archive.add(UpperIndividual(x_u=np.asarray(x_u, dtype=float), x_l_star=np.array([i])))
    return archive


def _stable_order(points, x_u, k):
    d = ((np.asarray(points, dtype=float) - x_u) ** 2).sum(axis=1)
    return np.argsort(d, kind="stable")[:k]


class TestNearest:
    def test_empty_archive(self):
        assert _archive_of([]).nearest(np.array([0.5, 0.5]), 3) is None

    def test_one_member(self):
        assert _archive_of([[0.2, 0.9]]).nearest(np.array([0.5, 0.5]), 5).tolist() == [[0]]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 9, 12, 40])
    def test_ties_ordered_as_a_stable_sort(self, k):
        # duplicate upper points tie exactly, and the ties straddle the k-th place
        rng = np.random.default_rng(k)
        base = rng.uniform(0.0, 1.0, (4, 2))
        points = base[rng.integers(0, 4, 12)]
        archive = _archive_of(points)
        for x_u in (base[0], rng.uniform(0.0, 1.0, 2)):
            got = archive.nearest(x_u, k)[:, 0]
            assert got.tolist() == _stable_order(points, x_u, k).tolist()

    def test_matches_a_stable_sort_past_the_initial_capacity(self):
        rng = np.random.default_rng(1)
        points = np.round(rng.uniform(0.0, 1.0, (150, 2)), 1)  # many exact ties
        archive = _archive_of(points)
        for x_u in rng.uniform(0.0, 1.0, (20, 2)):
            assert archive.nearest(x_u, 5)[:, 0].tolist() == _stable_order(points, x_u, 5).tolist()


def test_confirm_elite_corrects_an_unresolved_best():
    # SMD2's F rewards lower residuals (-|x_l1|^2), so a response left far
    # from x_l1 = 0 makes a spuriously good elite.
    p = get_problem("smd2")
    run = NestedRun(p, HarnessConfig(problem="smd2"), seed=0)
    cfg, ledger = run.cfg, run.ledger
    P_u = run.P_u = [run.resolve(x_u) for x_u in ([0.5, 0.5], [0.4, 0.6], [-0.3, 0.2])]
    bad = P_u[0]
    bad.x_l_star = np.array([3.0, -3.0, bad.x_l_star[2]])
    bad.F = evaluate_upper(p, bad.x_u, bad.x_l_star, ledger)[0]
    run.best = min(P_u, key=lambda ind: ind.F)  # every member is feasible
    assert run.best is bad
    fes_u, fes_l, spurious_F = ledger.fes_u, ledger.fes_l, bad.F

    run.confirm_elite()
    assert bad.confirmed and bad.F > spurious_F + 1.0
    assert np.abs(bad.x_l_star[:2]).max() < 0.1
    assert run.best is min(P_u, key=lambda ind: ind.F) and run.best.confirmed
    spent_u = ledger.fes_u - fes_u
    assert ledger.fes_l - fes_l <= spent_u * cfg.termination.fes_l_max
    assert len(run.history) == len(P_u) + spent_u
    assert ledger.trace == [(ledger.fes_t, run.best.F)]

    before = (ledger.fes_u, ledger.fes_l, len(ledger.trace))
    run.confirm_elite()
    assert (ledger.fes_u, ledger.fes_l, len(ledger.trace)) == before  # a confirmed best is not re-solved

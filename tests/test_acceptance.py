"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run pytest with ``-s`` to see them for passing tests).  The experiment-backed
criteria (1-5) read the shared cached run corpus (see ``_corpus.py``), which
is committed whole.  A record missing from it fails its test with an error
that names ``python3 tests/_corpus.py``, the script that computes every
missing record on all cores.
"""

import statistics

import numpy as np
import pytest

import _corpus
import test_crframework
import test_ranknet
from crblea import (
    EvalLedger,
    HarnessConfig,
    TerminationRule,
    evaluate_lower,
    evaluate_upper,
    get_problem,
    lower_level_search,
    pdp,
    pool_trigger_size,
    resource_saving_rate,
    wilcoxon_ranksum,
)
from crblea.cli import run_single
from crblea.ranknet import RankNetParams, pair_forward, ranking_scores


def verdict(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def median_of(problem, mode, attr):
    return statistics.median(getattr(r, attr) for r in _corpus.records_for(problem, mode))


def saving_percent(problem):
    return resource_saving_rate(median_of(problem, "cr", "fes_t"),
                                median_of(problem, "nested", "fes_t"))


def test_criterion_1_resource_saving_reproduction():
    savings = {p: saving_percent(p) for p in _corpus.SAVINGS_INSTANCES}
    avg = sum(savings.values()) / len(savings)
    per_instance_ok = all(s >= 20.0 for s in savings.values())
    detail = ("median total-FE saving per instance "
              + ", ".join(f"{p}={s:.1f}%" for p, s in savings.items())
              + f"; average {avg:.1f}% (need >=20% each, >=25% average)")
    verdict(1, per_instance_ok and avg >= 25.0, detail)


def test_criterion_2_accuracy_preservation():
    marks = {}
    for p in _corpus.SAVINGS_INSTANCES:
        nested = [r.acc_u for r in _corpus.records_for(p, "nested")]
        cr = [r.acc_u for r in _corpus.records_for(p, "cr")]
        marks[p] = wilcoxon_ranksum(nested, cr)
    not_worse = sum(1 for m in marks.values() if m in ("≈", "+"))
    detail = ("upper-accuracy rank-sum marks "
              + ", ".join(f"{p}={m}" for p, m in marks.items())
              + f"; {not_worse}/8 not significantly worse (need >=7)")
    verdict(2, not_worse >= 7, detail)


def test_criterion_3_hard_instance_direction():
    smd6 = _corpus.records_for("smd6", "nested") + _corpus.records_for("smd6", "cr")
    completed = all(r.stop_reason in ("budget", "stagnation", "target") for r in smd6)
    savings = {p: saving_percent(p) for p in _corpus.SAVINGS_INSTANCES + ("smd6",)}
    ranked = sorted(savings.values())
    near_minimum = savings["smd6"] <= ranked[1]  # smallest or second smallest
    detail = (f"all {len(smd6)} runs completed={completed}; "
              f"smd6 saving {savings['smd6']:.1f}% vs suite minimum {ranked[0]:.1f}% "
              "(need completion and near-minimum saving)")
    verdict(3, completed and near_minimum, detail)


def test_criterion_4_model_accuracy():
    means = {}
    for p in ("smd1", "smd5"):
        entries = [a for r in _corpus.records_for(p, "cr") for a in r.model_acc_history]
        means[p] = sum(entries) / len(entries)
    detail = ("mean historical model accuracy "
              + ", ".join(f"{p}={m:.3f}" for p, m in means.items())
              + " (need >=0.70 on both)")
    verdict(4, all(m >= 0.70 for m in means.values()), detail)


def test_criterion_5_ablation_direction():
    instances = _corpus.ABLATION_INSTANCES
    cr = {p: median_of(p, "cr", "fes_t") for p in instances}
    no_net = {p: median_of(p, "cr_no_net", "fes_t") for p in instances}
    no_rs = {p: median_of(p, "cr_no_resample", "fes_t") for p in instances}
    no_net_costs_more = statistics.mean(no_net.values()) >= statistics.mean(cr.values())
    no_rs_costs_more = statistics.mean(no_rs.values()) >= statistics.mean(cr.values())
    acc_lost = any(
        median_of(p, "cr_no_net", "acc_u") > median_of(p, "cr", "acc_u")
        for p in instances
    )
    detail = (f"median FEs_t over {'/'.join(instances)}: "
              f"cr={statistics.mean(cr.values()):.0f}, "
              f"random-choice={statistics.mean(no_net.values()):.0f}, "
              f"no-resample={statistics.mean(no_rs.values()):.0f}; "
              f"random choice loses accuracy somewhere={acc_lost}")
    verdict(5, no_net_costs_more and no_rs_costs_more and acc_lost, detail)


def test_criterion_6_exact_arithmetic():
    from crblea.stats import accuracy

    checks = []
    checks.append(accuracy(5.0, 5.0) == 1e-6)
    rate = resource_saving_rate(1.28e4, 2.03e4)
    checks.append(36.9 <= rate <= 37.1)
    for N in (2, 6, 11):
        ds = pdp(test_ranknet.make_pool(range(N)))
        checks.append(len(ds) == N * (N - 1))
    from types import SimpleNamespace

    checks.append(pool_trigger_size(SimpleNamespace(param_count=9)) == 10)
    checks.append(pool_trigger_size(SimpleNamespace(param_count=10)) == 11)
    verdict(6, all(checks),
            f"accuracy clamp, saving rate {rate:.2f}%, pair counts, "
            f"pool triggers: {sum(checks)}/{len(checks)} exact checks hold")


def test_criterion_7_numerical_properties():
    failures = []

    worst_grad = max(test_ranknet.gradient_relative_error(seed) for seed in range(20))
    if worst_grad > 1e-4:
        failures.append(f"gradient error {worst_grad:.2e}")

    rng = np.random.default_rng(0)
    params = RankNetParams.init(2, 3, 6, rng)
    worst_anti = 0.0
    for _ in range(50):
        xi, xj = rng.uniform(0, 1, (2, 2))
        worst_anti = max(worst_anti, abs(
            pair_forward(params, xi, xj) + pair_forward(params, xj, xi) - 1.0))
        s_i, s_j = ranking_scores(params, [xi, xj])
        if (s_i > s_j) != (pair_forward(params, xi, xj) > 0.5):
            failures.append("score/pair inconsistency")
        x = rng.uniform(0, 1, 2)
        if pair_forward(params, x, x) != 0.5:
            failures.append("self comparison not exactly 0.5")
    if worst_anti > 1e-12:
        failures.append(f"antisymmetry residual {worst_anti:.2e}")

    p = get_problem("smd1")
    ledger = EvalLedger()
    x_u, x_l = p.optimum_point
    for _ in range(3):
        evaluate_upper(p, x_u, x_l, ledger)
    for _ in range(7):
        evaluate_lower(p, x_u, x_l, ledger)
    if (ledger.fes_u, ledger.fes_l, ledger.fes_t) != (3, 7, 10):
        failures.append("ledger miscount")

    cfg = HarnessConfig(problem="tq", mode="cr", upper=6,
                        termination=TerminationRule(fes_u_max=80, fes_u_var_window=30))
    if run_single(cfg, 9).to_dict() != run_single(cfg, 9).to_dict():
        failures.append("seeded runs not identical")

    verdict(7, not failures,
            f"gradient<=1e-4 (worst {worst_grad:.2e}), antisymmetry<=1e-12 "
            f"(worst {worst_anti:.2e}), exact 0.5 self-ties, score consistency, "
            f"ledger exactness, determinism; failures: {failures or 'none'}")


def test_criterion_8_oracles():
    failures = []

    # closed-form lower-level response recovery: x_l*(x_u) = x_u + c
    p = get_problem("tq")
    rng = np.random.default_rng(1)
    rule = TerminationRule()
    worst = 0.0
    for _ in range(20):
        # keep the response target x_u + c inside the lower-level box
        x_u = rng.uniform(p.lower_bounds[:, 0] + 2.0, p.upper_bounds[:, 1])
        x_l, _ = lower_level_search(p, x_u, 5, rule, EvalLedger(), rng=rng)
        worst = max(worst, float(np.max(np.abs(x_l - (x_u - 2.0)))))
    if worst > 1e-2:
        failures.append(f"response recovery error {worst:.2e}")

    # a full nested run solves the toy problem to 1e-4
    toy_acc = median_of("tq", "nested", "acc_u")
    if toy_acc > 1e-4:
        failures.append(f"toy nested accuracy {toy_acc:.2e}")

    # per-generation lower-FE spending exactly halves after the first training
    n_u = 6
    record = run_single(test_crframework.capped_config(n_u), 0)
    deltas = [b[0] - a[0] for a, b in zip(record.trace, record.trace[1:])]
    full, half = n_u * 41, (n_u // 2) * 41
    ok_halving = (record.trainings_done >= 1 and set(deltas) <= {full, half}
                  and half in deltas
                  and all(d == half for d in deltas[deltas.index(half):]))
    if not ok_halving:
        failures.append(f"per-generation FE deltas {sorted(set(deltas))}")

    verdict(8, not failures,
            f"response recovery worst {worst:.2e} (<=1e-2), toy accuracy "
            f"{toy_acc:.2e} (<=1e-4), exact halving {full}->{half}; "
            f"failures: {failures or 'none'}")

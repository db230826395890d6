"""Resource-allocation framework: retraining, training pools, gating, full runs."""

import math

import numpy as np
import pytest

import crblea.crframework as crf
from crblea import (
    ContractViolationError,
    HarnessConfig,
    NetConfig,
    Normalizer,
    RankNetParams,
    TerminationRule,
    TrainingDivergenceError,
    UpperConfig,
    UpperIndividual,
    pgr,
    retrain,
    run_cr_blea,
    run_nested_blea,
)
from crblea.problems import get_problem
from crblea.ranknet import _PARAM_NAMES, model_accuracy, pdp, scale_init_to_batch, train

TOY = get_problem("tq")
IDENTITY = Normalizer(np.tile([0.0, 1.0], (2, 1)))


def small_config(mode="cr", **kwargs):
    defaults = dict(
        problem="tq",
        mode=mode,
        upper=UpperConfig(pop_size=6),
        termination=TerminationRule(fes_u_max=150, fes_u_var_window=40),
        net=NetConfig(q=2),
    )
    defaults.update(kwargs)
    return HarnessConfig(**defaults)


def evaluated(x, F):
    return UpperIndividual(x_u=np.asarray(x, dtype=float), x_l_star=np.zeros(2),
                           F=float(F), f_star=0.0)


def evaluated_pool(rng, n):
    return [evaluated(x, float(x[0])) for x in rng.uniform(0, 1, (n, 2))]


class TestRetrain:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.params = RankNetParams.init(2, 2, 2, self.rng, normalizer=IDENTITY)
        self.net_cfg = NetConfig(q=2, epochs=30)

    def test_first_training_has_no_accuracy_entry(self):
        pool = evaluated_pool(self.rng, 8)
        params, acc = retrain(pool, self.params, self.net_cfg, self.rng)
        assert acc is None  # nothing trained yet, so nothing to test
        assert params.generation_id == 1
        assert len(pool) == 8  # the run loop, not retrain, empties the pool

    def test_second_refill_reports_old_model_accuracy(self):
        params, _ = retrain(evaluated_pool(self.rng, 8), self.params, self.net_cfg, self.rng)
        params2, acc = retrain(evaluated_pool(self.rng, 8), params, self.net_cfg, self.rng)
        assert params2.generation_id == 2
        assert acc is not None and 0.0 <= acc <= 1.0

    def test_one_pairing_equals_one_pdp_per_map(self):
        # Points 0-2 coincide, 3 and 4 differ by 1e-12 (one row under the
        # old network's wide map, two under the pool's fitted map) and F has
        # ties.  retrain pairs the pool once and maps it twice; its accuracy
        # entry and new network must equal those of one pdp per map.
        X = self.rng.uniform(0, 1, (12, 2))
        X[1] = X[2] = X[0]
        X[3] = [0.5, 0.5]
        X[4] = [0.5 + 1e-12, 0.5]
        F = np.round(4 * X[:, 0])
        entries = [evaluated(x, f) for x, f in zip(X, F)]
        wide = Normalizer(np.tile([-1e6, 1e6], (2, 1)))
        old = RankNetParams.init(2, 2, 2, self.rng, generation_id=1, normalizer=wide)
        assert len(pdp(entries, wide).X) == 9 and len(pdp(entries, Normalizer.fit(X)).X) == 10

        params, acc = retrain(entries, old, self.net_cfg, np.random.default_rng(5))

        rng = np.random.default_rng(5)
        ref_acc = model_accuracy(old, pdp(entries, wide))
        base = RankNetParams.init(2, 2, 2, rng, generation_id=1, normalizer=Normalizer.fit(X))
        ds = pdp(entries, base.normalizer)
        scale_init_to_batch(base, ds.X[ds.ia], rng)
        ref = train(base, ds, epochs=self.net_cfg.epochs, lr=self.net_cfg.lr)
        assert acc is not None and acc == ref_acc
        assert params.loss_curve == ref.loss_curve
        for k in _PARAM_NAMES:
            assert np.array_equal(getattr(params, k), getattr(ref, k))

    def test_new_generation_carries_a_map_fitted_to_its_pool(self):
        pool = [evaluated([0.4 + 0.01 * i, 0.7 - 0.02 * i], float(i)) for i in range(8)]
        params, _ = retrain(pool, self.params, self.net_cfg, self.rng)
        assert self.params.normalizer is IDENTITY
        assert np.allclose(params.normalizer([0.4, 0.56]), [0.0, 0.0])
        assert np.allclose(params.normalizer([0.47, 0.7]), [1.0, 1.0])

    def test_divergence_keeps_the_previous_network(self, monkeypatch):
        pool = evaluated_pool(self.rng, 8)
        old, _ = retrain(pool, self.params, self.net_cfg, self.rng)
        monkeypatch.setattr(crf, "train", diverge)
        params, acc = retrain(pool, old, self.net_cfg, self.rng)
        assert params is old
        assert acc is not None and acc == model_accuracy(old, pdp(pool, old.normalizer))


def diverge(*args, **kwargs):
    raise TrainingDivergenceError("non-finite training loss nan")


def record_run(monkeypatch):
    """Log each generation's offspring and, per training, the number of
    generations before it and a copy of the pool it pairs."""
    generations, trainings = [], []
    generation = crf.NestedRun.generation

    def logging_generation(run, xs):
        offspring = generation(run, xs)
        generations.append(offspring)
        return offspring

    def logging_pdp(pool, normalizer):
        trainings.append((len(generations), list(pool)))
        return pdp(pool, normalizer)

    monkeypatch.setattr(crf.NestedRun, "generation", logging_generation)
    monkeypatch.setattr(crf, "pdp", logging_pdp)
    return generations, trainings


class TestTrainingPools:
    # a budget with several retrainings after the first
    CFG = small_config(termination=TerminationRule(fes_u_max=300, fes_u_var_window=300))
    N_U = CFG.upper.pop_size

    def test_first_training_when_the_pool_reaches_the_trigger(self, monkeypatch):
        generations, trainings = record_run(monkeypatch)
        record = run_cr_blea(TOY, self.CFG, seed=0)
        trigger = record.pool_trigger
        assert record.trainings_done >= 3 and len(trainings) == record.trainings_done

        # the first pool is the initial population and every warm-up offspring
        n_warmup, first_pool = trainings[0]
        warmup = [ind for offspring in generations[:n_warmup] for ind in offspring]
        assert [id(ind) for ind in first_pool[self.N_U:]] == [id(ind) for ind in warmup]
        sizes = np.cumsum([self.N_U] + [len(o) for o in generations[:n_warmup]])
        assert sizes[-2] < trigger <= sizes[-1]
        for _, pool in trainings:
            assert trigger <= len(pool) < trigger + self.N_U

    def test_diverging_runs_keep_emptying_the_pool(self, monkeypatch):
        _, trainings = record_run(monkeypatch)
        monkeypatch.setattr(crf, "train", diverge)
        record = run_cr_blea(TOY, self.CFG, seed=0)
        assert record.trainings_done == 0 and record.model_acc_history == []
        assert len(trainings) >= 3
        for _, pool in trainings:
            assert record.pool_trigger <= len(pool) < record.pool_trigger + self.N_U


class FixedScores:
    """Deterministic stand-in for the network scoring used by pgr."""

    def __init__(self, mapping):
        self.mapping = mapping  # x[0] value -> score

    def __call__(self, params, X):
        return np.array([self.mapping[round(float(x[0]), 6)] for x in X])


def make_parents(scores):
    out = []
    for i, s in enumerate(scores):
        ind = evaluated([i, i], float(i))
        ind.rank_score = s
        out.append(ind)
    return out


class TestPgr:
    # scores are looked up by the network input, which the identity map
    # leaves equal to x_u
    NET = RankNetParams.init(2, 2, 2, np.random.default_rng(0), normalizer=IDENTITY)

    def variation_factory(self, batches):
        batches = iter(batches)

        def variation():
            return list(np.array([[x, x] for x in next(batches)], dtype=float))

        return variation

    def test_returns_ceil_half(self, monkeypatch):
        scores = {float(i): float(i) for i in range(10)}
        monkeypatch.setattr(crf, "ranking_scores", FixedScores(scores))
        parents = make_parents([0.1] * 5)
        variation = self.variation_factory([[0.0, 1.0, 2.0, 3.0, 4.0]])
        kept, resampled = pgr(self.NET, parents, variation, N_u=5)
        assert len(kept) == math.ceil(5 / 2) == 3
        assert not resampled
        assert [k[1] for k in kept] == [4.0, 3.0, 2.0]

    def test_no_resample_when_offspring_beat_parents(self, monkeypatch):
        monkeypatch.setattr(crf, "ranking_scores",
                            FixedScores({1.0: 0.9, 2.0: 0.2, 3.0: 0.1, 4.0: 0.1}))
        parents = make_parents([0.5, 0.4, 0.3, 0.2])
        variation = self.variation_factory([[1.0, 2.0, 3.0, 4.0]])
        kept, resampled = pgr(self.NET, parents, variation, N_u=4)
        assert not resampled and len(kept) == 2

    def test_single_resample_merges_both_batches(self, monkeypatch):
        monkeypatch.setattr(crf, "ranking_scores", FixedScores({
            1.0: 0.10, 2.0: 0.20, 3.0: 0.05, 4.0: 0.01,  # first batch, all poor
            5.0: 0.90, 6.0: 0.15, 7.0: 0.01, 8.0: 0.02,  # resampled batch
        }))
        parents = make_parents([0.5, 0.4, 0.3, 0.2])
        variation = self.variation_factory([[1.0, 2.0, 3.0, 4.0],
                                            [5.0, 6.0, 7.0, 8.0]])
        kept, resampled = pgr(self.NET, parents, variation, N_u=4)
        assert resampled
        assert [k[1] for k in kept] == [0.90, 0.20]

    def test_resample_disabled(self, monkeypatch):
        monkeypatch.setattr(crf, "ranking_scores",
                            FixedScores({1.0: 0.1, 2.0: 0.05, 3.0: 0.01, 4.0: 0.0}))
        parents = make_parents([0.5, 0.4, 0.3, 0.2])
        variation = self.variation_factory([[1.0, 2.0, 3.0, 4.0]])
        kept, resampled = pgr(self.NET, parents, variation, N_u=4, allow_resample=False)
        assert not resampled and [k[1] for k in kept] == [0.1, 0.05]

    @pytest.mark.parametrize("seed", range(8))
    def test_one_sort_equals_sorting_each_batch(self, monkeypatch, seed):
        # pgr used to keep the top k of the first batch and then re-sort
        # those k with the resampled batch; scores drawn from three levels
        # tie at the k-th score within and across the batches
        rng = np.random.default_rng(seed)
        levels = rng.choice([0.1, 0.2, 0.3], size=10)
        monkeypatch.setattr(crf, "ranking_scores",
                            FixedScores({float(i): s for i, s in enumerate(levels)}))
        parents = make_parents([0.5, 0.4, 0.3, 0.2, 0.1, 0.0])
        batches = [[0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0, 9.0]]

        def two_sorts(first, second, k):
            by_score = lambda xs: sorted(xs, key=lambda x: -levels[int(x)])  # noqa: E731
            return by_score(by_score(first)[:k] + second)[:k]

        kept, resampled = pgr(self.NET, parents, self.variation_factory(batches), N_u=6)
        assert resampled
        assert [(x[0], s) for x, s in kept] == [(x, levels[int(x)]) for x in two_sorts(*batches, 3)]

    def test_unscored_parents_rejected(self):
        parents = make_parents([0.5, 0.4, None, 0.2])
        with pytest.raises(ContractViolationError):
            pgr(self.NET, parents, lambda: [], N_u=4)


class TestFullRun:
    def test_mode_validation(self):
        with pytest.raises(ContractViolationError):
            run_cr_blea(TOY, small_config(mode="nested"), seed=0)

    @pytest.mark.parametrize("mode", ["cr", "cr_no_net", "cr_no_resample"])
    def test_modes_complete(self, mode):
        record = run_cr_blea(TOY, small_config(mode=mode), seed=1)
        assert record.mode == mode
        assert record.fes_t == record.fes_u + record.fes_l
        assert record.stop_reason in ("budget", "stagnation", "target")

    def test_seeded_determinism(self):
        r1 = run_cr_blea(TOY, small_config(), seed=5)
        r2 = run_cr_blea(TOY, small_config(), seed=5)
        assert r1.to_dict() == r2.to_dict()

    def test_no_net_mode_never_trains(self):
        record = run_cr_blea(TOY, small_config(mode="cr_no_net"), seed=2)
        assert record.trainings_done == 0
        assert record.model_acc_history == []

    def test_no_resample_mode_never_resamples(self):
        record = run_cr_blea(TOY, small_config(mode="cr_no_resample"), seed=2)
        assert record.resamplings == 0

    def test_trainings_recorded(self):
        record = run_cr_blea(TOY, small_config(), seed=3)
        assert record.trainings_done >= 1
        assert record.pool_trigger >= 2
        # the old network is scored once per retraining after the first
        assert len(record.model_acc_history) <= max(0, record.trainings_done - 1)


def capped_problem_and_config(n_u=6):
    """A setup whose lower-level tasks always run to the exact FE cap.

    The lower stagnation window never fires (epsilon is tiny and the
    landscape is nondegenerate), so every task costs exactly fes_l_max and
    per-generation lower-FE spending is directly observable in the trace.
    """
    p = get_problem("tq")
    rule = TerminationRule(
        fes_u_max=20 * n_u,
        fes_u_var_window=10**6,  # never stagnates within the budget
        upper_var_eps=1e-300,
        fes_l_max=40,
        lower_var_eps=1e-300,
        target_acc=1e-300,
    )
    cfg = HarnessConfig(problem="tq", mode="cr",
                        upper=UpperConfig(pop_size=n_u),
                        termination=rule, net=NetConfig(q=2, epochs=20))
    return p, cfg


def test_lower_fe_cap_halves_after_transition():
    n_u = 6
    p, cfg = capped_problem_and_config(n_u)
    record = run_cr_blea(p, cfg, seed=0)
    assert record.trainings_done >= 1
    deltas = [b[0] - a[0] for a, b in zip(record.trace, record.trace[1:])]
    # warm-up generation: N_u tasks of exactly 40 lower FEs + N_u upper FEs;
    # allocated generation: N_u/2 tasks -> exactly half the lower-FE spend
    full = n_u * 40 + n_u
    half = (n_u // 2) * 40 + n_u // 2
    assert set(deltas) <= {full, half}
    assert half in deltas
    first_half = deltas.index(half)
    assert all(d == half for d in deltas[first_half:])

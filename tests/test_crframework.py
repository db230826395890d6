"""Resource-allocation framework: retraining, training pools, gating, full runs."""

import math

import numpy as np
import pytest

import crblea.crframework as crf
from crblea import (
    ConfigurationError,
    HarnessConfig,
    Normalizer,
    RankNetParams,
    TerminationRule,
    TrainingDivergenceError,
    UpperIndividual,
    pgr,
    retrain,
    run_single,
)
from crblea.ranknet import _PARAM_NAMES, model_accuracy, pdp, scale_init_to_batch, train

IDENTITY = Normalizer(np.tile([0.0, 1.0], (2, 1)))


def small_config(mode="cr", **kwargs):
    defaults = dict(
        problem="tq",
        mode=mode,
        upper=6,
        termination=TerminationRule(fes_u_max=150, fes_u_var_window=40),
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

    def test_first_training_has_no_accuracy_entry(self):
        pool = evaluated_pool(self.rng, 8)
        params, acc = retrain(pool, self.params, self.rng)
        assert acc is None  # nothing trained yet, so nothing to test
        assert params.generation_id == 1
        assert len(pool) == 8  # the run loop, not retrain, empties the pool

    def test_second_refill_reports_old_model_accuracy(self):
        params, _ = retrain(evaluated_pool(self.rng, 8), self.params, self.rng)
        params2, acc = retrain(evaluated_pool(self.rng, 8), params, self.rng)
        assert params2.generation_id == 2
        assert acc is not None and 0.0 <= acc <= 1.0

    def test_one_pairing_serves_both_networks(self, monkeypatch):
        # Points 0-2 coincide, 3 and 4 differ by 1e-12 (one input under the
        # old network's wide map, two under the pool's fitted map) and F has
        # ties.  retrain pairs the pool once, and its accuracy entry and new
        # network are those of that one dataset.
        X = self.rng.uniform(0, 1, (12, 2))
        X[1] = X[2] = X[0]
        X[3] = [0.5, 0.5]
        X[4] = [0.5 + 1e-12, 0.5]
        F = np.round(4 * X[:, 0])
        entries = [evaluated(x, f) for x, f in zip(X, F)]
        wide = Normalizer(np.tile([-1e6, 1e6], (2, 1)))
        old = RankNetParams.init(2, 2, 2, self.rng, generation_id=1, normalizer=wide)
        ds = pdp(entries)
        assert len(ds.X) == 10 and len(np.unique(wide(ds.X), axis=0)) == 9
        pairings = []

        def counted_pdp(pool):
            pairings.append(pool)
            return pdp(pool)

        monkeypatch.setattr(crf, "pdp", counted_pdp)
        params, acc = retrain(entries, old, np.random.default_rng(5))

        assert len(pairings) == 1 and pairings[0] is entries
        rng = np.random.default_rng(5)
        base = RankNetParams.init(2, 2, 2, rng, generation_id=1, normalizer=Normalizer.fit(X))
        scale_init_to_batch(base, ds.X[ds.ia], rng)
        ref = train(base, ds)
        assert acc is not None and acc == model_accuracy(old, ds)
        assert params.loss_curve == ref.loss_curve
        for k in _PARAM_NAMES:
            assert np.array_equal(getattr(params, k), getattr(ref, k))

    def test_new_generation_carries_a_map_fitted_to_its_pool(self):
        pool = [evaluated([0.4 + 0.01 * i, 0.7 - 0.02 * i], float(i)) for i in range(8)]
        params, _ = retrain(pool, self.params, self.rng)
        assert self.params.normalizer is IDENTITY
        assert np.allclose(params.normalizer([0.4, 0.56]), [0.0, 0.0])
        assert np.allclose(params.normalizer([0.47, 0.7]), [1.0, 1.0])

    def test_divergence_keeps_the_previous_network(self, monkeypatch):
        pool = evaluated_pool(self.rng, 8)
        old, _ = retrain(pool, self.params, self.rng)
        monkeypatch.setattr(crf, "train", diverge)
        params, acc = retrain(pool, old, self.rng)
        assert params is old
        assert acc is not None and acc == model_accuracy(old, pdp(pool))


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

    def logging_retrain(pool, params, rng):
        trainings.append((len(generations), list(pool)))
        return retrain(pool, params, rng)

    monkeypatch.setattr(crf.NestedRun, "generation", logging_generation)
    monkeypatch.setattr(crf, "retrain", logging_retrain)
    return generations, trainings


class TestTrainingPools:
    # a budget with several retrainings after the first
    CFG = small_config(termination=TerminationRule(fes_u_max=300, fes_u_var_window=300))
    N_U = CFG.upper

    def test_first_training_when_the_pool_reaches_the_trigger(self, monkeypatch):
        generations, trainings = record_run(monkeypatch)
        record = run_single(self.CFG, 0)
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
        record = run_single(self.CFG, 0)
        assert record.trainings_done == 0 and record.model_acc_history == []
        assert len(trainings) >= 3
        for _, pool in trainings:
            assert record.pool_trigger <= len(pool) < record.pool_trigger + self.N_U


class FixedScores:
    """Deterministic stand-in for the network scoring used by pgr; it
    receives the upper points themselves."""

    def __init__(self, mapping):
        self.mapping = mapping  # x[0] value -> score

    def __call__(self, params, X):
        return np.array([self.mapping[round(float(x[0]), 6)] for x in X])


PARENT_X0 = 100.0  # parents sit at x >= 100, apart from every offspring key


def patch_scores(monkeypatch, offspring, parents):
    """Patch the network to score offspring x -> ``offspring[x]`` and the
    i-th returned parent -> ``parents[i]``."""
    mapping = {**offspring, **{PARENT_X0 + i: s for i, s in enumerate(parents)}}
    monkeypatch.setattr(crf, "ranking_scores", FixedScores(mapping))
    return [evaluated([PARENT_X0 + i] * 2, float(i)) for i in range(len(parents))]


def rows(*xs):
    return [[x, x] for x in xs]


class TestPgr:
    NET = RankNetParams.init(2, 2, 2, np.random.default_rng(0))

    def variation_factory(self, batches):
        batches = iter(batches)

        def variation():
            return list(np.array(rows(*next(batches)), dtype=float))

        return variation

    def test_returns_ceil_half(self, monkeypatch):
        parents = patch_scores(monkeypatch, {float(i): float(i) for i in range(10)}, [0.1] * 5)
        variation = self.variation_factory([[0.0, 1.0, 2.0, 3.0, 4.0]])
        kept, resampled = pgr(self.NET, parents, variation)
        assert len(kept) == math.ceil(5 / 2) == 3
        assert not resampled
        assert np.array(kept).tolist() == rows(4.0, 3.0, 2.0)

    def test_no_resample_when_offspring_beat_parents(self, monkeypatch):
        parents = patch_scores(monkeypatch, {1.0: 0.9, 2.0: 0.2, 3.0: 0.1, 4.0: 0.1},
                               [0.5, 0.4, 0.3, 0.2])
        variation = self.variation_factory([[1.0, 2.0, 3.0, 4.0]])
        kept, resampled = pgr(self.NET, parents, variation)
        assert not resampled and np.array(kept).tolist() == rows(1.0, 2.0)

    @pytest.mark.parametrize("best_parent, resamples", [(0.95, True), (0.85, False)])
    def test_the_network_score_of_the_parents_decides(self, monkeypatch, best_parent,
                                                      resamples):
        # the same offspring, and only the network's score of one parent
        # differs: resampling fires iff it tops every offspring
        parents = patch_scores(monkeypatch, {
            1.0: 0.5, 2.0: 0.9, 3.0: 0.6, 4.0: 0.7,
            5.0: 0.99, 6.0: 0.0, 7.0: 0.0, 8.0: 0.0,
        }, [0.1, best_parent, 0.2, 0.3])
        variation = self.variation_factory([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        kept, resampled = pgr(self.NET, parents, variation)
        assert resampled is resamples
        assert np.array(kept).tolist() == (rows(5.0, 2.0) if resamples else rows(2.0, 4.0))

    def test_single_resample_merges_both_batches(self, monkeypatch):
        parents = patch_scores(monkeypatch, {
            1.0: 0.10, 2.0: 0.20, 3.0: 0.05, 4.0: 0.01,  # first batch, all poor
            5.0: 0.90, 6.0: 0.15, 7.0: 0.01, 8.0: 0.02,  # resampled batch
        }, [0.5, 0.4, 0.3, 0.2])
        variation = self.variation_factory([[1.0, 2.0, 3.0, 4.0],
                                            [5.0, 6.0, 7.0, 8.0]])
        kept, resampled = pgr(self.NET, parents, variation)
        assert resampled
        assert np.array(kept).tolist() == rows(5.0, 2.0)

    def test_resample_disabled(self, monkeypatch):
        parents = patch_scores(monkeypatch, {1.0: 0.1, 2.0: 0.05, 3.0: 0.01, 4.0: 0.0},
                               [0.5, 0.4, 0.3, 0.2])
        variation = self.variation_factory([[1.0, 2.0, 3.0, 4.0]])
        kept, resampled = pgr(self.NET, parents, variation, allow_resample=False)
        assert not resampled and np.array(kept).tolist() == rows(1.0, 2.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_sort_equals_sorting_each_batch(self, monkeypatch, seed):
        # pgr used to keep the top k of the first batch and then re-sort
        # those k with the resampled batch; scores drawn from three levels
        # tie at the k-th score within and across the batches
        rng = np.random.default_rng(seed)
        levels = rng.choice([0.1, 0.2, 0.3], size=10)
        parents = patch_scores(monkeypatch, {float(i): s for i, s in enumerate(levels)},
                               [0.5, 0.4, 0.3, 0.2, 0.1, 0.0])
        batches = [[0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0, 9.0]]

        def two_sorts(first, second, k):
            by_score = lambda xs: sorted(xs, key=lambda x: -levels[int(x)])  # noqa: E731
            return by_score(by_score(first)[:k] + second)[:k]

        kept, resampled = pgr(self.NET, parents, self.variation_factory(batches))
        assert resampled
        assert np.array(kept).tolist() == rows(*two_sorts(*batches, 3))


class TestFullRun:
    def test_mode_validation(self):
        with pytest.raises(ConfigurationError):
            run_single(small_config(mode="bogus"), 0)
        for seed in (-1, 1.5, True):  # a bool is no number
            with pytest.raises(ConfigurationError, match="seed"):
                run_single(small_config(), seed)

    @pytest.mark.parametrize("mode", ["nested", "cr", "cr_no_net", "cr_no_resample"])
    def test_modes_complete(self, mode):
        record = run_single(small_config(mode=mode), 1)
        assert record.mode == mode
        assert record.fes_t == record.fes_u + record.fes_l
        assert record.stop_reason in ("budget", "stagnation", "target")

    def test_seeded_determinism(self):
        r1 = run_single(small_config(), 5)
        r2 = run_single(small_config(), 5)
        assert r1.to_dict() == r2.to_dict()

    def test_no_net_mode_never_trains(self):
        record = run_single(small_config(mode="cr_no_net"), 2)
        assert record.trainings_done == 0
        assert record.model_acc_history == []

    def test_no_resample_mode_never_resamples(self):
        record = run_single(small_config(mode="cr_no_resample"), 2)
        assert record.resamplings == 0

    def test_trainings_recorded(self):
        record = run_single(small_config(), 3)
        assert record.trainings_done >= 1
        assert record.pool_trigger >= 2
        # the old network is scored once per retraining after the first
        assert len(record.model_acc_history) <= max(0, record.trainings_done - 1)


def capped_config(n_u=6):
    """A config whose lower-level tasks always run to the exact FE cap.

    The lower stagnation window never fires (epsilon is tiny and the
    landscape is nondegenerate), so every task costs exactly fes_l_max and
    per-generation lower-FE spending is directly observable in the trace.
    """
    rule = TerminationRule(
        fes_u_max=20 * n_u,
        fes_u_var_window=10**6,  # never stagnates within the budget
        upper_var_eps=1e-300,
        fes_l_max=40,
        lower_var_eps=1e-300,
        target_acc=1e-300,
    )
    return HarnessConfig(problem="tq", mode="cr", upper=n_u, termination=rule)


def test_lower_fe_cap_halves_after_transition():
    n_u = 6
    record = run_single(capped_config(n_u), 0)
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

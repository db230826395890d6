"""Search engines: convergence, accounting, feasibility handling."""

import math

import numpy as np
import pytest

from crblea import harness_config_from_dict, init_search, step
from crblea.errors import ConfigurationError, ContractViolationError
from crblea.optimizers import CMA_SIGMA0, WARM_SPREAD_FLOOR, CmaState, de_trial

BOUNDS3 = np.tile([-5.0, 5.0], (3, 1))


def sphere(x):
    return float(np.sum(x**2)), 0.0


def counted(fn):
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return fn(x)

    return wrapped, calls


def run_engine(pop, objective, bounds, generations, seed=0):
    rng = np.random.default_rng(seed)
    state = init_search(pop, bounds, objective, rng=rng)
    for _ in range(generations):
        step(state, objective)
    return state


def run_de(objective, bounds, generations, pop=20, seed=0):
    """rand/1/bin with trials drawn from the parents, as at the upper level,
    and one-to-one replacement; returns the final population and fitness."""
    low, high = bounds[:, 0], bounds[:, 1]
    rng = np.random.default_rng(seed)
    X = rng.uniform(low, high, size=(pop, len(bounds)))
    f = np.array([objective(x)[0] for x in X])
    for _ in range(generations):
        trials = [de_trial(X, i, low, high, rng) for i in range(pop)]
        for i, trial in enumerate(trials):
            if (ft := objective(trial)[0]) <= f[i]:
                X[i], f[i] = trial, ft
    return X, f


def final_points(engine, bounds, generations, seed=0):
    """Points of a 6-member sphere run of the upper ("de") or lower ("cmaes")
    engine that a caller can see at its end, and the best fitness."""
    if engine == "de":
        X, f = run_de(sphere, bounds, generations, pop=6, seed=seed)
        return X, f.min()
    state = run_engine(6, sphere, bounds, generations, seed=seed)
    return np.vstack([state.population, state.best_x]), state.best_fitness


class TestConfigValidation:
    def test_unknown_kind(self):
        # each level has one engine, so the engine is not a knob at all; each
        # level's config value is no object: the upper one is its population
        # size, and the lower one is no key, its population takes the formula
        for level, error in (("upper", "config.upper: expected int"),
                             ("lower", "config.lower: unknown key")):
            with pytest.raises(ConfigurationError, match=error):
                harness_config_from_dict({level: {"kind": "de"}})

    def test_cma_needs_two(self):
        # the lower population always takes its formula, so only a direct
        # call can pass a bad size
        with pytest.raises(ContractViolationError):
            init_search(1, BOUNDS3, sphere, rng=np.random.default_rng(0))


def test_de_converges_on_sphere():
    _, f = run_de(sphere, BOUNDS3, 100)
    assert f.min() < 1e-6


def test_cma_converges_on_sphere_small_pop():
    state = run_engine(5, sphere, BOUNDS3, 49)  # 250 evaluations total
    assert state.best_fitness < 1e-3
    assert run_engine(5, sphere, BOUNDS3, 100).best_fitness < 1e-8


def test_cma_converges_on_rotated_ellipsoid():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    scales = np.array([1.0, 10.0, 100.0])

    def ellipsoid(x):
        z = Q @ (x - 0.5)
        return float(np.sum(scales * z**2)), 0.0

    state = run_engine(8, ellipsoid, BOUNDS3, 120)
    assert state.best_fitness < 1e-6


def test_exact_evaluation_count():
    obj, calls = counted(sphere)
    run_engine(6, obj, BOUNDS3, 7)
    assert calls[0] == 6 * 8  # init + 7 generations, one FE per candidate


@pytest.mark.parametrize("engine", ["de", "cmaes"])
def test_population_respects_bounds(engine):
    X, _ = final_points(engine, np.tile([0.2, 0.7], (3, 1)), 20)
    assert np.all(X >= 0.2) and np.all(X <= 0.7)


def test_feasibility_first_best():
    # feasible region is x0 >= 1; unconstrained optimum (origin) is infeasible.
    def constrained(x):
        return float(np.sum(x**2)), float(max(0.0, 1.0 - x[0]))

    state = run_engine(10, constrained, BOUNDS3, 120)
    assert state.best_violation == 0.0
    assert state.best_fitness == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("engine", ["de", "cmaes"])
def test_seeded_determinism(engine):
    (X1, f1), (X2, f2) = (final_points(engine, BOUNDS3, 15, seed=42) for _ in range(2))
    assert np.array_equal(X1, X2)
    assert f1 == f2


def test_best_so_far_monotone():
    rng = np.random.default_rng(7)
    state = init_search(8, BOUNDS3, sphere, rng=rng)
    best = state.best_fitness
    for _ in range(30):
        step(state, sphere)
        assert state.best_fitness <= best
        best = state.best_fitness


def test_cma_eigenvalue_floor():
    # a degenerate objective collapses the sampling distribution; eigenvalues
    # must stay at or above the repair floor
    def flat(x):
        return 0.0, 0.0

    state = run_engine(5, flat, BOUNDS3, 80)
    assert state.eigvals.min() >= 1e-14
    assert np.all(np.isfinite(state.population))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_decomposition_bitwise_equals_eigh(d):
    # _decompose calls the LAPACK gufunc behind np.linalg.eigh directly
    rng = np.random.default_rng(d)
    state = init_search(4, np.tile([-1.0, 1.0], (d, 1)), sphere, rng=rng)
    for _ in range(20):
        A = rng.standard_normal((d, d))
        C = A @ A.T + 1e-3 * np.eye(d)
        state.C = C.copy()
        state._decompose()
        vals, vecs = np.linalg.eigh((C + C.T) / 2.0)
        assert np.array_equal(state.eigvals, vals)
        assert np.array_equal(state.B, vecs)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_decomposition_failure_raises():
    state = init_search(4, BOUNDS3, sphere, rng=np.random.default_rng(0))
    state.C = np.full((3, 3), np.nan)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        state._decompose()


@pytest.mark.parametrize("limit", [1, 3, 5])
def test_limited_step_scores_only_the_first_rows(limit):
    # a budget stop part-way through a generation: the rows the limit covers
    # reach the best-so-far point, the first least row first; no row past
    # the limit reaches the objective, and the distribution stays as it was
    state = init_search(6, BOUNDS3, sphere, rng=np.random.default_rng(0))
    mean, sigma, population = state.mean.copy(), state.sigma, state.population
    seen = []

    def objective(x):
        seen.append(x.copy())
        return (-1.0, -2.0)[len(seen) % 2], 0.0  # -2, -1, -2, -1, -2

    step(state, objective, limit)
    assert len(seen) == limit
    assert state.best_fitness == -2.0
    assert np.array_equal(state.best_x, seen[0])
    assert np.array_equal(state.mean, mean) and state.sigma == sigma
    assert state.population is population and state.generation == 0


def test_limited_step_draws_the_whole_generation():
    # a limited step evaluates the first rows of the generation a full step
    # would draw, and leaves the random stream where a full step leaves it
    seen = []

    def recorded(x):
        seen.append(x.copy())
        return sphere(x)

    full = init_search(6, BOUNDS3, sphere, rng=np.random.default_rng(1))
    limited = init_search(6, BOUNDS3, sphere, rng=np.random.default_rng(1))
    step(full, sphere)
    step(limited, recorded, 2)
    assert np.array_equal(np.array(seen), full.population[:2])
    assert full.rng.random() == limited.rng.random()


@pytest.mark.parametrize("pop, d", [(2, 1), (5, 3), (6, 3), (9, 7)])
def test_initial_step_sizes_equal_the_numpy_statistics(pop, d):
    # init_search sizes its steps from np.mean and np.std of the box widths
    # and of the warm start, boxes of unequal width and starts clipped to the
    # box included
    rng = np.random.default_rng(pop * 10 + d)
    bounds = np.stack([-rng.uniform(1, 9, d), rng.uniform(1, 9, d)], axis=1)
    widths = bounds[:, 1] - bounds[:, 0]
    cold = init_search(pop, bounds, sphere, rng=rng)
    assert cold.sigma == CMA_SIGMA0 * float(np.mean(widths))
    for rows in (1, pop - 1, pop, pop + 2):
        start = rng.uniform(1.5 * bounds[:, 0], 1.5 * bounds[:, 1], (rows, d))
        warm = init_search(pop, bounds, sphere, rng=rng, start=start)
        spread = np.maximum(warm.population.std(axis=0), WARM_SPREAD_FLOOR * widths)
        assert warm.sigma == float(np.mean(spread))
        scale = spread / warm.sigma
        ref = init_search(pop, bounds, sphere, rng=np.random.default_rng(0))
        ref.C = np.diag(scale**2)
        ref._decompose()
        assert np.array_equal(warm.C, ref.C)


class TextbookCma(CmaState):
    """CmaState whose generation step is the update as written before the
    per-call trims (each sum written out in full), the reference for
    CmaState._step; counts the generations without hsig."""

    stalls = 0

    def _step(self, objective):
        s = self.strategy
        lam = self.pop_size
        Z = self.rng.standard_normal((lam, self.dim))
        Y = Z @ self.BD.T
        X = (self.mean + self.sigma * Y).clip(self.low, self.high)
        keys = self._evaluate(X, objective)
        self.population = X
        sel = X.take(sorted(range(lam), key=keys.__getitem__)[: s.mu], axis=0)
        old_mean = self.mean
        self.mean = s.weights @ sel
        y_w = (self.mean - old_mean) / self.sigma
        self.ps = (1 - s.cs) * self.ps + s.ps_gain * (self.inv_sqrt_C @ y_w)
        ps_norm = math.sqrt(self.ps.dot(self.ps))
        gen = self.generation + 1
        hsig = ps_norm / math.sqrt(1 - (1 - s.cs) ** (2 * gen)) < s.hsig_limit
        self.stalls += not hsig
        self.pc = (1 - s.cc) * self.pc + hsig * s.pc_gain * y_w
        ys = (sel - old_mean) / self.sigma
        rank_mu = (s.weights[:, None] * ys).T @ ys
        delta_hsig = (1 - hsig) * s.cc * (2 - s.cc)
        self.C = (
            s.C_decay * self.C
            + s.c1 * (self.pc[:, None] * self.pc + delta_hsig * self.C)
            + s.cmu * rank_mu
        )
        self.sigma *= math.exp((s.cs / s.damps) * (ps_norm / s.chi_n - 1))
        self._decompose()
        self.generation = gen


def constrained(x):
    return float(np.sum(x**2)), max(0.0, x[0] - x[1] + 1.0)


@pytest.mark.parametrize("objective, corner", [(sphere, False), (constrained, False), (sphere, True)])
@pytest.mark.parametrize("pop", [5, 8])
def test_step_bitwise_equals_the_textbook_update(objective, corner, pop):
    # Cold starts clip many early samples to the box.  A start collapsed in a
    # corner has a tiny step that must grow on a long evolution path, so
    # hsig fails for a while there.
    start = np.full((pop, 3), 4.0) if corner else None
    ref = TextbookCma(pop, BOUNDS3, objective, np.random.default_rng(pop), start)
    state = CmaState(pop, BOUNDS3, objective, np.random.default_rng(pop), start)
    for _ in range(60):
        ref._step(objective)
        step(state, objective)
        for name in ("population", "mean", "ps", "pc", "C", "sigma", "best_x", "best_fitness"):
            assert np.array_equal(getattr(state, name), getattr(ref, name)), name
    if corner:
        assert ref.stalls > 0

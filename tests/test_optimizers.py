"""Search engines: convergence, accounting, feasibility handling."""

import numpy as np
import pytest

from crblea import LowerConfig, UpperConfig, harness_config_from_dict, init_search, step
from crblea.errors import ConfigurationError
from crblea.optimizers import de_trial

BOUNDS3 = np.tile([-5.0, 5.0], (3, 1))


def sphere(x):
    return float(np.sum(x**2)), 0.0


def counted(fn):
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return fn(x)

    return wrapped, calls


def run_engine(cfg, objective, bounds, generations, seed=0):
    rng = np.random.default_rng(seed)
    state = init_search(cfg, bounds, objective, rng=rng)
    for _ in range(generations):
        step(state, objective)
    return state


def run_de(objective, bounds, generations, pop=20, seed=0):
    """rand/1/bin with trials drawn from the parents, as at the upper level,
    and one-to-one replacement; returns the final population and fitness."""
    cfg = UpperConfig(pop_size=pop)
    low, high = bounds[:, 0], bounds[:, 1]
    rng = np.random.default_rng(seed)
    X = rng.uniform(low, high, size=(pop, len(bounds)))
    f = np.array([objective(x)[0] for x in X])
    for _ in range(generations):
        trials = [de_trial(X, i, cfg, low, high, rng) for i in range(pop)]
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
    state = run_engine(LowerConfig(pop_size=6), sphere, bounds, generations, seed=seed)
    return np.vstack([state.population, state.best_x]), state.best_fitness


class TestConfigValidation:
    def test_unknown_kind(self):
        # each level has one engine, so the engine is not a knob at all
        for level in ("upper", "lower"):
            with pytest.raises(ConfigurationError, match=f"{level}.kind: unknown key"):
                harness_config_from_dict({level: {"kind": "de"}})

    def test_de_needs_four(self):
        with pytest.raises(ConfigurationError):
            UpperConfig(pop_size=3).validate()

    def test_cma_needs_two(self):
        with pytest.raises(ConfigurationError):
            LowerConfig(pop_size=1).validate()

    @pytest.mark.parametrize("field,value", [
        ("de_scale", 0.0), ("de_scale", 2.5),
        ("de_crossover", -0.1), ("de_crossover", 1.1),
        ("cma_sigma0", 0.0),
    ])
    def test_knob_ranges(self, field, value):
        cls = LowerConfig if field == "cma_sigma0" else UpperConfig
        with pytest.raises(ConfigurationError, match=field):
            cls(pop_size=10, **{field: value}).validate()


def test_de_converges_on_sphere():
    _, f = run_de(sphere, BOUNDS3, 100)
    assert f.min() < 1e-6


def test_cma_converges_on_sphere_small_pop():
    cfg = LowerConfig(pop_size=5)
    state = run_engine(cfg, sphere, BOUNDS3, 49)  # 250 evaluations total
    assert state.best_fitness < 1e-3
    assert run_engine(cfg, sphere, BOUNDS3, 100).best_fitness < 1e-8


def test_cma_converges_on_rotated_ellipsoid():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    scales = np.array([1.0, 10.0, 100.0])

    def ellipsoid(x):
        z = Q @ (x - 0.5)
        return float(np.sum(scales * z**2)), 0.0

    cfg = LowerConfig(pop_size=8)
    state = run_engine(cfg, ellipsoid, BOUNDS3, 120)
    assert state.best_fitness < 1e-6


def test_exact_evaluation_count():
    obj, calls = counted(sphere)
    run_engine(LowerConfig(pop_size=6), obj, BOUNDS3, 7)
    assert calls[0] == 6 * 8  # init + 7 generations, one FE per candidate


@pytest.mark.parametrize("engine", ["de", "cmaes"])
def test_population_respects_bounds(engine):
    X, _ = final_points(engine, np.tile([0.2, 0.7], (3, 1)), 20)
    assert np.all(X >= 0.2) and np.all(X <= 0.7)


def test_feasibility_first_best():
    # feasible region is x0 >= 1; unconstrained optimum (origin) is infeasible.
    def constrained(x):
        return float(np.sum(x**2)), float(max(0.0, 1.0 - x[0]))

    state = run_engine(LowerConfig(pop_size=10), constrained, BOUNDS3, 120)
    assert state.best_violation == 0.0
    assert state.best_fitness == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("engine", ["de", "cmaes"])
def test_seeded_determinism(engine):
    (X1, f1), (X2, f2) = (final_points(engine, BOUNDS3, 15, seed=42) for _ in range(2))
    assert np.array_equal(X1, X2)
    assert f1 == f2


def test_best_so_far_monotone():
    cfg = LowerConfig(pop_size=8)
    rng = np.random.default_rng(7)
    state = init_search(cfg, BOUNDS3, sphere, rng=rng)
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

    state = run_engine(LowerConfig(pop_size=5), flat, BOUNDS3, 80)
    assert state.eigvals.min() >= 1e-14
    assert np.all(np.isfinite(state.population))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_decomposition_bitwise_equals_eigh(d):
    # _decompose calls the LAPACK gufunc behind np.linalg.eigh directly
    rng = np.random.default_rng(d)
    state = init_search(LowerConfig(pop_size=4), np.tile([-1.0, 1.0], (d, 1)), sphere, rng=rng)
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
    state = init_search(LowerConfig(pop_size=4), BOUNDS3, sphere, rng=np.random.default_rng(0))
    state.C = np.full((3, 3), np.nan)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        state._decompose()


def test_rows_scored_before_a_raise_count_towards_the_best():
    # a budget stop raises part-way through a generation; the rows scored
    # before it still reach the best-so-far point, the first least row first
    class Stop(Exception):
        pass

    state = init_search(LowerConfig(pop_size=6), BOUNDS3, sphere, rng=np.random.default_rng(0))
    seen = []

    def objective(x):
        if len(seen) == 3:
            raise Stop
        seen.append(x.copy())
        return (-1.0, -2.0)[len(seen) % 2], 0.0  # -2, -1, -2

    with pytest.raises(Stop):
        step(state, objective)
    assert state.best_fitness == -2.0
    assert np.array_equal(state.best_x, seen[0])

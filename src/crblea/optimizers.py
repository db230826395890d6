"""Single-level search engines: DE (rand/1/bin) and CMA-ES.

Both engines minimize an objective ``obj(x) -> (fitness, violation)`` inside a
box, where ``violation`` is the summed positive constraint excess (0 means
feasible).  Selection everywhere is feasibility-first: feasible beats
infeasible, feasible points compare by fitness, infeasible points by
violation.  Candidates are clipped to the box before evaluation, so every
call to the objective costs exactly one function evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

DE = "de"
CMAES = "cmaes"

# Least initial CMA-ES step per axis of a warm start, in box widths.  A wider
# floor makes a nearly resolved start search too wide a region: at 1e-3 and
# 1e-2 the nested baseline's median FEs rose on 9 and 10 of the 10 protocol
# problems.
WARM_SPREAD_FLOOR = 1e-4


@dataclass
class OptimizerConfig:
    kind: str = DE
    pop_size: int = 5
    de_scale: float = 0.5
    de_crossover: float = 0.9
    cma_sigma0: float = 0.3  # initial step size as a fraction of the box width

    def validate(self):
        if self.kind not in (DE, CMAES):
            raise ConfigurationError(f"unknown optimizer kind {self.kind!r}")
        if self.kind == DE and self.pop_size < 4:
            raise ConfigurationError("DE needs pop_size >= 4 (base + 3 distinct donors)")
        if self.kind == CMAES and self.pop_size < 2:
            raise ConfigurationError("CMA-ES needs pop_size >= 2")
        if not (0.0 < self.de_scale <= 2.0):
            raise ConfigurationError("de_scale must lie in (0, 2]")
        if not (0.0 <= self.de_crossover <= 1.0):
            raise ConfigurationError("de_crossover must lie in [0, 1]")
        if self.cma_sigma0 <= 0.0:
            raise ConfigurationError("cma_sigma0 must be positive")
        return self


def feasibility_first_compare(a, b):
    """Order (fitness, violation) pairs; negative means ``a`` is better.

    Feasible beats infeasible; two feasibles compare by fitness; two
    infeasibles by violation.
    """
    fa, va = a
    fb, vb = b
    ka, kb = _ff_key(fa, va), _ff_key(fb, vb)
    return -1 if ka < kb else (1 if ka > kb else 0)


def _ff_key(fitness, violation):
    return (1, violation) if violation > 0 else (0, fitness)


def de_trial(X, i, cfg, low, high, rng):
    """rand/1/bin trial vector for base row ``i`` of ``X``, clipped to the box.

    The three donors are distinct rows other than ``i``; binomial crossover
    takes at least one coordinate from the mutant.
    """
    n, d = X.shape
    idx = rng.choice(n - 1, size=3, replace=False)
    idx[idx >= i] += 1
    a, b, c = X[idx]
    mutant = a + cfg.de_scale * (b - c)
    cross = rng.random(d) < cfg.de_crossover
    cross[rng.integers(d)] = True
    return np.clip(np.where(cross, mutant, X[i]), low, high)


class SearchState:
    """Common engine state: population, scores, and the best-so-far point."""

    def __init__(self, config, bounds, rng):
        self.config = config
        self.bounds = np.asarray(bounds, dtype=float)
        self.low, self.high = self.bounds[:, 0], self.bounds[:, 1]
        self.dim = len(self.bounds)
        self.rng = rng
        self.generation = 0
        self.population = None
        self.fitness = None
        self.violation = None
        self.best_x = None
        self.best_fitness = math.inf
        self.best_violation = math.inf

    @property
    def best(self):
        return self.best_x, self.best_fitness

    def _consider(self, x, fitness, violation):
        if _ff_key(fitness, violation) < _ff_key(self.best_fitness, self.best_violation):
            self.best_x = x.copy()
            self.best_fitness = fitness
            self.best_violation = violation

    def _initial_points(self, start):
        """``start`` rows (clipped to the box) followed by uniform samples up
        to the population size."""
        n = self.config.pop_size
        if start is None:
            return self.rng.uniform(self.low, self.high, size=(n, self.dim))
        start = np.asarray(start, dtype=float)[:n].clip(self.low, self.high)
        fill = self.rng.uniform(self.low, self.high, size=(n - len(start), self.dim))
        return np.concatenate([start, fill])

    def _evaluate_all(self, X, objective):
        fit = np.empty(len(X))
        viol = np.empty(len(X))
        for i, x in enumerate(X):
            f, v = objective(x)
            fit[i] = f
            viol[i] = v
            self._consider(x, f, v)
        return fit, viol


class DEState(SearchState):
    def _init_population(self, objective, start):
        self.population = self._initial_points(start)
        self.fitness, self.violation = self._evaluate_all(self.population, objective)

    def _step(self, objective):
        for i in range(self.config.pop_size):
            # donors come from the live population, updated as the loop goes
            trial = de_trial(self.population, i, self.config, self.low, self.high, self.rng)
            f, v = objective(trial)
            self._consider(trial, f, v)
            if _ff_key(f, v) <= _ff_key(self.fitness[i], self.violation[i]):
                self.population[i] = trial
                self.fitness[i] = f
                self.violation[i] = v
        self.generation += 1


class CmaState(SearchState):
    """(mu/mu_w, lambda) CMA-ES with eigenvalue flooring for numeric repair."""

    def _init_population(self, objective, start):
        cfg = self.config
        d = self.dim
        widths = self.high - self.low
        n = cfg.pop_size
        self.population = self._initial_points(start)
        self.fitness, self.violation = self._evaluate_all(self.population, objective)

        lam = n
        mu = lam // 2
        w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        w /= w.sum()
        self.weights = w
        self.mu = mu
        self.mueff = 1.0 / np.sum(w**2)
        self.cc = (4 + self.mueff / d) / (d + 4 + 2 * self.mueff / d)
        self.cs = (self.mueff + 2) / (d + self.mueff + 5)
        self.c1 = 2 / ((d + 1.3) ** 2 + self.mueff)
        self.cmu = min(1 - self.c1, 2 * (self.mueff - 2 + 1 / self.mueff) / ((d + 2) ** 2 + self.mueff))
        self.damps = 1 + 2 * max(0.0, math.sqrt((self.mueff - 1) / (d + 1)) - 1) + self.cs
        self.chi_n = math.sqrt(d) * (1 - 1 / (4 * d) + 1 / (21 * d * d))
        # per-generation constants of the path and covariance updates
        self.ps_gain = math.sqrt(self.cs * (2 - self.cs) * self.mueff)
        self.pc_gain = math.sqrt(self.cc * (2 - self.cc) * self.mueff)
        self.hsig_limit = (1.4 + 2 / (d + 1)) * self.chi_n
        self.C_decay = 1 - self.c1 - self.cmu

        if start is None:
            mean_width = float(np.mean(widths))
            self.sigma = cfg.cma_sigma0 * mean_width
            scale = widths / mean_width
        else:
            # A warm start sizes each axis by how far its starting points
            # disagree, floored so that a collapsed start can still move.
            spread = np.maximum(self.population.std(axis=0), WARM_SPREAD_FLOOR * widths)
            self.sigma = float(np.mean(spread))
            scale = spread / self.sigma
        self.C = np.diag(scale**2)
        self.pc = np.zeros(d)
        self.ps = np.zeros(d)
        self.mean = self.best_x.copy()
        self._decompose()

    def _decompose(self):
        self.C = (self.C + self.C.T) / 2.0
        vals, vecs = np.linalg.eigh(self.C)
        vals = np.maximum(vals, 1e-14)
        self.eigvals = vals
        self.B = vecs
        self.D = np.sqrt(vals)
        self.BD = vecs * self.D
        # scaling the columns of B equals B @ diag(.), without the dense diagonal
        self.C = (vecs * vals) @ vecs.T
        self.inv_sqrt_C = (vecs * (1.0 / self.D)) @ vecs.T

    def _step(self, objective):
        lam = self.config.pop_size

        Z = self.rng.standard_normal((lam, self.dim))
        Y = Z @ self.BD.T
        X = (self.mean + self.sigma * Y).clip(self.low, self.high)
        fit, viol = self._evaluate_all(X, objective)
        self.population, self.fitness, self.violation = X, fit, viol

        keys = [_ff_key(f, v) for f, v in zip(fit.tolist(), viol.tolist())]
        sel = X.take(sorted(range(lam), key=keys.__getitem__)[: self.mu], axis=0)
        old_mean = self.mean
        self.mean = self.weights @ sel
        y_w = (self.mean - old_mean) / self.sigma

        self.ps = (1 - self.cs) * self.ps + self.ps_gain * (self.inv_sqrt_C @ y_w)
        ps_norm = math.sqrt(self.ps.dot(self.ps))
        gen = self.generation + 1
        hsig = ps_norm / math.sqrt(1 - (1 - self.cs) ** (2 * gen)) < self.hsig_limit
        self.pc = (1 - self.cc) * self.pc + hsig * self.pc_gain * y_w

        ys = (sel - old_mean) / self.sigma
        rank_mu = (self.weights[:, None] * ys).T @ ys
        delta_hsig = (1 - hsig) * self.cc * (2 - self.cc)
        self.C = (
            self.C_decay * self.C
            + self.c1 * (self.pc[:, None] * self.pc + delta_hsig * self.C)
            + self.cmu * rank_mu
        )
        self.sigma *= math.exp((self.cs / self.damps) * (ps_norm / self.chi_n - 1))
        self._decompose()
        self.generation = gen

    def min_eigenvalue(self):
        return float(np.min(self.eigvals))


def init_search(config: OptimizerConfig, bounds, objective, rng, *, start=None) -> SearchState:
    """Evaluate an initial population inside ``bounds``.

    Without ``start`` the population is uniform over the box.  A warm start
    puts the rows of ``start`` first and fills the rest uniformly; CMA-ES
    then takes its initial step sizes from the population's spread per axis
    instead of ``cma_sigma0``.
    """
    config.validate()
    cls = DEState if config.kind == DE else CmaState
    state = cls(config, bounds, rng)
    state._init_population(objective, start)
    return state


def step(state: SearchState, objective) -> SearchState:
    """Advance one generation in place; returns the same state object."""
    state._step(objective)
    return state

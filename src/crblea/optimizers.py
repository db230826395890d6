"""The search engine of each level: rand/1/bin variation (``de_trial``) for
the upper level and CMA-ES for the lower level.

CMA-ES minimizes an objective ``obj(x) -> (fitness, violation)`` inside a
box, where ``violation`` is the summed positive constraint excess (0 means
feasible).  Selection at both levels is feasibility-first (``_ff_key``):
feasible beats infeasible, feasible points compare by fitness, infeasible
points by violation.  Candidates are clipped to the box before evaluation,
so every call to the objective costs exactly one function evaluation.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import ConfigurationError

# Least initial CMA-ES step per axis of a warm start, in box widths.  A wider
# floor makes a nearly resolved start search too wide a region: at 1e-3 and
# 1e-2 the nested baseline's median FEs rose on 9 and 10 of the 10 protocol
# problems.
WARM_SPREAD_FLOOR = 1e-4


@dataclass
class UpperConfig:
    """Upper-level rand/1/bin.  pop_size 0 means "use the formula"."""

    pop_size: int = 0
    de_scale: float = 0.5
    de_crossover: float = 0.9

    def validate(self):
        if self.pop_size < 4:
            raise ConfigurationError("upper.pop_size: DE needs >= 4 (base + 3 distinct donors)")
        if not (0.0 < self.de_scale <= 2.0):
            raise ConfigurationError("upper.de_scale: must lie in (0, 2]")
        if not (0.0 <= self.de_crossover <= 1.0):
            raise ConfigurationError("upper.de_crossover: must lie in [0, 1]")
        return self


@dataclass
class LowerConfig:
    """Lower-level CMA-ES.  pop_size 0 means "use the formula"."""

    pop_size: int = 0
    cma_sigma0: float = 0.3  # initial step size as a fraction of the box width

    def validate(self):
        if self.pop_size < 2:
            raise ConfigurationError("lower.pop_size: CMA-ES needs >= 2")
        if self.cma_sigma0 <= 0.0:
            raise ConfigurationError("lower.cma_sigma0: must be positive")
        return self


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


@dataclass(frozen=True)
class _Strategy:
    """The constants of a (mu/mu_w, lambda) CMA-ES in d dimensions (Hansen,
    arXiv:1604.00772): recombination weights, learning rates and damping,
    and the per-generation gains of the path and covariance updates."""

    mu: int
    weights: np.ndarray  # read-only: one array serves every search of this shape
    cc: float
    cs: float
    c1: float
    cmu: float
    damps: float
    chi_n: float
    ps_gain: float
    pc_gain: float
    hsig_limit: float
    C_decay: float


@functools.cache
def _strategy(lam, d):
    """The ``_Strategy`` of a (lam, d) search, computed once per shape."""
    mu = lam // 2
    w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    w.setflags(write=False)
    mueff = 1.0 / np.sum(w**2)
    cc = (4 + mueff / d) / (d + 4 + 2 * mueff / d)
    cs = (mueff + 2) / (d + mueff + 5)
    c1 = 2 / ((d + 1.3) ** 2 + mueff)
    cmu = min(1 - c1, 2 * (mueff - 2 + 1 / mueff) / ((d + 2) ** 2 + mueff))
    chi_n = math.sqrt(d) * (1 - 1 / (4 * d) + 1 / (21 * d * d))
    return _Strategy(
        mu=mu, weights=w, cc=cc, cs=cs, c1=c1, cmu=cmu,
        damps=1 + 2 * max(0.0, math.sqrt((mueff - 1) / (d + 1)) - 1) + cs,
        chi_n=chi_n,
        ps_gain=math.sqrt(cs * (2 - cs) * mueff),
        pc_gain=math.sqrt(cc * (2 - cc) * mueff),
        hsig_limit=(1.4 + 2 / (d + 1)) * chi_n,
        C_decay=1 - c1 - cmu,
    )


class CmaState:
    """(mu/mu_w, lambda) CMA-ES with eigenvalue flooring for numeric repair.

    Holds the current population and the feasibility-first best-so-far
    point.
    """

    def __init__(self, config, bounds, objective, rng, start):
        bounds = np.asarray(bounds, dtype=float)
        self.config = config
        self.low, self.high = bounds[:, 0], bounds[:, 1]
        self.dim = d = len(bounds)
        self.strategy = _strategy(config.pop_size, d)
        self.rng = rng
        self.generation = 0
        self.best_x = None
        self.best_fitness = math.inf
        self.best_violation = math.inf
        self.population = self._initial_points(start)
        self._evaluate(self.population, objective)

        widths = self.high - self.low
        if start is None:
            mean_width = float(np.mean(widths))
            self.sigma = config.cma_sigma0 * mean_width
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

    @property
    def best(self):
        return self.best_x, self.best_fitness

    def _initial_points(self, start):
        """``start`` rows (clipped to the box) followed by uniform samples up
        to the population size."""
        n = self.config.pop_size
        if start is None:
            return self.rng.uniform(self.low, self.high, size=(n, self.dim))
        start = np.asarray(start, dtype=float)[:n].clip(self.low, self.high)
        fill = self.rng.uniform(self.low, self.high, size=(n - len(start), self.dim))
        return np.concatenate([start, fill])

    def _evaluate(self, X, objective):
        """Score the rows of ``X`` in order and return their
        feasibility-first keys.

        The first row with the least key replaces the best-so-far point if
        it beats it.  Rows scored before the objective raises (a budget
        stop) still count towards the best-so-far point.
        """
        scores = []
        try:
            for x in X:
                scores.append(objective(x))
        finally:
            keys = [_ff_key(f, v) for f, v in scores]
            if keys:
                i = min(range(len(keys)), key=keys.__getitem__)
                if keys[i] < _ff_key(self.best_fitness, self.best_violation):
                    self.best_x = X[i].copy()
                    self.best_fitness, self.best_violation = scores[i]
        return keys

    def _decompose(self):
        self.C = (self.C + self.C.T) / 2.0
        # the gufunc behind np.linalg.eigh, without the wrapper's per-call
        # checks; a failed decomposition comes back as NaN
        vals, vecs = _umath_linalg.eigh_lo(self.C, signature="d->dd")
        if vals[0] != vals[0]:
            raise LinAlgError("Eigenvalues did not converge")
        vals = np.maximum(vals, 1e-14)
        self.eigvals = vals
        self.B = vecs
        self.D = np.sqrt(vals)
        self.BD = vecs * self.D
        # scaling the columns of B equals B @ diag(.), without the dense diagonal
        self.C = (vecs * vals) @ vecs.T
        self.inv_sqrt_C = (vecs * (1.0 / self.D)) @ vecs.T

    def _step(self, objective):
        s = self.strategy
        lam = self.config.pop_size

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


def init_search(config: LowerConfig, bounds, objective, rng, *, start=None) -> CmaState:
    """Evaluate an initial CMA-ES population inside ``bounds``.

    Without ``start`` the population is uniform over the box and the initial
    step size is ``cma_sigma0`` of it.  A warm start puts the rows of
    ``start`` first, fills the rest uniformly, and takes the initial step
    sizes from the population's spread per axis.
    """
    return CmaState(config.validate(), bounds, objective, rng, start)


def step(state: CmaState, objective) -> CmaState:
    """Advance one generation in place; returns the same state object."""
    state._step(objective)
    return state

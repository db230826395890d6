"""Baseline nested bilevel EA.

Every upper-level candidate is resolved by a full lower-level search before
its upper objective can be evaluated; survivors are kept by feasibility-first
environmental selection.  Termination windows are measured in function
evaluations, not generations.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolationError
from .ledger import EvalLedger
from .optimizers import CMAES, DE, OptimizerConfig, _ff_key, init_search, step
from .problems import ProblemSpec, evaluate_lower, evaluate_upper


@dataclass
class TerminationRule:
    """FE budgets and stagnation windows for both levels (defaults per the
    standard experimental protocol)."""

    fes_u_max: int = 2500
    fes_u_var_window: int = 350
    upper_var_eps: float = 1e-6
    fes_l_max: int = 250
    fes_l_var_window: int = 25
    lower_var_eps: float = 1e-5
    target_acc: float = 1e-6

    def validate(self):
        for name in ("fes_u_max", "fes_u_var_window", "upper_var_eps", "fes_l_max",
                     "fes_l_var_window", "lower_var_eps", "target_acc"):
            if getattr(self, name) <= 0:
                raise ContractViolationError(f"TerminationRule.{name} must be positive")
        return self


@dataclass
class UpperIndividual:
    """One upper-level candidate and, once resolved, its lower-level response.

    ``F`` is only ever set together with ``x_l_star``: an upper evaluation
    requires the resolved lower-level solution.
    """

    x_u: np.ndarray
    x_l_star: Optional[np.ndarray] = None
    F: Optional[float] = None
    f_star: Optional[float] = None
    feasible: bool = True
    violation: float = 0.0
    rank_score: Optional[float] = None
    net_generation: Optional[int] = None

    def require_evaluated(self):
        if self.F is None or self.x_l_star is None:
            raise ContractViolationError("individual has no upper evaluation (x_l_star/F missing)")
        return self


class _BudgetExhausted(Exception):
    """Internal control flow: the per-task lower-level FE cap was reached."""


def _violation(g):
    return float(np.maximum(g, 0.0).sum()) if g.size else 0.0


def lower_level_search(p: ProblemSpec, x_u, cfg: OptimizerConfig, rule: TerminationRule,
                       ledger: EvalLedger, rng=None):
    """Optimize ``f(x_u, .)`` until the task budget or stagnation window hits.

    Returns ``(x_l_star, f_star)``, the feasibility-first best point found
    (the search state's best-so-far point).  The budget must cover the
    initial population, so that a search state always exists to report it.
    """
    if rule.fes_l_max < cfg.pop_size:
        raise ContractViolationError(
            f"fes_l_max={rule.fes_l_max} cannot cover a lower population of {cfg.pop_size}"
        )
    hist = []  # raw objective value of every evaluation, in FE order
    budget = rule.fes_l_max

    def objective(x_l):
        if len(hist) >= budget:
            raise _BudgetExhausted
        f, g, _feas = evaluate_lower(p, x_u, x_l, ledger)
        hist.append(f)
        return f, _violation(g)

    # The stagnation window watches the raw evaluated objective values: it
    # fires only when every candidate sampled in the last window lands within
    # lower_var_eps, i.e. when the sampling distribution has genuinely
    # collapsed onto one objective level.  A monotone best-so-far window
    # would instead abort tasks during transient no-improvement streaks while
    # the population is still spread out, leaving large unresolved residuals
    # that poison the upper-level objective.
    w = rule.fes_l_var_window
    state = init_search(cfg, p.lower_bounds, objective, rng=rng)
    try:
        while len(hist) < budget:
            if len(hist) >= w and max(hist[-w:]) - min(hist[-w:]) < rule.lower_var_eps:
                break
            step(state, objective)
    except _BudgetExhausted:
        pass
    return state.best


def resolve_individual(p: ProblemSpec, x_u, cfg, ledger, rng) -> UpperIndividual:
    """Run the lower-level search for ``x_u`` and evaluate the upper level."""
    x_l_star, f_star = lower_level_search(p, x_u, cfg.lower, cfg.termination, ledger, rng=rng)
    F, G, feasible = evaluate_upper(p, x_u, x_l_star, ledger)
    return UpperIndividual(
        x_u=np.asarray(x_u, dtype=float),
        x_l_star=x_l_star,
        F=F,
        f_star=f_star,
        feasible=feasible,
        violation=_violation(G),
    )


def environmental_selection(pool, n_keep):
    """Keep the ``n_keep`` best individuals, feasibility-first, stable ties."""
    if len(pool) < n_keep:
        raise ContractViolationError(f"selection pool of {len(pool)} < {n_keep}")
    for ind in pool:
        ind.require_evaluated()
    order = sorted(range(len(pool)), key=lambda i: _ff_key(pool[i].F, pool[i].violation))
    return [pool[i] for i in order[:n_keep]]


def check_upper_termination(ledger: EvalLedger, best_history, rule: TerminationRule,
                            known_opt=None, best_feasible=True):
    """Return a stop reason string, or None to continue.

    ``best_history`` holds the elitist upper objective value after each upper
    FE; the stagnation window is measured over the trailing
    ``fes_u_var_window`` upper FEs.
    """
    if ledger.fes_u >= rule.fes_u_max:
        return "budget"
    w = rule.fes_u_var_window
    if len(best_history) >= w and max(best_history[-w:]) - min(best_history[-w:]) < rule.upper_var_eps:
        return "stagnation"
    if known_opt is not None and best_history and best_feasible:
        if abs(best_history[-1] - known_opt[0]) < rule.target_acc:
            return "target"
    return None


class BestTracker:
    """Feasibility-first best individual plus the per-upper-FE elitist trace."""

    def __init__(self):
        self.best = None
        self.history = []  # elitist F after each upper FE

    def observe(self, ind: UpperIndividual):
        if self.best is None or _ff_key(ind.F, ind.violation) < _ff_key(self.best.F, self.best.violation):
            self.best = ind
        self.history.append(self.best.F)


def upper_variation(P_u, cfg: OptimizerConfig, bounds, rng, count=None):
    """Generate offspring x_u vectors from the parent population.

    DE uses rand/1/bin over the parents; CMA-ES samples around the weighted
    mean of the better half with the parents' sample covariance.
    """
    n = len(P_u)
    count = count if count is not None else n
    low, high = bounds[:, 0], bounds[:, 1]
    X = np.array([ind.x_u for ind in P_u])
    d = X.shape[1]
    out = []
    if cfg.kind == DE:
        for i in range(count):
            base = i % n
            idx = rng.choice(n - 1, size=3, replace=False)
            idx[idx >= base] += 1
            a, b, c = X[idx]
            mutant = a + cfg.de_scale * (b - c)
            cross = rng.random(d) < cfg.de_crossover
            cross[rng.integers(d)] = True
            out.append(np.clip(np.where(cross, mutant, X[base]), low, high))
    elif cfg.kind == CMAES:
        order = sorted(range(n), key=lambda i: _ff_key(P_u[i].F, P_u[i].violation))
        mu = max(2, n // 2)
        w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        w /= w.sum()
        mean = w @ X[order[:mu]]
        cov = np.cov(X.T) if d > 1 else np.array([[np.var(X[:, 0])]])
        cov = np.atleast_2d(cov) + 1e-12 * np.eye(d)
        out = [np.clip(x, low, high) for x in rng.multivariate_normal(mean, cov, size=count)]
    else:
        raise ContractViolationError(f"unknown upper engine {cfg.kind!r}")
    return out


def init_upper_population(p, cfg, ledger, tracker, rng):
    """Sample and resolve the initial upper population (budget-guarded)."""
    rule = cfg.termination
    low, high = p.upper_bounds[:, 0], p.upper_bounds[:, 1]
    P_u = []
    for _ in range(cfg.upper.pop_size):
        if ledger.fes_u >= rule.fes_u_max:
            break
        x_u = rng.uniform(low, high)
        ind = resolve_individual(p, x_u, cfg, ledger, rng)
        tracker.observe(ind)
        P_u.append(ind)
    return P_u


def run_nested_blea(p: ProblemSpec, cfg, seed):
    """Run the baseline nested BLEA and return a RunRecord."""
    from .stats import build_run_record  # late import: stats depends on nothing here

    cfg = cfg.resolved(p)
    rule = cfg.termination
    rng = np.random.default_rng(seed)
    ledger = EvalLedger()
    tracker = BestTracker()

    P_u = init_upper_population(p, cfg, ledger, tracker, rng)
    ledger.checkpoint(tracker.best.F)

    stop_reason = None
    while True:
        stop_reason = check_upper_termination(
            ledger, tracker.history, rule, p.optimum, tracker.best.feasible
        )
        if stop_reason:
            break
        offspring_x = upper_variation(P_u, cfg.upper, p.upper_bounds, rng)
        offspring = []
        for x_u in offspring_x:
            if ledger.fes_u >= rule.fes_u_max:
                break
            ind = resolve_individual(p, x_u, cfg, ledger, rng)
            tracker.observe(ind)
            offspring.append(ind)
        if offspring:
            P_u = environmental_selection(P_u + offspring, cfg.upper.pop_size)
        ledger.checkpoint(tracker.best.F)

    return build_run_record(p, cfg, seed, ledger, tracker, stop_reason=stop_reason)

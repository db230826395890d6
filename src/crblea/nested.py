"""The nested bilevel EA's state and steps.

Every upper-level candidate is resolved by a full lower-level search before
its upper objective can be evaluated; survivors are kept by feasibility-first
environmental selection.  Termination windows are measured in function
evaluations, not generations.  The loop that drives a run, for the nested
baseline and the CR modes alike, is ``crframework.run_single``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .ledger import EvalLedger
from .optimizers import _ff_key, de_trial, init_search, step
from .problems import ProblemSpec, evaluate_lower, evaluate_upper
from .stats import RunRecord, accuracy, config_fingerprint


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
        for name, value in vars(self).items():
            if not 0 < value < np.inf:  # refuses NaN as well
                raise ConfigurationError(f"termination.{name}: must be positive and finite")
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
    violation: float = 0.0  # 0 iff every upper constraint holds
    confirmed: bool = False  # lower level re-solved once from the archive

    def require_evaluated(self):
        if self.F is None or self.x_l_star is None:
            raise ContractViolationError("individual has no upper evaluation (x_l_star/F missing)")
        return self


def lower_level_search(p: ProblemSpec, x_u, pop_size, rule: TerminationRule,
                       ledger: EvalLedger, rng, *, start=None):
    """Optimize ``f(x_u, .)`` until the task budget or stagnation window hits.

    Returns ``(x_l_star, f_star)``, the feasibility-first best point found
    (the search state's best-so-far point).  The budget must cover the
    initial population, so that a search state always exists to report it.
    ``start`` rows, if given, open the initial population (see
    ``optimizers.init_search``); every evaluation counts against the budget.
    """
    if rule.fes_l_max < pop_size:
        raise ContractViolationError(
            f"fes_l_max={rule.fes_l_max} cannot cover a lower population of {pop_size}"
        )
    hist = []  # raw objective value of every evaluation, in FE order
    budget = rule.fes_l_max

    def objective(x_l):
        f, _, violation = evaluate_lower(p, x_u, x_l, ledger)
        hist.append(f)
        return f, violation

    # The stagnation window watches the raw evaluated objective values: it
    # fires only when every candidate sampled in the last window lands within
    # lower_var_eps, i.e. when the sampling distribution has genuinely
    # collapsed onto one objective level.  A monotone best-so-far window
    # would instead abort tasks during transient no-improvement streaks while
    # the population is still spread out, leaving large unresolved residuals
    # that poison the upper-level objective.
    w = rule.fes_l_var_window
    state = init_search(pop_size, p.lower_bounds, objective, rng=rng, start=start)
    while len(hist) < budget:
        if len(hist) >= w and max(hist[-w:]) - min(hist[-w:]) < rule.lower_var_eps:
            break
        step(state, objective, budget - len(hist))
    return state.best


class ResponseArchive:
    """Every individual resolved so far in a run, looked up by upper point.

    It holds the individuals themselves, so a response that
    ``confirm_elite`` corrects is what later lookups return.
    """

    def __init__(self, upper_bounds):
        self.low = upper_bounds[:, 0]
        self.scale = 1.0 / (upper_bounds[:, 1] - upper_bounds[:, 0])
        self.points = np.empty((64, len(upper_bounds)))  # x_u in box units; grows by doubling
        self.members = []

    def add(self, ind):
        n = len(self.members)
        if n == len(self.points):
            self.points = np.concatenate([self.points, np.empty_like(self.points)])
        self.points[n] = (ind.x_u - self.low) * self.scale
        self.members.append(ind)

    def nearest(self, x_u, k):
        """Responses of the ``k`` archived upper points nearest to ``x_u``,
        nearest first; None while the archive is empty."""
        n = len(self.members)
        if not n:
            return None
        d = ((self.points[:n] - (x_u - self.low) * self.scale) ** 2).sum(axis=1)
        k = min(k, n)
        # every index whose distance ties the k-th least, in index order, so
        # the stable sort below orders ties as a full stable argsort would
        near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])
        order = near[np.argsort(d[near], kind="stable")[:k]]
        return np.array([self.members[i].x_l_star for i in order])


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


def upper_variation(P_u, bounds, rng):
    """One rand/1/bin offspring x_u vector per parent.

    Every trial draws its donors from the parents, not from earlier trials.
    """
    low, high = bounds[:, 0], bounds[:, 1]
    X = np.array([ind.x_u for ind in P_u])
    return [de_trial(X, i, low, high, rng) for i in range(len(P_u))]


class NestedRun:
    """The state of one seeded run of the nested BLEA, and its steps.

    It holds the problem ``p``, the resolved ``cfg``, the run's ``rng``, its
    ``ledger`` and ``archive``, the upper population ``P_u``, the
    feasibility-first ``best`` individual resolved so far and ``history``,
    the elitist F after each upper FE.  ``crframework.run_single`` drives
    a run only through its methods; the modes differ in which offspring
    points they hand to ``generation``.
    """

    def __init__(self, p: ProblemSpec, cfg, seed):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigurationError(f"seed: expected an int >= 0, got {seed!r}")  # a bool is no number
        self.p = p
        self.cfg = cfg.resolved(p)
        self.rng = np.random.default_rng(seed)
        self.ledger = EvalLedger()
        self.archive = ResponseArchive(p.upper_bounds)
        self.P_u = []
        self.best = None
        self.history = []

    def _solve(self, ind):
        """Run the lower-level search for ``ind.x_u`` and evaluate the upper
        level, filling ``ind`` in place.

        The search starts from the responses of the nearest upper points in
        the archive (a cold start while it is empty).  Nearby upper points
        have nearby responses, so a warm-started task refines a response
        instead of searching the whole lower box again (the lower-level
        mapping idea of BLEAQ).
        """
        cfg = self.cfg
        start = self.archive.nearest(ind.x_u, cfg.lower)
        ind.x_l_star, ind.f_star = lower_level_search(self.p, ind.x_u, cfg.lower, cfg.termination,
                                                      self.ledger, rng=self.rng, start=start)
        ind.F, _, ind.violation = evaluate_upper(self.p, ind.x_u, ind.x_l_star, self.ledger)
        return ind

    def resolve(self, x_u) -> UpperIndividual:
        """Resolve a new individual at ``x_u``; it joins the archive and may
        become the best."""
        ind = self._solve(UpperIndividual(x_u=np.asarray(x_u, dtype=float)))
        self.archive.add(ind)
        if self.best is None or _ff_key(ind.F, ind.violation) < _ff_key(self.best.F, self.best.violation):
            self.best = ind
        self.history.append(self.best.F)
        return ind

    def resolve_all(self, xs):
        """Resolve the upper points ``xs`` in order until they run out or the
        upper FE budget is spent, and return the resolved individuals.

        ``xs`` may be lazy: a point is taken from it only while the budget lasts.
        """
        xs = iter(xs)
        out = []
        while self.ledger.fes_u < self.cfg.termination.fes_u_max:
            x_u = next(xs, None)
            if x_u is None:
                break
            out.append(self.resolve(x_u))
        return out

    def start(self):
        """Sample and resolve the initial upper population (budget-guarded),
        record the first convergence checkpoint and return the population."""
        low, high = self.p.upper_bounds[:, 0], self.p.upper_bounds[:, 1]
        xs = (self.rng.uniform(low, high) for _ in range(self.cfg.upper))
        self.P_u = self.resolve_all(xs)
        self.ledger.checkpoint(self.best.F)
        return self.P_u

    def variation(self):
        """One rand/1/bin offspring point per member of ``P_u``."""
        return upper_variation(self.P_u, self.p.upper_bounds, self.rng)

    def generation(self, xs):
        """One generation on the offspring points ``xs``: resolve them while
        the budget lasts, keep the ``cfg.upper`` best of parents and offspring,
        and record a convergence checkpoint.  Returns the resolved offspring.
        """
        offspring = self.resolve_all(xs)
        if offspring:
            self.P_u = environmental_selection(self.P_u + offspring, self.cfg.upper)
        self.ledger.checkpoint(self.best.F)
        return offspring

    def confirm_elite(self):
        """Re-solve the lower level of the best individual until the best holds.

        An upper point whose lower task stopped short of the response can
        carry a spuriously good F that no later point beats, so the upper
        stagnation window fires on it.  Before the run may stop on
        stagnation, the best individual's task is run once more, started from
        its own response and its neighbours' in the archive; a better
        response replaces the old one and the upper level is evaluated again.
        Each individual is re-solved at most once, and every evaluation is
        counted by the ledger, which records a convergence checkpoint after
        the re-solves.  The best is re-picked from ``P_u`` after each
        re-solve and recorded for the upper FE it cost.
        """
        fes_t = self.ledger.fes_t
        while not self.best.confirmed and self.ledger.fes_u < self.cfg.termination.fes_u_max:
            self._solve(self.best).confirmed = True
            self.best = min(self.P_u, key=lambda ind: _ff_key(ind.F, ind.violation))
            self.history.append(self.best.F)
        if self.ledger.fes_t != fes_t:
            self.ledger.checkpoint(self.best.F)

    def _termination(self):
        return check_upper_termination(self.ledger, self.history, self.cfg.termination,
                                       self.p.optimum, self.best.violation == 0)

    def stop_reason(self):
        """``check_upper_termination`` for the run so far; a stagnation stop
        stands only once ``confirm_elite`` has held the best individual."""
        reason = self._termination()
        if reason == "stagnation":
            self.confirm_elite()
            reason = self._termination()
        return reason

    def record(self, seed, stop_reason, model_acc_history, trainings_done,
               resamplings, pool_trigger) -> RunRecord:
        """The RunRecord of the finished run; the last four fields are the
        run loop's own counts."""
        best = self.best.require_evaluated()
        cfg, ledger = self.cfg, self.ledger
        F_r, f_r = self.p.optimum
        return RunRecord(
            problem=self.p.name,
            mode=cfg.mode,
            seed=int(seed),
            acc_u=accuracy(best.F, F_r),
            acc_l=accuracy(best.f_star, f_r),
            fes_u=ledger.fes_u,
            fes_l=ledger.fes_l,
            fes_t=ledger.fes_t,
            trace=list(ledger.trace),
            model_acc_history=list(model_acc_history),
            trainings_done=trainings_done,
            config_fingerprint=config_fingerprint(self.p.name, cfg.termination),
            best_F=best.F,
            best_f=best.f_star,
            stop_reason=stop_reason or "",
            pop_size_upper=cfg.upper,
            pop_size_lower=cfg.lower,
            pop_formula=cfg.pop_formula,
            resamplings=resamplings,
            pool_trigger=pool_trigger,
        )

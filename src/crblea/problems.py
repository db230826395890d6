"""Bilevel problem definitions.

A bilevel problem couples an upper-level objective ``F(x_u, x_l)`` with a
lower-level objective ``f(x_u, x_l)``: only the lower-level optimum ``x_l*``
for a given ``x_u`` yields a valid upper-level evaluation.  Constraints at
both levels follow the "<= 0 is feasible" convention.

Provided instances:

* the SMD benchmark suite (smd1..smd12), transcribed at the standard
  desk-scale dimensions (m=2, n=3),
* an analytically solvable quadratic toy problem ("tq") used as a test
  oracle: its lower-level response and bilevel optimum are known in closed
  form.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError, EvaluationError
from .ledger import EvalLedger

Array = np.ndarray


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of one bilevel problem instance.

    ``upper`` maps ``(x_u, x_l)`` to ``(F, G)`` and ``lower`` to ``(f, g)``,
    where ``G``/``g`` are constraint arrays (empty when unconstrained).
    ``optimum`` holds the known optimal objective pair ``(F_r, f_r)`` and
    ``optimum_point`` a point attaining it.
    """

    name: str
    m: int
    n: int
    upper_bounds: Array  # (m, 2)
    lower_bounds: Array  # (n, 2)
    upper: Callable[[Array, Array], tuple]
    lower: Callable[[Array, Array], tuple]
    optimum: tuple  # (F_r, f_r)
    optimum_point: Optional[tuple] = None  # (x_u*, x_l*)
    n_upper_constraints: int = 0
    n_lower_constraints: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ContractViolationError(f"{self.name}: dimensions must be >= 1")
        for bounds, d, label in ((self.upper_bounds, self.m, "upper"), (self.lower_bounds, self.n, "lower")):
            if bounds.shape != (d, 2):
                raise ContractViolationError(f"{self.name}: {label} bounds shape {bounds.shape} != ({d}, 2)")
            if not np.all(bounds[:, 0] < bounds[:, 1]):
                raise ContractViolationError(f"{self.name}: {label} bounds must satisfy low < high")


def _check_point(p: ProblemSpec, x_u, x_l):
    x_u = np.asarray(x_u, dtype=float)
    x_l = np.asarray(x_l, dtype=float)
    if x_u.shape != (p.m,):
        raise ContractViolationError(f"{p.name}: x_u has shape {x_u.shape}, expected ({p.m},)")
    if x_l.shape != (p.n,):
        raise ContractViolationError(f"{p.name}: x_l has shape {x_l.shape}, expected ({p.n},)")
    return x_u, x_l


def _checked(p: ProblemSpec, level, value, cons, x_u, x_l):
    """Coerce one evaluation to ``(value, cons, feasible)`` after rejecting
    non-finite results."""
    value = float(value)
    cons = np.asarray(cons, dtype=float)
    if not (math.isfinite(value) and (cons.size == 0 or np.isfinite(cons).all())):
        raise EvaluationError(f"{p.name}: non-finite {level} evaluation", x_u=x_u, x_l=x_l)
    return value, cons, bool(cons.size == 0 or cons.max() <= 0.0)


def evaluate_upper(p: ProblemSpec, x_u, x_l, ledger: EvalLedger):
    """Evaluate ``F`` and the upper constraints, consuming one upper-level FE.

    Returns ``(F, G, feasible)`` with ``feasible`` iff every ``G_j <= 0``.
    """
    x_u, x_l = _check_point(p, x_u, x_l)
    F, G = p.upper(x_u, x_l)
    ledger.count_upper()
    return _checked(p, "upper", F, G, x_u, x_l)


def evaluate_lower(p: ProblemSpec, x_u, x_l, ledger: EvalLedger):
    """Evaluate ``f`` and the lower constraints, consuming one lower-level FE."""
    x_u, x_l = _check_point(p, x_u, x_l)
    f, g = p.lower(x_u, x_l)
    ledger.count_lower()
    return _checked(p, "lower", f, g, x_u, x_l)


# ---------------------------------------------------------------------------
# Toy quadratic oracle problem
# ---------------------------------------------------------------------------


def make_toy(variant: str, m: int, a, c) -> ProblemSpec:
    """Analytic quadratic bilevel problem.

    Lower level: f = ||x_l - x_u - c||^2, minimized exactly at x_l = x_u + c.
    Upper level: F = ||x_u - a||^2 + ||x_l||^2, so the induced single-level
    problem F(x_u) = ||x_u - a||^2 + ||x_u + c||^2 has its optimum at
    x_u* = (a - c) / 2.
    """
    if variant != "tq":
        raise ConfigurationError(f"unknown toy variant {variant!r}")
    if m < 1:
        raise ContractViolationError("m must be >= 1")
    a = np.broadcast_to(np.asarray(a, dtype=float), (m,)).copy()
    c = np.broadcast_to(np.asarray(c, dtype=float), (m,)).copy()

    x_u_star = (a - c) / 2.0
    x_l_star = x_u_star + c
    F_r = float(np.sum((x_u_star - a) ** 2) + np.sum(x_l_star**2))

    def upper(x_u, x_l):
        return ((x_u - a) ** 2).sum() + (x_l**2).sum(), np.empty(0)

    def lower(x_u, x_l):
        return ((x_l - x_u - c) ** 2).sum(), np.empty(0)

    half_width = max(5.0, 2.0 * float(np.max(np.abs(np.concatenate([a, c, x_u_star, x_l_star])))) + 5.0)
    bounds = np.tile([-half_width, half_width], (m, 1))
    return ProblemSpec(
        name="tq",
        m=m,
        n=m,
        upper_bounds=bounds,
        lower_bounds=bounds.copy(),
        upper=upper,
        lower=lower,
        optimum=(F_r, 0.0),
        optimum_point=(x_u_star, x_l_star),
    )


# ---------------------------------------------------------------------------
# SMD suite (desk-scale dimensions)
# ---------------------------------------------------------------------------

_TAN_BOUND = 1.57  # just inside (-pi/2, pi/2) so tan stays bounded
_LOG_EPS = 1e-6  # keeps log arguments strictly positive at the box edge


def _smd_split(p_dim, q_dim):
    def split(x_u, x_l):
        return x_u[:p_dim], x_u[p_dim:], x_l[:q_dim], x_l[q_dim:]

    return split


def _smd_pieces(index: int, p_dim: int, q_dim: int, r_dim: int, s_dim: int):
    """Objective/constraint closures and box bounds for one SMD instance.

    Upper variables are (x_u1, x_u2) of sizes (p, r); lower variables are
    (x_l1, x_l2) of sizes (q + s, r).  Constraints are returned in the
    "<= 0 feasible" direction.
    """
    split = _smd_split(p_dim, q_dim + s_dim)
    no_con = np.empty(0)
    # row j of others_k selects every entry of a length-k block except entry j
    others_p, others_q, others_r = (~np.eye(k, dtype=bool) for k in (p_dim, q_dim, r_dim))

    def rosenbrock(v):
        return (100.0 * (v[1:] - v[:-1] ** 2) ** 2 + (v[:-1] - 1.0) ** 2).sum()

    if index == 1:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - np.tan(xl2)) ** 2).sum()
            return (xu1**2).sum() + (xl1**2).sum() + (xu2**2).sum() + t3, no_con

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            return (xl1**2).sum() + ((xu2 - np.tan(xl2)) ** 2).sum(), no_con

        ub = [[-5, 10]] * (p_dim + r_dim)
        lb = [[-5, 10]] * q_dim + [[-_TAN_BOUND, _TAN_BOUND]] * r_dim
        opt_point = (np.zeros(p_dim + r_dim), np.zeros(q_dim + r_dim))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 0, 0

    if index == 2:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - np.log(xl2)) ** 2).sum()
            return (xu1**2).sum() - (xl1**2).sum() + (xu2**2).sum() - t3, no_con

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            return (xl1**2).sum() + ((xu2 - np.log(xl2)) ** 2).sum(), no_con

        ub = [[-5, 10]] * p_dim + [[-5, 1]] * r_dim
        lb = [[-5, 10]] * q_dim + [[_LOG_EPS, np.e]] * r_dim
        opt_point = (np.zeros(p_dim + r_dim), np.concatenate([np.zeros(q_dim), np.ones(r_dim)]))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 0, 0

    if index == 3:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2**2 - np.tan(xl2)) ** 2).sum()
            return (xu1**2).sum() + (xl1**2).sum() + (xu2**2).sum() + t3, no_con

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            f2 = q_dim + (xl1**2 - np.cos(2 * np.pi * xl1)).sum()
            return f2 + ((xu2**2 - np.tan(xl2)) ** 2).sum(), no_con

        ub = [[-5, 10]] * (p_dim + r_dim)
        lb = [[-5, 10]] * q_dim + [[-_TAN_BOUND, _TAN_BOUND]] * r_dim
        opt_point = (np.zeros(p_dim + r_dim), np.zeros(q_dim + r_dim))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 0, 0

    if index == 4:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((np.abs(xu2) - np.log(1.0 + xl2)) ** 2).sum()
            return (xu1**2).sum() - (xl1**2).sum() + (xu2**2).sum() - t3, no_con

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            f2 = q_dim + (xl1**2 - np.cos(2 * np.pi * xl1)).sum()
            return f2 + ((np.abs(xu2) - np.log(1.0 + xl2)) ** 2).sum(), no_con

        ub = [[-5, 10]] * p_dim + [[-1, 1]] * r_dim
        lb = [[-5, 10]] * q_dim + [[0, np.e]] * r_dim
        opt_point = (np.zeros(p_dim + r_dim), np.zeros(q_dim + r_dim))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 0, 0

    if index == 5:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((np.abs(xu2) - xl2**2) ** 2).sum()
            return (xu1**2).sum() - rosenbrock(xl1) + (xu2**2).sum() - t3, no_con

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            return rosenbrock(xl1) + ((np.abs(xu2) - xl2**2) ** 2).sum(), no_con

        ub = [[-5, 10]] * (p_dim + r_dim)
        lb = [[-5, 10]] * (q_dim + r_dim)
        opt_point = (np.zeros(p_dim + r_dim), np.concatenate([np.ones(q_dim), np.zeros(r_dim)]))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 0, 0

    if index == 6:
        # x_l1 spans q + s dims; the trailing s dims only enter f through
        # pairwise differences, giving infinitely many lower-level optima.
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - xl2) ** 2).sum()
            F2 = -(xl1[:q_dim] ** 2).sum() + (xl1[q_dim:] ** 2).sum()
            return (xu1**2).sum() + F2 + (xu2**2).sum() - t3, no_con

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            f2 = (xl1[:q_dim] ** 2).sum()
            f2 += sum((xl1[i + 1] - xl1[i]) ** 2 for i in range(q_dim, q_dim + s_dim - 1, 2))
            return f2 + ((xu2 - xl2) ** 2).sum(), no_con

        ub = [[-5, 10]] * (p_dim + r_dim)
        lb = [[-5, 10]] * (q_dim + s_dim + r_dim)
        opt_point = (np.zeros(p_dim + r_dim), np.zeros(q_dim + s_dim + r_dim))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 0, 0

    if index == 7:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            cos_prod = np.cos(xu1 / np.sqrt(np.arange(1, p_dim + 1))).prod()
            F1 = 1.0 + (xu1**2).sum() / 4000.0 - cos_prod
            t3 = ((xu2 - np.log(xl2)) ** 2).sum()
            return F1 - (xl1**2).sum() + (xu2**2).sum() - t3, no_con

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            return (xl1**2).sum() + ((xu2 - np.log(xl2)) ** 2).sum(), no_con

        ub = [[-5, 10]] * p_dim + [[-5, 1]] * r_dim
        lb = [[-5, 10]] * q_dim + [[_LOG_EPS, np.e]] * r_dim
        opt_point = (np.zeros(p_dim + r_dim), np.concatenate([np.zeros(q_dim), np.ones(r_dim)]))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 0, 0

    if index == 8:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            F1 = (
                20.0
                + np.e
                - 20.0 * np.exp(-0.2 * np.sqrt((xu1**2).sum() / p_dim))
                - np.exp(np.cos(2 * np.pi * xu1).sum() / p_dim)
            )
            t3 = ((xu2 - xl2**3) ** 2).sum()
            return F1 - rosenbrock(xl1) + (xu2**2).sum() - t3, no_con

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            return rosenbrock(xl1) + ((xu2 - xl2**3) ** 2).sum(), no_con

        ub = [[-5, 10]] * (p_dim + r_dim)
        lb = [[-5, 10]] * (q_dim + r_dim)
        opt_point = (np.zeros(p_dim + r_dim), np.concatenate([np.ones(q_dim), np.zeros(r_dim)]))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 0, 0

    if index == 9:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - np.log(1.0 + xl2)) ** 2).sum()
            F = (xu1**2).sum() - (xl1**2).sum() + (xu2**2).sum() - t3
            term = (x_u**2).sum()
            G = np.array([term - np.floor(term + 0.5)])
            return F, G

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            f = (xl1**2).sum() + ((xu2 - np.log(1.0 + xl2)) ** 2).sum()
            term = (x_l**2).sum()
            g = np.array([term - np.floor(term + 0.5)])
            return f, g

        ub = [[-5, 10]] * p_dim + [[-5, 1]] * r_dim
        lb = [[-5, 10]] * q_dim + [[-1 + _LOG_EPS, -1 + np.e]] * r_dim
        opt_point = (np.zeros(p_dim + r_dim), np.zeros(q_dim + r_dim))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, 1, 1

    if index == 10:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - np.tan(xl2)) ** 2).sum()
            F = ((xu1 - 2) ** 2).sum() + (xl1**2).sum() + ((xu2 - 2) ** 2).sum() - t3
            G = np.concatenate(
                [
                    [xu1[j] - (xu1[others_p[j]] ** 3).sum() - (xu2**3).sum() for j in range(p_dim)],
                    [xu2[j] - (xu2[others_r[j]] ** 3).sum() - (xu1**3).sum() for j in range(r_dim)],
                ]
            )
            return F, G

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            f = ((xl1 - 2) ** 2).sum() + ((xu2 - np.tan(xl2)) ** 2).sum()
            g = np.array([xl1[j] - (xl1[others_q[j]] ** 3).sum() for j in range(q_dim)])
            return f, g

        ub = [[-5, 10]] * (p_dim + r_dim)
        lb = [[-5, 10]] * q_dim + [[-_TAN_BOUND, _TAN_BOUND]] * r_dim
        opt_point = (
            np.full(p_dim + r_dim, 2.0),
            np.concatenate([np.full(q_dim, 2.0), np.arctan(np.full(r_dim, 2.0))]),
        )
        F_r = float(q_dim * 4.0)  # F at the optimum: x_l1 = 2 contributes q * 4
        return upper, lower, ub, lb, (F_r, 0.0), opt_point, p_dim + r_dim, q_dim

    if index == 11:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - np.log(xl2)) ** 2).sum()
            F = (xu1**2).sum() - (xl1**2).sum() + (xu2**2).sum() - t3
            G = xu2 - 1.0 / np.sqrt(r_dim) - np.log(xl2)
            return F, G

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - np.log(xl2)) ** 2).sum()
            return (xl1**2).sum() + t3, np.array([t3 - 1.0])

        ub = [[-5, 10]] * p_dim + [[-1, 1]] * r_dim
        lb = [[-5, 10]] * q_dim + [[1 / np.e, np.e]] * r_dim
        opt_point = (np.zeros(p_dim + r_dim), np.concatenate([np.zeros(q_dim), np.ones(r_dim)]))
        return upper, lower, ub, lb, (0.0, 0.0), opt_point, r_dim, 1

    if index == 12:
        def upper(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - np.tan(xl2)) ** 2).sum()
            F = (
                ((xu1 - 2) ** 2).sum()
                + (xl1**2).sum()
                + ((xu2 - 2) ** 2).sum()
                + np.tan(np.abs(xl2)).sum()
                - t3
            )
            G = np.concatenate(
                [
                    xu2 - np.tan(xl2),
                    [xu1[j] - (xu1[others_p[j]] ** 3).sum() - (xu2**3).sum() for j in range(p_dim)],
                    [xu2[j] - (xu2[others_r[j]] ** 3).sum() - (xu1**3).sum() for j in range(r_dim)],
                ]
            )
            return F, G

        def lower(x_u, x_l):
            xu1, xu2, xl1, xl2 = split(x_u, x_l)
            t3 = ((xu2 - np.tan(xl2)) ** 2).sum()
            g = np.concatenate(
                [[t3 - 1.0], [xl1[j] - (xl1[others_q[j]] ** 3).sum() for j in range(q_dim)]]
            )
            return ((xl1 - 2) ** 2).sum() + t3, g

        ub = [[-5, 10]] * p_dim + [[-14.1, 14.1]] * r_dim
        lb = [[-5, 10]] * q_dim + [[-1.5, 1.5]] * r_dim
        opt_point = (
            np.concatenate([np.full(p_dim, 2.0), np.full(r_dim, 1.5)]),
            np.concatenate([np.full(q_dim, 2.0), np.arctan(np.full(r_dim, 1.5))]),
        )
        F_r = float(q_dim * 4.0 + r_dim * (0.25 + 1.5))
        return upper, lower, ub, lb, (F_r, 0.0), opt_point, p_dim + 2 * r_dim, q_dim + 1

    raise ConfigurationError(f"SMD index {index} out of range 1..12")


def make_smd(index: int, m: int, n: int) -> ProblemSpec:
    """Build one SMD instance with upper dimension ``m`` and lower ``n``.

    The upper vector splits as (p, r) = (m - r, r) with r = floor(m / 2);
    the lower vector as (q, r) (plus the SMD6-specific s block).
    """
    if not (isinstance(index, int) and 1 <= index <= 12):
        raise ConfigurationError(f"SMD index {index} out of range 1..12")
    if m < 2 or n < 2:
        raise ConfigurationError(f"SMD requires m >= 2 and n >= 2, got (m={m}, n={n})")
    r_dim = m // 2
    p_dim = m - r_dim
    if index == 6:
        s_dim = 2
        q_dim = n - r_dim - s_dim
        if q_dim < 0:
            raise ConfigurationError(f"SMD6 needs n >= {r_dim + s_dim}, got n={n}")
    else:
        s_dim = 0
        q_dim = n - r_dim
        if q_dim < 1:
            raise ConfigurationError(f"SMD{index} needs n > {r_dim}, got n={n}")
        if index in (5, 8) and q_dim < 2:
            raise ConfigurationError(f"SMD{index} needs q >= 2 for the Rosenbrock block (n={n})")

    upper, lower, ub, lb, optimum, opt_point, n_G, n_g = _smd_pieces(index, p_dim, q_dim, r_dim, s_dim)
    return ProblemSpec(
        name=f"smd{index}",
        m=m,
        n=n,
        upper_bounds=np.asarray(ub, dtype=float),
        lower_bounds=np.asarray(lb, dtype=float),
        upper=upper,
        lower=lower,
        optimum=optimum,
        optimum_point=opt_point,
        n_upper_constraints=n_G,
        n_lower_constraints=n_g,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY = {f"smd{i}": (lambda i=i: make_smd(i, 2, 3)) for i in range(1, 13)}
# a = -c puts the optimal lower vector at the origin, so lower-solve residuals
# perturb F only at second order and the accuracy floor stays reachable
_REGISTRY["tq"] = lambda: make_toy("tq", 2, a=(2.0, 2.0), c=(-2.0, -2.0))


def problem_names():
    return sorted(_REGISTRY)


def get_problem(name: str) -> ProblemSpec:
    """Look up a problem by registry name ("smd1".."smd12", "tq")."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ConfigurationError(f"unknown problem {name!r}; known: {', '.join(problem_names())}") from None
    return factory()

"""Bilevel problem definitions.

A bilevel problem couples an upper-level objective ``F(x_u, x_l)`` with a
lower-level objective ``f(x_u, x_l)``: only the lower-level optimum ``x_l*``
for a given ``x_u`` yields a valid upper-level evaluation.  Constraints at
both levels follow the "<= 0 is feasible" convention, and an evaluation
reduces them to one violation number: 0.0 for a feasible point, the summed
positive excess otherwise.

Provided instances:

* the SMD benchmark suite (smd1..smd12) at the standard desk-scale
  dimensions (m=2, n=3), built from one table of components per instance,
* an analytically solvable quadratic toy problem ("tq") used as a test
  oracle: its lower-level response and bilevel optimum are known in closed
  form.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError, EvaluationError

Array = np.ndarray
# ndarray.sum() reaches this ufunc method through numpy's Python-level
# wrapper; the closures below call it directly
_sum = np.add.reduce


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

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ContractViolationError(f"{self.name}: dimensions must be >= 1")
        for bounds, d, label in ((self.upper_bounds, self.m, "upper"), (self.lower_bounds, self.n, "lower")):
            if bounds.shape != (d, 2):
                raise ContractViolationError(f"{self.name}: {label} bounds shape {bounds.shape} != ({d}, 2)")
            if not np.all(bounds[:, 0] < bounds[:, 1]):
                raise ContractViolationError(f"{self.name}: {label} bounds must satisfy low < high")


@dataclass
class EvalLedger:
    """The upper- and lower-level function evaluations of one run.

    ``evaluate_upper`` adds one to ``fes_u`` and ``evaluate_lower`` one to
    ``fes_l``; ``fes_t`` is their sum.
    """

    fes_u: int = 0
    fes_l: int = 0

    @property
    def fes_t(self):
        return self.fes_u + self.fes_l


def _check_point(p: ProblemSpec, x_u, x_l):
    x_u = np.asarray(x_u, dtype=float)
    x_l = np.asarray(x_l, dtype=float)
    if x_u.shape != (p.m,):
        raise ContractViolationError(f"{p.name}: x_u has shape {x_u.shape}, expected ({p.m},)")
    if x_l.shape != (p.n,):
        raise ContractViolationError(f"{p.name}: x_l has shape {x_l.shape}, expected ({p.n},)")
    return x_u, x_l


def _checked(p: ProblemSpec, level, value, cons, x_u, x_l):
    """Coerce one evaluation to ``(value, cons, violation)`` after rejecting
    non-finite results.  The violation is 0.0 when every constraint holds and
    the summed positive excess of the constraints otherwise."""
    value = float(value)
    cons = np.asarray(cons, dtype=float)
    # A handful of constraints is checked and summed faster as Python floats
    # than by numpy reductions.
    c = cons.ravel().tolist() if cons.size else ()
    if not (math.isfinite(value) and all(map(math.isfinite, c))):
        raise EvaluationError(f"{p.name}: non-finite {level} evaluation", x_u=x_u, x_l=x_l)
    # Summed left to right in a loop: the builtin sum() compensates float
    # sums from Python 3.12 on, and a float sum past the double range is
    # inf with no warning.
    violation = 0.0
    for excess in c:
        if excess > 0.0:
            violation += excess
    return value, cons, violation


def evaluate_upper(p: ProblemSpec, x_u, x_l, ledger: EvalLedger):
    """Evaluate ``F`` and the upper constraints, consuming one upper-level FE.

    Returns ``(F, G, violation)``; the violation is 0.0 iff every
    ``G_j <= 0`` (see ``_checked``).
    """
    x_u, x_l = _check_point(p, x_u, x_l)
    F, G = p.upper(x_u, x_l)
    ledger.fes_u += 1
    return _checked(p, "upper", F, G, x_u, x_l)


def evaluate_lower(p: ProblemSpec, x_u, x_l, ledger: EvalLedger):
    """Evaluate ``f`` and the lower constraints, consuming one lower-level FE;
    returns ``(f, g, violation)`` as ``evaluate_upper`` does."""
    x_u, x_l = _check_point(p, x_u, x_l)
    f, g = p.lower(x_u, x_l)
    ledger.fes_l += 1
    return _checked(p, "lower", f, g, x_u, x_l)


# ---------------------------------------------------------------------------
# Toy quadratic oracle problem
# ---------------------------------------------------------------------------


def make_toy(m: int, a, c) -> ProblemSpec:
    """Analytic quadratic bilevel problem.

    Lower level: f = ||x_l - x_u - c||^2, minimized exactly at x_l = x_u + c.
    Upper level: F = ||x_u - a||^2 + ||x_l||^2, so the induced single-level
    problem F(x_u) = ||x_u - a||^2 + ||x_u + c||^2 has its optimum at
    x_u* = (a - c) / 2.
    """
    if m < 1:
        raise ContractViolationError("m must be >= 1")
    a = np.broadcast_to(np.asarray(a, dtype=float), (m,)).copy()
    c = np.broadcast_to(np.asarray(c, dtype=float), (m,)).copy()

    x_u_star = (a - c) / 2.0
    x_l_star = x_u_star + c
    F_r = float(np.sum((x_u_star - a) ** 2) + np.sum(x_l_star**2))

    def upper(x_u, x_l):
        return _sum((x_u - a) ** 2) + _sum(x_l**2), np.empty(0)

    def lower(x_u, x_l):
        return _sum((x_l - x_u - c) ** 2), np.empty(0)

    half_width = max(5.0, 2.0 * float(np.max(np.abs(np.concatenate([a, c, x_u_star, x_l_star])))) + 5.0)
    bounds = np.tile([-half_width, half_width], (m, 1))
    return ProblemSpec(name="tq", m=m, n=m, upper_bounds=bounds, lower_bounds=bounds.copy(),
                       upper=upper, lower=lower, optimum=(F_r, 0.0),
                       optimum_point=(x_u_star, x_l_star))


# ---------------------------------------------------------------------------
# SMD suite (desk-scale dimensions)
# ---------------------------------------------------------------------------

_TAN_BOUND = 1.57  # just inside (-pi/2, pi/2) so tan stays bounded
_LOG_EPS = 1e-6  # keeps log arguments strictly positive at the box edge
_BOX = (-5.0, 10.0)  # every x_u1 and x_l1 coordinate
_SMD6_S = 2  # SMD6's x_l1 ends in an s block whose coordinates pair up


def _ident(v):
    return v


def _sq(v):
    return _sum(v**2)


def _neg_sq(v):
    return -_sum(v**2)


def _sq_from_2(v):
    return _sum((v - 2) ** 2)


def _rastrigin(v):
    return len(v) + _sum(v**2 - np.cos(2 * np.pi * v))


def _rosenbrock(v):
    return _sum(100.0 * (v[1:] - v[:-1] ** 2) ** 2 + (v[:-1] - 1.0) ** 2)


def _griewank(v):
    cosines = np.cos(v / np.sqrt(np.arange(1, len(v) + 1)))
    return 1.0 + _sum(v**2) / 4000.0 - np.multiply.reduce(cosines)


def _ackley(v):
    p = len(v)
    return (20.0 + np.e - 20.0 * np.exp(-0.2 * np.sqrt(_sum(v**2) / p))
            - np.exp(_sum(np.cos(2 * np.pi * v)) / p))


def _smd6_F2(v):
    return -_sum(v[:-_SMD6_S] ** 2) + _sum(v[-_SMD6_S:] ** 2)


def _smd6_f2(v):
    # the s block enters only through differences of its pairs, so the lower
    # level has infinitely many optima
    q = len(v) - _SMD6_S
    return _sum(v[:q] ** 2) + sum((v[i + 1] - v[i]) ** 2 for i in range(q, len(v) - 1, 2))


def _round_off(v):
    """SMD9's published ``term - floor(term + 0.5) >= 0`` on the sum of
    squares ``term``, in this module's "<= 0 feasible" form."""
    term = _sum(v**2)
    return np.array([np.floor(term + 0.5) - term])


@functools.cache
def _others(k):
    """Row j holds the indices 0..k-1 except j, in increasing order."""
    idx = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)
    idx.setflags(write=False)  # one cached array serves every caller
    return idx


def _cubic(v):
    """v_j - sum_{i != j} v_i^3 for every j (SMD10 and SMD12)."""
    # take and add.reduce gather and sum as indexing and .sum would, with
    # less per-call overhead
    return v - np.add.reduce(np.power(v, 3).take(_others(len(v))), axis=1)


def _cubic_upper(xu1, xu2):
    return np.concatenate((_cubic(xu1) - _sum(xu2**3), _cubic(xu2) - _sum(xu1**3)))


def _smd12_g(xl1, t3):
    """t3 - 1 followed by the cubic constraints of x_l1 (SMD12's g)."""
    g = np.empty(len(xl1) + 1)
    g[0] = t3 - 1.0
    g[1:] = _cubic(xl1)
    return g


@dataclass(frozen=True)
class _SmdRow:
    """The components of one SMD instance.

    F = F1(x_u1) + F2(x_l1) + U(x_u2) [+ L(x_l2)] -/+ t3 and f = f2(x_l1) + t3,
    summed left to right, where t3 = sum((a(x_u2) - b(x_l2))^2).  ``G`` and
    ``g`` return the constraints ("<= 0 feasible").  ``optimum`` holds one
    coordinate value per block and ``F_r(q, r)`` the hand-derived F there.
    """

    F1: Callable
    F2: Callable
    f2: Callable
    U: Callable
    a: Callable
    b: Callable
    subtract: bool  # F subtracts t3 (adds it otherwise)
    u2_box: tuple  # (low, high) of every x_u2 coordinate; x_u1 and x_l1 lie in _BOX
    l2_box: tuple
    optimum: tuple = (0, 0, 0, 0)  # x_u1, x_u2, x_l1, x_l2
    G: Optional[Callable] = None  # (x_u1, x_u2, x_l2) -> G
    g: Optional[Callable] = None  # (x_l1, x_l2, t3) -> g
    L: Optional[Callable] = None  # x_l2 -> extra term of F (SMD12)
    F_r: Callable = lambda q, r: 0.0  # q, r: widths of x_l1 and x_l2
    min_l1: int = 1  # least x_l1 width


_TAN_BOX = (-_TAN_BOUND, _TAN_BOUND)
_LOG_BOX = (_LOG_EPS, np.e)

# Rows in SMD order.  Positional columns: F1, F2, f2, U, a, b, subtract,
# u2_box, l2_box; keywords only where a row differs from the defaults.
_SMD = (
    _SmdRow(_sq, _sq, _sq, _sq, _ident, np.tan, False, _BOX, _TAN_BOX),
    _SmdRow(_sq, _neg_sq, _sq, _sq, _ident, np.log, True, (-5, 1), _LOG_BOX,
            optimum=(0, 0, 0, 1)),
    _SmdRow(_sq, _sq, _rastrigin, _sq, lambda v: v**2, np.tan, False, _BOX, _TAN_BOX),
    _SmdRow(_sq, _neg_sq, _rastrigin, _sq, np.abs, lambda v: np.log(1.0 + v), True,
            (-1, 1), (0, np.e)),
    _SmdRow(_sq, lambda v: -_rosenbrock(v), _rosenbrock, _sq, np.abs, lambda v: v**2, True,
            _BOX, _BOX, optimum=(0, 0, 1, 0), min_l1=2),
    _SmdRow(_sq, _smd6_F2, _smd6_f2, _sq, _ident, _ident, True, _BOX, _BOX, min_l1=_SMD6_S),
    _SmdRow(_griewank, _neg_sq, _sq, _sq, _ident, np.log, True, (-5, 1), _LOG_BOX,
            optimum=(0, 0, 0, 1)),
    _SmdRow(_ackley, lambda v: -_rosenbrock(v), _rosenbrock, _sq, _ident, lambda v: v**3, True,
            _BOX, _BOX, optimum=(0, 0, 1, 0), min_l1=2),
    _SmdRow(_sq, _neg_sq, _sq, _sq, _ident, lambda v: np.log(1.0 + v), True,
            (-5, 1), (-1 + _LOG_EPS, -1 + np.e),
            G=lambda xu1, xu2, xl2: _round_off(np.concatenate((xu1, xu2))),
            g=lambda xl1, xl2, t3: _round_off(np.concatenate((xl1, xl2)))),
    _SmdRow(_sq_from_2, _sq, _sq_from_2, _sq_from_2, _ident, np.tan, True, _BOX, _TAN_BOX,
            optimum=(2, 2, 2, np.arctan(2.0)),
            G=lambda xu1, xu2, xl2: _cubic_upper(xu1, xu2),
            g=lambda xl1, xl2, t3: _cubic(xl1),
            F_r=lambda q, r: q * 4.0),  # x_l1 = 2 contributes 4 per coordinate
    _SmdRow(_sq, _neg_sq, _sq, _sq, _ident, np.log, True, (-1, 1), (1 / np.e, np.e),
            optimum=(0, 0, 0, 1),
            G=lambda xu1, xu2, xl2: xu2 - 1.0 / np.sqrt(len(xu2)) - np.log(xl2),
            g=lambda xl1, xl2, t3: np.array([t3 - 1.0])),
    _SmdRow(_sq_from_2, _sq, _sq_from_2, _sq_from_2, _ident, np.tan, True,
            (-14.1, 14.1), (-1.5, 1.5), optimum=(2, 1.5, 2, np.arctan(1.5)),
            G=lambda xu1, xu2, xl2: np.concatenate((xu2 - np.tan(xl2), _cubic_upper(xu1, xu2))),
            g=lambda xl1, xl2, t3: _smd12_g(xl1, t3),
            L=lambda xl2: _sum(np.tan(np.abs(xl2))),
            F_r=lambda q, r: q * 4.0 + r * (0.25 + 1.5)),
)


def make_smd(index: int, m: int, n: int) -> ProblemSpec:
    """Build SMD instance ``index`` (a row of ``_SMD``) at dimensions (m, n).

    This is the construction of Sinha, Malo & Deb (Evol. Comput. 2014): x_u
    splits as (x_u1, x_u2) of sizes (m - r, r) with r = floor(m / 2), x_l as
    (x_l1, x_l2) of sizes (n - r, r).  The published f also adds f1(x_u1),
    which is left out: it is constant for a fixed x_u, so it moves no x_l*,
    and the evaluations pinned in ``tests/test_golden.py`` exclude it.
    """
    if not (isinstance(index, int) and 1 <= index <= 12):
        raise ConfigurationError(f"SMD index {index} out of range 1..12")
    if m < 2 or n < 2:
        raise ConfigurationError(f"SMD requires m >= 2 and n >= 2, got (m={m}, n={n})")
    row = _SMD[index - 1]
    r = m // 2
    p = m - r
    k = n - r  # x_l1 width
    if k < row.min_l1:
        raise ConfigurationError(f"SMD{index} needs n >= {r + row.min_l1}, got n={n}")
    F1, F2, f2, U, L, a, b, G, g = row.F1, row.F2, row.f2, row.U, row.L, row.a, row.b, row.G, row.g
    subtract = row.subtract
    no_con = np.empty(0)

    def upper(x_u, x_l):
        xu1, xu2, xl2 = x_u[:p], x_u[p:], x_l[k:]
        t3 = _sum((a(xu2) - b(xl2)) ** 2)
        F = F1(xu1) + F2(x_l[:k]) + U(xu2)
        if L is not None:
            F += L(xl2)
        return (F - t3 if subtract else F + t3), (no_con if G is None else G(xu1, xu2, xl2))

    def lower(x_u, x_l):
        xl1, xl2 = x_l[:k], x_l[k:]
        t3 = _sum((a(x_u[p:]) - b(xl2)) ** 2)
        return f2(xl1) + t3, (no_con if g is None else g(xl1, xl2, t3))

    u1, u2, l1, l2 = row.optimum
    return ProblemSpec(
        name=f"smd{index}", m=m, n=n,
        upper_bounds=np.array([_BOX] * p + [row.u2_box] * r, dtype=float),
        lower_bounds=np.array([_BOX] * k + [row.l2_box] * r, dtype=float),
        upper=upper,
        lower=lower,
        optimum=(float(row.F_r(k, r)), 0.0),
        optimum_point=(np.array([u1] * p + [u2] * r, dtype=float),
                       np.array([l1] * k + [l2] * r, dtype=float)),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY = {f"smd{i}": (lambda i=i: make_smd(i, 2, 3)) for i in range(1, 13)}
# a = -c puts the optimal lower vector at the origin, so lower-solve residuals
# perturb F only at second order and the accuracy floor stays reachable
_REGISTRY["tq"] = lambda: make_toy(2, a=(2.0, 2.0), c=(-2.0, -2.0))


def problem_names():
    return sorted(_REGISTRY)


def get_problem(name: str) -> ProblemSpec:
    """Look up a problem by registry name ("smd1".."smd12", "tq")."""
    if not isinstance(name, str) or name.lower() not in _REGISTRY:
        raise ConfigurationError(f"name: unknown problem {name!r}; known: {', '.join(problem_names())}")
    return _REGISTRY[name.lower()]()

"""Problem definitions: registry, dimensions, known optima, FE accounting."""

import functools
import operator

import numpy as np
import pytest

from crblea import (
    ConfigurationError,
    ContractViolationError,
    EvalLedger,
    EvaluationError,
    evaluate_lower,
    evaluate_upper,
    get_problem,
    make_smd,
    make_toy,
    problem_names,
)
from crblea.problems import ProblemSpec

ALL_SMD = [f"smd{i}" for i in range(1, 13)]


def test_registry_contents():
    names = problem_names()
    for name in ALL_SMD + ["tq"]:
        assert name in names


def test_get_problem_case_insensitive():
    assert get_problem("SMD1").name == "smd1"
    assert get_problem("Tq").name == "tq"


def test_get_problem_unknown():
    for name in ("smd99", 5, None):
        with pytest.raises(ConfigurationError, match="name"):
            get_problem(name)


@pytest.mark.parametrize("name", ALL_SMD)
def test_smd_dimensions_and_bounds(name):
    p = get_problem(name)
    assert p.m == 2
    assert p.n == 3
    assert p.upper_bounds.shape == (2, 2)
    assert p.lower_bounds.shape == (3, 2)
    assert np.all(p.upper_bounds[:, 0] < p.upper_bounds[:, 1])
    assert np.all(p.lower_bounds[:, 0] < p.lower_bounds[:, 1])


@pytest.mark.parametrize("name", ALL_SMD + ["tq"])
def test_optimum_point_attains_optimum(name):
    p = get_problem(name)
    x_u, x_l = p.optimum_point
    ledger = EvalLedger()
    F, G, viol_u = evaluate_upper(p, x_u, x_l, ledger)
    f, g, viol_l = evaluate_lower(p, x_u, x_l, ledger)
    F_r, f_r = p.optimum
    assert F == pytest.approx(F_r, abs=1e-9)
    assert f == pytest.approx(f_r, abs=1e-9)
    assert viol_u == viol_l == 0.0


@pytest.mark.parametrize("name", ALL_SMD + ["tq"])
def test_optimum_point_inside_bounds(name):
    p = get_problem(name)
    x_u, x_l = p.optimum_point
    assert np.all(x_u >= p.upper_bounds[:, 0]) and np.all(x_u <= p.upper_bounds[:, 1])
    assert np.all(x_l >= p.lower_bounds[:, 0]) and np.all(x_l <= p.lower_bounds[:, 1])


@pytest.mark.parametrize("name", ALL_SMD + ["tq"])
def test_lower_optimum_is_local_minimum(name):
    """Perturbing x_l* (within bounds) never improves the lower objective."""
    p = get_problem(name)
    x_u, x_l_star = p.optimum_point
    ledger = EvalLedger()
    f_star, _, _ = evaluate_lower(p, x_u, x_l_star, ledger)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x_l = np.clip(x_l_star + rng.normal(0, 0.05, p.n),
                      p.lower_bounds[:, 0], p.lower_bounds[:, 1])
        f, _, _ = evaluate_lower(p, x_u, x_l, ledger)
        assert f >= f_star - 1e-12


def test_ledger_counting():
    p = get_problem("smd1")
    x_u, x_l = p.optimum_point
    ledger = EvalLedger()
    evaluate_upper(p, x_u, x_l, ledger)
    assert (ledger.fes_u, ledger.fes_l, ledger.fes_t) == (1, 0, 1)
    evaluate_lower(p, x_u, x_l, ledger)
    evaluate_lower(p, x_u, x_l, ledger)
    assert (ledger.fes_u, ledger.fes_l, ledger.fes_t) == (1, 2, 3)


def test_dimension_mismatch_raises():
    p = get_problem("smd1")
    with pytest.raises(ContractViolationError):
        evaluate_upper(p, np.zeros(3), np.zeros(3), EvalLedger())
    with pytest.raises(ContractViolationError):
        evaluate_lower(p, np.zeros(2), np.zeros(2), EvalLedger())


def test_non_finite_evaluation_raises():
    p = ProblemSpec(
        name="bad", m=1, n=1,
        upper_bounds=np.array([[-1.0, 1.0]]),
        lower_bounds=np.array([[-1.0, 1.0]]),
        upper=lambda xu, xl: (np.inf, np.empty(0)),
        lower=lambda xu, xl: (np.nan, np.empty(0)),
        optimum=(0.0, 0.0),
    )
    with pytest.raises(EvaluationError):
        evaluate_upper(p, [0.0], [0.0], EvalLedger())
    with pytest.raises(EvaluationError):
        evaluate_lower(p, [0.0], [0.0], EvalLedger())


def constrained(cons):
    """A problem with finite objectives whose constraints at both levels are
    ``cons``."""
    cons = np.asarray(cons, dtype=float)
    return ProblemSpec(
        name="cons", m=1, n=1,
        upper_bounds=np.array([[-1.0, 1.0]]),
        lower_bounds=np.array([[-1.0, 1.0]]),
        upper=lambda xu, xl: (1.0, cons.copy()),
        lower=lambda xu, xl: (2.0, cons.copy()),
        optimum=(0.0, 0.0),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", range(3))
def test_non_finite_constraint_raises(bad, where):
    cons = [-1.0, 0.5, -2.0]
    cons[where] = bad
    p = constrained(cons)
    for evaluate in (evaluate_upper, evaluate_lower):
        with pytest.raises(EvaluationError):
            evaluate(p, [0.0], [0.0], EvalLedger())


@pytest.mark.parametrize("cons, feasible", [
    ([1e308, 1e308], False),  # the sum overflows, every entry is finite
    ([-1e308, -1e308, -1e308], True),
    ([-1.7e308, 1.7e308], False),
    ([-1.0, 0.0], True),
    ([-0.0], True),
    ([0.0, -0.0, -3.0], True),
    ([-1.0, 5e-324], False),  # the least positive double
    ([0.1] * 8, False),  # numpy's unrolled pairwise sum would give 0.8
])
def test_finite_constraints_give_the_exact_feasibility_flag(cons, feasible):
    # the violation is 0.0 exactly at a feasible point, the positive excess
    # summed left to right (inf once that sum overflows) elsewhere; the
    # builtin sum() compensates float sums from Python 3.12 on
    p = constrained(cons)
    excess = 0.0 if feasible else functools.reduce(operator.add, (max(c, 0.0) for c in cons))
    for evaluate in (evaluate_upper, evaluate_lower):
        _, out, violation = evaluate(p, [0.0], [0.0], EvalLedger())
        assert (violation == 0.0) is feasible
        assert type(violation) is float and violation == excess
        assert out.tobytes() == np.array(cons, dtype=float).tobytes()


def test_smd9_constraints_active_away_from_integers():
    p = get_problem("smd9")
    ledger = EvalLedger()
    # sum of squares 0.3 -> fractional part 0.3 > 0: infeasible at both levels
    x_u = np.array([np.sqrt(0.3), 0.0])
    x_l = np.array([np.sqrt(0.3), 0.0, 0.0])
    _, G, viol_u = evaluate_upper(p, x_u, x_l, ledger)
    _, g, viol_l = evaluate_lower(p, x_u, x_l, ledger)
    assert viol_u > 0.0 and viol_l > 0.0
    assert G.shape == (1,) and g.shape == (1,)


def test_make_smd_dimension_validation():
    with pytest.raises(ConfigurationError):
        make_smd(0, 2, 3)
    with pytest.raises(ConfigurationError):
        make_smd(1, 1, 3)
    with pytest.raises(ConfigurationError):
        make_smd(5, 2, 2)  # Rosenbrock block needs q >= 2
    with pytest.raises(ConfigurationError):
        make_smd(6, 2, 2)  # needs room for the s block


@pytest.mark.parametrize("fields", [
    dict(m=0),  # no upper variable
    dict(lower_bounds=np.array([[-1.0, 1.0], [-1.0, 1.0]])),  # two rows for n = 1
    dict(upper_bounds=np.array([[1.0, 1.0]])),  # low == high
])
def test_problem_spec_validation(fields):
    spec = dict(name="bad", m=1, n=1,
                upper_bounds=np.array([[-1.0, 1.0]]), lower_bounds=np.array([[-1.0, 1.0]]),
                upper=None, lower=None, optimum=(0.0, 0.0))
    with pytest.raises(ContractViolationError):
        ProblemSpec(**{**spec, **fields})


def test_make_toy_dimension_validation():
    with pytest.raises(ContractViolationError):
        make_toy(0, a=1.0, c=1.0)


def test_toy_analytic_optimum():
    p = make_toy(2, a=(2.0, 2.0), c=(1.0, 1.0))
    x_u_star, x_l_star = p.optimum_point
    assert np.allclose(x_u_star, [0.5, 0.5])
    assert np.allclose(x_l_star, [1.5, 1.5])
    # F* = ||x_u* - a||^2 + ||x_u* + c||^2 = 4.5 + 4.5
    assert p.optimum == (9.0, 0.0)


def test_toy_lower_response_closed_form():
    p = make_toy(3, a=1.0, c=-2.0)
    rng = np.random.default_rng(1)
    ledger = EvalLedger()
    for _ in range(10):
        x_u = rng.uniform(p.upper_bounds[:, 0], p.upper_bounds[:, 1])
        f, _, _ = evaluate_lower(p, x_u, x_u - 2.0, ledger)
        assert f == pytest.approx(0.0, abs=1e-12)


def test_toy_bounds_cover_optimum_with_margin():
    p = make_toy(2, a=(8.0, -8.0), c=(3.0, 3.0))
    x_u_star, x_l_star = p.optimum_point
    for x, bounds in ((x_u_star, p.upper_bounds), (x_l_star, p.lower_bounds)):
        assert np.all(x > bounds[:, 0]) and np.all(x < bounds[:, 1])

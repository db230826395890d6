"""Walkthrough on the analytic toy problem.

The toy problem has a closed-form lower-level response x_l*(x_u) = x_u + c
and a known bilevel optimum, so every moving part can be checked against
arithmetic: the lower-level search must recover the response mapping, the
nested run must hit the known optimum, and the ranking-gated run must get
there with visibly fewer function evaluations.

Run:  python3 demos/toy_walkthrough.py
"""

import numpy as np

from crblea import (
    EvalLedger,
    HarnessConfig,
    TerminationRule,
    get_problem,
    lower_level_search,
    run_single,
)

SEED = 7


def main():
    p = get_problem("tq")  # F = ||x_u - a||^2 + ||x_l||^2, response x_u + c
    x_u_star, x_l_star = p.optimum_point
    print(f"problem: {p.name}  (m={p.m}, n={p.n})")
    print(f"known optimum: x_u*={x_u_star}, x_l*={x_l_star}, F*={p.optimum[0]}")

    print("\n-- lower-level search recovers the response mapping --")
    rng = np.random.default_rng(SEED)
    rule = TerminationRule()
    for _ in range(3):
        x_u = rng.uniform(-3, 3, p.m)
        ledger = EvalLedger()
        x_l, f = lower_level_search(p, x_u, 5, rule, ledger, rng=rng)
        err = np.max(np.abs(x_l - (x_u - 2.0)))
        print(f"  x_u={np.round(x_u, 3)}  ->  x_l={np.round(x_l, 4)}  "
              f"|error|={err:.1e}  f*={f:.1e}  ({ledger.fes_l} lower FEs)")

    print("\n-- full bilevel runs, baseline vs ranking-gated --")
    # one entry point: the mode picks the gate, and "nested" lets every offspring through
    nested = run_single(HarnessConfig(problem="tq", upper=20), SEED)
    cr = run_single(HarnessConfig(problem="tq", mode="cr", upper=20), SEED)
    for record in (nested, cr):
        print(f"  mode={record.mode:<7} F={record.best_F:.6f}  "
              f"acc_u={record.acc_u:.1e}  FEs_total={record.fes_t}  "
              f"stop={record.stop_reason}")
    diff = (nested.fes_t - cr.fes_t) / nested.fes_t * 100.0
    print(f"\ntotal-FE saving vs baseline: {diff:+.1f}% "
          f"({cr.trainings_done} network trainings, {cr.resamplings} resamples)")
    print("(see demos/smd1_comparison.py for a benchmark-instance comparison)")


if __name__ == "__main__":
    main()

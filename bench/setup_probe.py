"""Set-up cost of one workload, measured in a fresh interpreter.

Prints the seconds from just before ``import crblea`` (numpy included) to the
end of ``get_problem``, config resolution and the first call of every
function a protocol run reaches first: one lower-level CMA-ES generation, one
upper evaluation and, for CR modes, one ranking-network scoring pass.

    python3 bench/setup_probe.py ROOT PROBLEM MODE SEED
"""

import os
import sys
import time

root, problem, mode, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]

t0 = time.perf_counter()
import numpy as np  # noqa: E402

import crblea.cli  # noqa: E402,F401  the entry point's own imports are part of set-up
from crblea import (  # noqa: E402
    EvalLedger,
    Normalizer,
    RankNetParams,
    evaluate_lower,
    evaluate_upper,
    get_problem,
    init_search,
    ranking_scores,
    step,
)
from _corpus import protocol_config  # noqa: E402

p = get_problem(problem)
cfg = protocol_config(problem, mode).resolved(p)
rng = np.random.default_rng(seed)
ledger = EvalLedger()
x_u = rng.uniform(p.upper_bounds[:, 0], p.upper_bounds[:, 1])


def objective(x_l):
    f, g, _ = evaluate_lower(p, x_u, x_l, ledger)
    return f, float(np.sum(np.maximum(g, 0.0)))


state = init_search(cfg.lower, p.lower_bounds, objective, rng=rng)
step(state, objective)
evaluate_upper(p, x_u, state.best_x, ledger)
if mode != "nested":
    params = RankNetParams.init(p.m, p.n, cfg.net.width_for(p.m, p.n), rng,
                                psi_relu=cfg.net.psi_relu)
    ranking_scores(params, np.array([Normalizer(p.upper_bounds)(x_u)]))
print(repr(time.perf_counter() - t0))

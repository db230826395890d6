"""The contrastive ranking network in isolation.

Builds a pool of evaluated upper-level solutions on SMD1 (by running a short
nested phase), turns it into ordered training pairs, trains the pairwise
network, and shows that the learned reference scores reproduce the true
objective ordering far better than chance.

Run:  python3 demos/ranking_network_demo.py
"""

import numpy as np

from crblea import (
    HarnessConfig,
    NestedRun,
    NetConfig,
    Normalizer,
    RankNetParams,
    get_problem,
    model_accuracy,
    pdp,
    pool_trigger_size,
    ranking_scores,
    train,
)
from crblea.ranknet import scale_init_to_batch

SEED = 3


def main():
    p = get_problem("smd1")
    run = NestedRun(p, HarnessConfig(problem="smd1", upper=20), SEED)
    rng = run.rng  # the network draws its initial weights from the run's stream first

    q = NetConfig.width_for(p.m, p.n)
    params = RankNetParams.init(p.m, p.n, q, rng, normalizer=Normalizer(p.upper_bounds))
    trigger = pool_trigger_size(params)
    print(f"network width q={q}, {params.param_count} parameters "
          f"-> pool trigger N_p={trigger} "
          f"({trigger}x{trigger - 1}={trigger * (trigger - 1)} ordered pairs)")

    print(f"\nevaluating {trigger} upper-level solutions (full lower searches)...")
    pool = list(run.start())
    while len(pool) < trigger:
        pool.append(run.resolve(rng.uniform(p.upper_bounds[:, 0], p.upper_bounds[:, 1])))
    print(f"  cost: {run.ledger.fes_u} upper + {run.ledger.fes_l} lower FEs")

    dataset = pdp(pool)
    print(f"\ntraining on {len(dataset)} ordered pairs...")
    scale_init_to_batch(params, dataset.X[dataset.ia], rng)
    trained = train(params, dataset)
    print(f"  BCE loss {trained.loss_curve[0]:.3f} -> {trained.loss_curve[-1]:.3f} "
          f"in {len(trained.loss_curve)} epochs")
    print(f"  pairwise ranking accuracy on the pool: {model_accuracy(trained, dataset):.3f}")

    print("\nreference scores vs true upper objective (sorted by score):")
    scores = ranking_scores(trained, [ind.x_u for ind in pool])
    order = np.argsort(-scores)
    true_rank = np.argsort(np.argsort([ind.F for ind in pool]))
    for pos, i in enumerate(order[:8]):
        print(f"  score {scores[i]:.3f}  F={pool[i].F:9.3f}  "
              f"(true rank {true_rank[i] + 1:2d}/{len(pool)})")
    # rank correlation between score order and objective order
    rho = np.corrcoef(-scores, np.array([ind.F for ind in pool]))[0, 1]
    print(f"\ncorrelation between (negated) score and F: {rho:.3f}")


if __name__ == "__main__":
    main()

"""Resource-allocation framework around the nested baseline.

A run is two loops.  The warm-up loop is the plain nested BLEA, and every
evaluated individual goes into a pool, a plain list.  Once the pool holds
``pool_trigger_size`` points, enough training pairs for the contrastive
ranking network, the run switches for good to the allocated loop: each
generation, offspring are scored against a fixed zero reference and only the
top half receive a lower-level search, with one optional resampling when the
offspring look worse than the parents.  Whenever the pool refills to the
trigger, ``retrain`` trains a fresh network on it and the pool is emptied.
The "cr_no_net" ablation keeps no pool after the switch: it picks its half
uniformly at random.
"""

import math

import numpy as np

from .errors import ContractViolationError, TrainingDivergenceError
# bench/tracer.py wraps both names here, so they stay importable from this module
from .nested import NestedRun, environmental_selection, upper_variation  # noqa: F401
from .ranknet import (
    Normalizer,
    RankNetParams,
    model_accuracy,
    pdp,
    pool_trigger_size,
    ranking_scores,
    scale_init_to_batch,
    train,
)

CR_MODES = ("cr", "cr_no_net", "cr_no_resample")


def retrain(pool, params: RankNetParams, net_cfg, rng):
    """Train a fresh network generation on the evaluated individuals ``pool``.

    Returns ``(params, accuracy_entry)`` where ``accuracy_entry`` is the old
    network's pairwise accuracy on the fresh dataset (None when the old
    network was untrained or every pair tied), measured through the old
    network's input map ``params.normalizer``.  Late pools fill a small
    corner of the problem box, so the new network is trained on the pool's
    own bounding box mapped onto the unit cube and carries that map.  On
    divergence the previous network is returned.  The caller empties the
    pool.
    """
    base = RankNetParams.init(params.m, params.n, params.q, rng,
                              psi_relu=params.psi_relu, generation_id=params.generation_id,
                              normalizer=Normalizer.fit([ind.x_u for ind in pool]))
    dataset = pdp(pool, base.normalizer)
    acc = (model_accuracy(params, dataset.under(pool, params.normalizer))
           if params.generation_id > 0 else None)
    # each pool point repeated N-1 times, the batch the recorded runs scaled on
    scale_init_to_batch(base, dataset.X[dataset.ia], rng)
    try:
        return train(base, dataset, epochs=net_cfg.epochs, lr=net_cfg.lr), acc
    except TrainingDivergenceError:
        return params, acc  # keep the previous network generation


def pgr(params, P_u, variation, N_u, allow_resample=True):
    """Population generation with ranking and resampling.

    ``variation`` produces a list of offspring x_u vectors, scored through
    ``params.normalizer``.  When even the best of them scores below the best
    parent, one more batch is drawn and scored alongside.  Returns the
    ceil(N_u / 2) top-scoring offspring as ``(x_u, score)`` pairs, ties in
    the order drawn, plus a flag telling whether resampling fired.  Parents
    must carry scores from the current network generation.
    """
    parent_scores = [ind.rank_score for ind in P_u]
    if any(s is None for s in parent_scores):
        raise ContractViolationError("pgr requires parents scored by the current network")
    k = math.ceil(N_u / 2)

    offspring = variation()
    scores = ranking_scores(params, params.normalizer(np.array(offspring)))
    resampled = allow_resample and bool(scores.max() < max(parent_scores))
    if resampled:
        extra = variation()
        offspring = [*offspring, *extra]
        scores = np.concatenate([scores, ranking_scores(params, params.normalizer(np.array(extra)))])
    order = np.argsort(-scores, kind="stable")[:k]
    return [(offspring[i], float(scores[i])) for i in order], resampled


def _refresh_scores(params, P_u):
    scores = ranking_scores(params, params.normalizer(np.array([ind.x_u for ind in P_u])))
    for ind, s in zip(P_u, scores):
        ind.rank_score = float(s)


def run_cr_blea(p, cfg, seed):
    """Run the resource-allocated bilevel EA and return a RunRecord.

    ``cfg.mode`` selects the full framework ("cr") or one of its ablations:
    "cr_no_net" replaces ranking with a uniformly random task choice and
    "cr_no_resample" disables the resampling step.
    """
    run = NestedRun(p, cfg, seed)
    cfg = run.cfg
    if cfg.mode not in CR_MODES:
        raise ContractViolationError(f"run_cr_blea called with mode {cfg.mode!r}")
    net_rng = np.random.default_rng(run.rng.integers(2**63))

    q = cfg.net.width_for(p.m, p.n)
    params = RankNetParams.init(p.m, p.n, q, net_rng, psi_relu=cfg.net.psi_relu,
                                normalizer=Normalizer(p.upper_bounds))
    trigger = pool_trigger_size(params)

    pool = list(run.start())
    N_u = cfg.upper.pop_size
    model_acc_history = []
    resamplings = 0

    # warm-up: the nested baseline's generations, pooling every evaluated offspring
    while not (stop_reason := run.stop_reason()) and len(pool) < trigger:
        pool.extend(run.generation(run.variation()))

    # allocated: only the chosen half of each generation's offspring is resolved
    while not stop_reason:
        if cfg.mode == "cr_no_net":
            candidates = run.variation()
            chosen = run.rng.choice(len(candidates), size=math.ceil(N_u / 2), replace=False)
            run.generation([candidates[i] for i in chosen])
        else:
            if len(pool) >= trigger:
                params, acc = retrain(pool, params, cfg.net, net_rng)
                pool = []
                if acc is not None:
                    model_acc_history.append(acc)
                _refresh_scores(params, run.P_u)
            selected, resampled = pgr(
                params, run.P_u, run.variation, N_u,
                allow_resample=(cfg.mode != "cr_no_resample"),
            )
            resamplings += int(resampled)
            evaluated = run.generation([x_u for x_u, _ in selected])
            for ind, (_, score) in zip(evaluated, selected):
                ind.rank_score = score
            pool.extend(evaluated)
        stop_reason = run.stop_reason()

    return run.record(
        seed, stop_reason,
        model_acc_history=model_acc_history,
        trainings_done=params.generation_id,  # each successful training adds one
        resamplings=resamplings,
        pool_trigger=trigger,
    )

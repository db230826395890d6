"""The run loop of every mode, around the nested baseline's steps.

A run is two loops.  The warm-up loop is the plain nested BLEA, and every
evaluated individual goes into a pool, a plain list.  Once the pool holds
the mode's trigger, the run switches for good to the allocated loop, where
the mode's gate picks the offspring that get a lower-level search.  The
nested baseline triggers at 0 and its gate passes every offspring.  The CR
modes trigger at ``pool_trigger_size``, enough training pairs for the
contrastive ranking network, and resolve half of each generation: the top
scored against a fixed zero reference, with one resampling when the
offspring look worse than the parents ("cr_no_resample" never resamples),
or a uniformly random half ("cr_no_net", which keeps no pool after the
switch).  Whenever the pool refills to the trigger, ``retrain`` trains a
fresh network on it and the pool is emptied.
"""

import math

import numpy as np

from .errors import TrainingDivergenceError
# bench/tracer.py wraps both names here, so they stay importable from this module
from .nested import NestedRun, environmental_selection, upper_variation  # noqa: F401
from .problems import get_problem
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


def retrain(pool, params: RankNetParams, rng):
    """Train a new generation of ``params``' width on the evaluated individuals ``pool``.

    The pool is paired once.  Returns ``(params, accuracy_entry)`` where
    ``accuracy_entry`` is the old network's pairwise accuracy on that
    dataset (None when the old network was untrained or every pair tied).
    Late pools fill a small corner of the problem box, so the new network
    carries a map of the pool's own bounding box onto the unit cube.  On
    divergence the previous network is returned.  The caller empties the
    pool.
    """
    base = RankNetParams.init(params.m, params.n, params.q, rng,
                              psi_relu=params.psi_relu, generation_id=params.generation_id,
                              normalizer=Normalizer.fit([ind.x_u for ind in pool]))
    dataset = pdp(pool)
    acc = model_accuracy(params, dataset) if params.generation_id > 0 else None
    # each pool point repeated N-1 times, the batch the recorded runs scaled on
    scale_init_to_batch(base, dataset.X[dataset.ia], rng)
    try:
        return train(base, dataset), acc
    except TrainingDivergenceError:
        return params, acc  # keep the previous network generation


def pgr(params, P_u, variation, allow_resample=True):
    """Population generation with ranking and resampling.

    The current network scores the parents ``P_u`` and the offspring x_u
    vectors that ``variation`` draws.  When even the best offspring scores
    below the best parent, one more batch is drawn and scored alongside.
    Returns the ceil(len(P_u) / 2) top-scoring offspring, ties in the order
    drawn, and whether resampling fired.
    """
    parent_scores = ranking_scores(params, [ind.x_u for ind in P_u])
    offspring = variation()
    scores = ranking_scores(params, offspring)
    resampled = allow_resample and bool(scores.max() < parent_scores.max())
    if resampled:
        extra = variation()
        offspring = [*offspring, *extra]
        scores = np.concatenate([scores, ranking_scores(params, extra)])
    order = np.argsort(-scores, kind="stable")[:math.ceil(len(P_u) / 2)]
    return [offspring[i] for i in order], resampled


def run_single(cfg, seed):
    """One seeded run of ``cfg.mode`` on ``cfg.problem``; returns its RunRecord.

    The modes differ only in the trigger and the gate: the offspring points
    each hands to ``NestedRun.generation``.
    """
    run = NestedRun(get_problem(cfg.problem), cfg, seed)
    p, cfg = run.p, run.cfg
    if cfg.mode == "nested":
        params, trigger = None, 0
    else:
        net_rng = np.random.default_rng(run.rng.integers(2**63))
        params = RankNetParams.init(p.m, p.n, cfg.net.width_for(p.m, p.n), net_rng,
                                    psi_relu=cfg.net.psi_relu,
                                    normalizer=Normalizer(p.upper_bounds))
        trigger = pool_trigger_size(params)

    pool = list(run.start())
    model_acc_history = []
    resamplings = 0

    # warm-up: the nested baseline's generations, pooling every evaluated offspring
    while not (stop_reason := run.stop_reason()) and len(pool) < trigger:
        pool.extend(run.generation(run.variation()))

    # allocated: only the offspring the mode's gate lets through are resolved
    while not stop_reason:
        if cfg.mode == "nested":
            run.generation(run.variation())
        elif cfg.mode == "cr_no_net":
            candidates = run.variation()
            chosen = run.rng.choice(len(candidates), size=math.ceil(len(candidates) / 2),
                                    replace=False)
            run.generation([candidates[i] for i in chosen])
        else:
            if len(pool) >= trigger:
                params, acc = retrain(pool, params, net_rng)
                pool = []
                if acc is not None:
                    model_acc_history.append(acc)
            selected, resampled = pgr(params, run.P_u, run.variation,
                                      allow_resample=(cfg.mode != "cr_no_resample"))
            resamplings += int(resampled)
            pool.extend(run.generation(selected))
        stop_reason = run.stop_reason()

    return run.record(
        seed, stop_reason,
        model_acc_history=model_acc_history,
        # each successful training adds one
        trainings_done=params.generation_id if params else 0,
        resamplings=resamplings,
        pool_trigger=trigger,
    )

"""Resource-allocation framework around the nested baseline.

The run starts as a plain nested BLEA while evaluated solutions accumulate in
a pool.  Once the pool can supply enough training pairs, a contrastive
ranking network is trained on it and the loop switches permanently to the
allocated phase: each generation, offspring are scored against a fixed zero
reference and only the top half receive a lower-level search, with one
optional resampling when the offspring look worse than the parents.  The
network is retrained every time the pool refills.
"""

import math

import numpy as np

from .errors import ContractViolationError, TrainingDivergenceError
from .ledger import EvalLedger
from .nested import (
    BestTracker,
    ResponseArchive,
    confirmed_stop_reason,
    environmental_selection,  # not called here; bench/tracer.py wraps this name
    init_upper_population,
    nested_generation,
    upper_variation,
)
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


class SolutionPool:
    """Evaluated upper-level individuals pending use as training data."""

    def __init__(self, capacity_trigger):
        self.entries = []
        self.capacity_trigger = capacity_trigger

    def extend(self, individuals):
        for ind in individuals:
            ind.require_evaluated()
        self.entries.extend(individuals)

    def clear(self):
        self.entries = []

    def __len__(self):
        return len(self.entries)

    @property
    def full(self):
        return len(self.entries) >= self.capacity_trigger


def maybe_retrain(pool: SolutionPool, params: RankNetParams, net_cfg, rng):
    """Retrain on a full pool; otherwise identity.

    Returns ``(params, accuracy_entry)`` where ``accuracy_entry`` is the old
    network's pairwise accuracy on the fresh dataset (None when the pool was
    not full, the old network was untrained, or every pair tied), measured
    through the old network's input map ``params.normalizer``.  Each
    training event starts a freshly initialized network.  Late pools fill a
    small corner of the problem box, so it is trained on the pool's own
    bounding box mapped onto the unit cube and carries that map.  The pool is
    cleared after a training event; on divergence the previous network is
    kept and the pool is still cleared.
    """
    if not pool.full:
        return params, None
    base = RankNetParams.init(params.m, params.n, params.q, rng,
                              psi_relu=params.psi_relu, generation_id=params.generation_id,
                              normalizer=Normalizer.fit([ind.x_u for ind in pool.entries]))
    dataset = pdp(pool.entries, base.normalizer)
    acc = (model_accuracy(params, dataset.under(pool.entries, params.normalizer))
           if params.generation_id > 0 else None)
    # each pool point repeated N-1 times, the batch the recorded runs scaled on
    scale_init_to_batch(base, dataset.X[dataset.ia], rng)
    try:
        params = train(base, dataset, epochs=net_cfg.epochs, lr=net_cfg.lr)
    except TrainingDivergenceError:
        pass  # keep the previous network generation
    pool.clear()
    return params, acc


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
    from .stats import build_run_record

    cfg = cfg.resolved(p)
    if cfg.mode not in CR_MODES:
        raise ContractViolationError(f"run_cr_blea called with mode {cfg.mode!r}")
    rng = np.random.default_rng(seed)
    net_rng = np.random.default_rng(rng.integers(2**63))
    ledger = EvalLedger()
    tracker = BestTracker()
    archive = ResponseArchive(p.upper_bounds)

    q = cfg.net.width_for(p.m, p.n)
    params = RankNetParams.init(p.m, p.n, q, net_rng, psi_relu=cfg.net.psi_relu,
                                normalizer=Normalizer(p.upper_bounds))
    pool = SolutionPool(pool_trigger_size(params))

    P_u = init_upper_population(p, cfg, ledger, tracker, rng, archive)
    N_u = cfg.upper.pop_size
    pool.extend(P_u)
    ledger.checkpoint(tracker.best.F)

    allocated = False
    model_acc_history = []
    resamplings = 0

    def variation():
        return upper_variation(P_u, cfg.upper, p.upper_bounds, rng)

    while not (stop_reason := confirmed_stop_reason(p, P_u, cfg, ledger, tracker, rng, archive)):
        if not pool.full and not allocated:
            # warm-up: the nested baseline's generation, pooling all evaluated offspring
            P_u, offspring = nested_generation(p, P_u, variation(), cfg, ledger, tracker, rng,
                                               archive)
            pool.extend(offspring)
            continue

        if cfg.mode == "cr_no_net":
            if pool.full:
                pool.clear()
            candidates = variation()
            k = math.ceil(N_u / 2)
            chosen = rng.choice(len(candidates), size=k, replace=False)
            selected = [(candidates[i], None) for i in chosen]
        else:
            if pool.full:
                params, acc = maybe_retrain(pool, params, cfg.net, net_rng)
                if acc is not None:
                    model_acc_history.append(acc)
                _refresh_scores(params, P_u)
            selected, resampled = pgr(
                params, P_u, variation, N_u,
                allow_resample=(cfg.mode != "cr_no_resample"),
            )
            resamplings += int(resampled)

        P_u, evaluated = nested_generation(p, P_u, [x_u for x_u, _ in selected], cfg, ledger,
                                           tracker, rng, archive)
        for ind, (_, score) in zip(evaluated, selected):
            ind.rank_score = score
        allocated = True
        pool.extend(evaluated)

    return build_run_record(
        p, cfg, seed, ledger, tracker,
        stop_reason=stop_reason,
        model_acc_history=model_acc_history,
        trainings_done=params.generation_id,  # each successful training adds one
        resamplings=resamplings,
        pool_trigger=pool.capacity_trigger,
    )

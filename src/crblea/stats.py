"""Run records, accuracy/resource metrics, and experiment statistics."""

import json
import math
import statistics
from dataclasses import asdict, dataclass
from itertools import combinations

from .errors import ContractViolationError

ACC_FLOOR = 1e-6

BETTER = "+"
EQUIVALENT = "≈"
WORSE = "-"
ALPHA = 0.05  # two-sided significance level of wilcoxon_ranksum


@dataclass
class RunRecord:
    """Outcome of one seeded run, sufficient to rebuild every table entry."""

    problem: str
    mode: str
    seed: int
    acc_u: float
    acc_l: float
    fes_u: int
    fes_l: int
    fes_t: int
    trace: list  # [(fes_t, best_F), ...] one checkpoint per upper generation
    model_acc_history: list
    trainings_done: int
    config_fingerprint: str
    best_F: float = math.nan
    best_f: float = math.nan
    stop_reason: str = ""
    pop_size_upper: int = 0
    pop_size_lower: int = 0
    pop_formula: str = ""
    resamplings: int = 0
    pool_trigger: int = 0

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        d["trace"] = [tuple(t) for t in d.get("trace", [])]
        return cls(**d)


def accuracy(found, known):
    """Absolute objective error, floored at 1e-6 for reporting."""
    return max(abs(known - found), ACC_FLOOR)


def resource_saving_rate(fes_t_a, fes_t_b):
    """Percentage of total FEs that algorithm A saved relative to B."""
    if fes_t_b <= 0:
        raise ContractViolationError("resource_saving_rate needs fes_t_B > 0")
    return (fes_t_b - fes_t_a) / fes_t_b * 100.0


def _midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _ranksum_pvalue_normal(pooled, ranks, n1):
    """Two-sided normal-approximation p-value of the rank-sum statistic of
    the first ``n1`` of ``pooled``, with tie and continuity correction."""
    n = len(pooled)
    n2 = n - n1
    U1 = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    # tie correction on the variance
    tie_term = 0.0
    seen = {}
    for v in pooled:
        seen[v] = seen.get(v, 0) + 1
    for t in seen.values():
        tie_term += t**3 - t
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    diff = U1 - mu
    z = (diff - math.copysign(0.5, diff)) / math.sqrt(var) if diff != 0 else 0.0
    return 2.0 * (1.0 - 0.5 * (1.0 + math.erf(abs(z) / math.sqrt(2.0))))


def _ranksum_pvalue_exact(pooled, ranks, n1):
    """Two-sided permutation p-value of the rank-sum statistic of the first
    ``n1`` of ``pooled``."""
    observed = sum(ranks[:n1])
    mu = sum(ranks) * n1 / len(pooled)
    dev = abs(observed - mu)
    count = total = 0
    for idx in combinations(range(len(pooled)), n1):
        total += 1
        if abs(sum(ranks[i] for i in idx) - mu) >= dev - 1e-12:
            count += 1
    return count / total


def wilcoxon_ranksum(a, b):
    """Two-sided rank-sum comparison at level ``ALPHA``: "+", "≈", or "-".

    "+" means ``b`` (the variant) is significantly better, i.e. has the
    smaller median; "-" the opposite; "≈" no significant difference.  Small
    samples (both sides <= 8) use the exact permutation distribution,
    larger ones the normal approximation with tie and continuity correction.
    Samples that all tie read p = 1, hence "≈", on either path.
    """
    a, b = list(a), list(b)
    if len(a) < 2 or len(b) < 2:
        raise ContractViolationError("wilcoxon_ranksum needs at least 2 samples per side")
    pooled = a + b
    pvalue = _ranksum_pvalue_exact if max(len(a), len(b)) <= 8 else _ranksum_pvalue_normal
    p = pvalue(pooled, _midranks(pooled), len(a))
    if p >= ALPHA:
        return EQUIVALENT
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_b < med_a:
        return BETTER
    if med_b > med_a:
        return WORSE
    return EQUIVALENT


AGGREGATE_FIELDS = ("acc_u", "acc_l", "fes_u", "fes_l", "fes_t")


def aggregate(records):
    """Per-field medians of a homogeneous (problem, mode) record group."""
    if not records:
        raise ContractViolationError("aggregate needs at least one record")
    keys = {(r.problem, r.mode) for r in records}
    if len(keys) != 1:
        raise ContractViolationError(f"aggregate over heterogeneous records: {sorted(keys)}")
    out = {"problem": records[0].problem, "mode": records[0].mode, "runs": len(records)}
    for f in AGGREGATE_FIELDS:
        out[f] = statistics.median(getattr(r, f) for r in records)
    return out


def config_fingerprint(problem_name, termination):
    """Hash of the problem identity and termination settings.

    Every run record carries it.  Values hash as stored; a ``HarnessConfig``
    stores an int in a float field as the float, so ``1`` and ``1.0`` hash
    alike.
    """
    import hashlib  # off the import path of a run

    payload = {"problem": problem_name, "termination": asdict(termination)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


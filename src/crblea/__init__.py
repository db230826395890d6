"""Contrastive-ranking resource allocation for bilevel evolutionary search.

The package couples a nested bilevel evolutionary baseline with a learned
pairwise ranking network that decides which upper-level offspring deserve a
full lower-level search, cutting the total function-evaluation bill.
"""

from .config import HarnessConfig, default_lower_pop, default_upper_pop, harness_config_from_dict
from .crframework import pgr, retrain, run_single
from .errors import (
    ConfigurationError,
    ContractViolationError,
    CrbleaError,
    EvaluationError,
    TrainingDivergenceError,
)
from .nested import (
    NestedRun,
    TerminationRule,
    UpperIndividual,
    environmental_selection,
    lower_level_search,
)
from .optimizers import init_search, step
from .problems import (
    EvalLedger,
    ProblemSpec,
    evaluate_lower,
    evaluate_upper,
    get_problem,
    make_smd,
    make_toy,
    problem_names,
)
from .ranknet import (
    NetConfig,
    Normalizer,
    PairDataset,
    RankNetParams,
    model_accuracy,
    pair_forward,
    pdp,
    pool_trigger_size,
    ranking_scores,
    train,
)
from .stats import (
    RunRecord,
    accuracy,
    aggregate,
    resource_saving_rate,
    wilcoxon_ranksum,
)

__version__ = "0.1.0"

__all__ = [
    "HarnessConfig", "default_upper_pop", "default_lower_pop", "harness_config_from_dict",
    "pgr", "retrain", "run_single",
    "CrbleaError", "ContractViolationError", "ConfigurationError",
    "EvaluationError", "TrainingDivergenceError",
    "NestedRun", "TerminationRule", "UpperIndividual", "environmental_selection",
    "lower_level_search",
    "init_search", "step",
    "EvalLedger", "ProblemSpec", "evaluate_upper", "evaluate_lower", "get_problem",
    "make_smd", "make_toy", "problem_names",
    "NetConfig", "Normalizer", "PairDataset", "RankNetParams",
    "model_accuracy", "pair_forward", "pdp", "pool_trigger_size",
    "ranking_scores", "train",
    "RunRecord", "accuracy", "aggregate",
    "resource_saving_rate", "wilcoxon_ranksum",
]

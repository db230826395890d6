"""Experiment configuration: schema, defaults, and validated loading."""

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigurationError
from .nested import TerminationRule
from .optimizers import CMAES, DE, OptimizerConfig
from .problems import ProblemSpec, problem_names
from .ranknet import NetConfig

MODES = ("nested", "cr", "cr_no_net", "cr_no_resample")

POP_FORMULA_UPPER = "4+floor(ln(m+n))"
POP_FORMULA_LOWER = "4+floor(ln(n))"


def default_upper_pop(m, n):
    """Published population sizing; small by design (5 for m=2, n=3)."""
    return 4 + int(math.floor(math.log(m + n)))


def default_lower_pop(n):
    return 4 + int(math.floor(math.log(n)))


@dataclass
class HarnessConfig:
    problem: str = "smd1"
    mode: str = "nested"
    # Lower-level tasks default to CMA-ES, which does not resolve the lower
    # level within the 250-FE task budget either: every task of the protocol
    # runs uses the full budget (task_capped_frac 1.0 in bench/), and at 60
    # random x_u the median residual f* is 7e-4 on SMD1, 1.3e-3 on SMD2, 0.36
    # on SMD5 and 1.5 on SMD8.  rand/1/bin at pop 5 stops far higher (median
    # f* 7-14 on the same four).  pop_size 0 means "use the formula".
    upper: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(pop_size=0))
    lower: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(kind=CMAES, pop_size=0))
    termination: TerminationRule = field(default_factory=TerminationRule)
    net: NetConfig = field(default_factory=NetConfig)
    runs: int = 21
    base_seed: int = 0
    output_dir: str = "results"
    pop_formula: str = ""

    def validate(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"mode: {self.mode!r} not one of {MODES}")
        if self.problem.lower() not in problem_names():
            raise ConfigurationError(f"problem: unknown name {self.problem!r}")
        if self.runs < 1:
            raise ConfigurationError("runs: must be >= 1")
        self.termination.validate()
        return self

    def resolved(self, p: ProblemSpec):
        """Copy with population sizes filled in from the problem dimensions.

        A pop_size of 0 (the default) means "use the published formula"; any
        explicit value is an override and is recorded as such.
        """
        upper, lower = self.upper, self.lower
        formula = []
        if upper.pop_size == 0:
            upper = replace(upper, pop_size=max(4, default_upper_pop(p.m, p.n)))
            formula.append(f"upper={POP_FORMULA_UPPER}")
        else:
            formula.append(f"upper=override({upper.pop_size})")
        if lower.pop_size == 0:
            lower = replace(lower, pop_size=max(4, default_lower_pop(p.n)))
            formula.append(f"lower={POP_FORMULA_LOWER}")
        else:
            formula.append(f"lower=override({lower.pop_size})")
        cfg = replace(self, upper=upper, lower=lower, pop_formula="; ".join(formula))
        cfg.upper.validate()
        cfg.lower.validate()
        return cfg.validate()


def _build_section(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a table/object, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigurationError(f"{path}.{key}: unknown key (known: {', '.join(sorted(known))})")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


_SECTIONS = {
    "upper": OptimizerConfig,
    "lower": OptimizerConfig,
    "termination": TerminationRule,
    "net": NetConfig,
}

_SCALARS = {
    "problem": str,
    "mode": str,
    "runs": int,
    "base_seed": int,
    "output_dir": str,
}


def harness_config_from_dict(data, path="config") -> HarnessConfig:
    """Build and validate a HarnessConfig from parsed JSON, with field-path
    diagnostics on any error."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(_SECTIONS[key], value, f"{path}.{key}")
        elif key in _SCALARS:
            want = _SCALARS[key]
            if not isinstance(value, want) or isinstance(value, bool):
                raise ConfigurationError(f"{path}.{key}: expected {want.__name__}, got {value!r}")
            kwargs[key] = value
        else:
            raise ConfigurationError(f"{path}.{key}: unknown key")
    cfg = HarnessConfig(**kwargs)
    if cfg.upper.kind not in (DE, CMAES):
        raise ConfigurationError(f"{path}.upper.kind: unknown engine {cfg.upper.kind!r}")
    if cfg.lower.kind not in (DE, CMAES):
        raise ConfigurationError(f"{path}.lower.kind: unknown engine {cfg.lower.kind!r}")
    return cfg.validate()

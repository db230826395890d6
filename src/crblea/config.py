"""Experiment configuration: schema, defaults, and loading.  A ``HarnessConfig``
checks every value when it is built, so one built in Python, copied with
``dataclasses.replace`` or loaded from a file is valid."""

import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import ConfigurationError
from .nested import TerminationRule
from .problems import ProblemSpec, get_problem, problem_names
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
    upper: int = 0  # the upper population size; 0 takes its formula
    termination: TerminationRule = field(default_factory=TerminationRule)
    net: NetConfig = field(default_factory=NetConfig)
    runs: int = 21
    base_seed: int = 0
    output_dir: str = "results"
    # set by resolved(), so no config keys: the lower population, which always
    # takes its formula, and how the population sizes were chosen
    #
    # A cold lower-level task (uniform start, sigma0 0.3 of the box) does not
    # resolve the lower level within the 250-FE budget: at 60 random x_u its
    # median residual f* is 7e-4 on SMD1, 1.3e-3 on SMD2, 0.36 on SMD5 and
    # 1.5 on SMD8.  Within a run only the first task is cold; later ones start
    # from the nearest resolved responses: on nested SMD1 seed 0 the median
    # task ends at f* 4.3e-7, tasks use 159 FEs on average and 41% reach the
    # cap.
    lower: int = field(default=0, init=False)
    pop_formula: str = field(default="", init=False)

    def __post_init__(self):
        for name, value in _typed(self, "").items():
            setattr(self, name, value)
        # the registry name, so "SMD1" and "smd1" are one problem everywhere
        self.problem = self.problem.lower()
        if self.mode not in MODES:
            raise ConfigurationError(f"mode: {self.mode!r} not one of {MODES}")
        if self.problem not in problem_names():
            raise ConfigurationError(f"problem: unknown name {self.problem!r}")
        if self.runs < 1:
            raise ConfigurationError("runs: must be >= 1")
        if self.base_seed < 0:
            raise ConfigurationError("base_seed: must be >= 0")
        self.termination.validate()
        if self.upper != 0 and self.upper < 4:  # 0 takes the formula, at least 4
            raise ConfigurationError(f"upper: DE needs a population of >= 4 "
                                     f"(base + 3 distinct donors), got {self.upper}")
        # every lower-level task evaluates its whole initial population
        lower = default_lower_pop(get_problem(self.problem).n)
        if self.termination.fes_l_max < lower:
            raise ConfigurationError(f"termination.fes_l_max: {self.termination.fes_l_max} "
                                     f"cannot cover a lower population of {lower}")

    def resolved(self, p: ProblemSpec):
        """Copy with population sizes filled in from the problem dimensions.

        An upper population of 0 (the default) means "use the published
        formula"; any explicit value is an override and is recorded as such.
        The lower population always takes its formula.
        """
        cfg = replace(self, upper=self.upper or default_upper_pop(p.m, p.n))
        formula = f"override({self.upper})" if self.upper else POP_FORMULA_UPPER
        cfg.lower = default_lower_pop(p.n)
        cfg.pop_formula = f"upper={formula}; lower={POP_FORMULA_LOWER}"
        return cfg


def _typed(obj, path):
    """The init fields of dataclass ``obj`` by name, each checked against its
    annotation; a section is copied with its own fields checked, and an int
    in a float field comes back as the equal float, which hashes alike."""
    values = {}
    for f in fields(obj):
        if not f.init:
            continue
        value = getattr(obj, f.name)
        if not _fits(f.type, value):
            raise ConfigurationError(f"{path}{f.name}: expected {f.type.__name__}, got {value!r}")
        if is_dataclass(f.type):
            value = replace(value, **_typed(value, f"{path}{f.name}."))
        values[f.name] = float(value) if f.type is float else value
    return values


def _fits(annotation, value):
    """Whether a value fits a field's annotation: a bool is no number, a
    float must be finite (an int is one), and None fits nothing."""
    if annotation is bool or isinstance(value, bool):
        return annotation is bool and isinstance(value, bool)
    if annotation is float:
        # false for NaN, and for infinities and ints no float can hold
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, annotation)


def _build(cls, data, path):
    """``cls`` from a parsed JSON object.  Each key names an init field of
    ``cls``, and a dataclass-typed field is built from its own object; the
    errors of ``cls``'s own checks are prefixed with ``path``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object, got {type(data).__name__}")
    known = {f.name: f.type for f in fields(cls) if f.init}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigurationError(f"{path}.{key}: unknown key (known: {', '.join(sorted(known))})")
        kwargs[key] = _build(known[key], value, f"{path}.{key}") if is_dataclass(known[key]) else value
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}.{exc}") from None


def harness_config_from_dict(data, path="config") -> HarnessConfig:
    """A HarnessConfig from parsed JSON; every error names its field path."""
    return _build(HarnessConfig, data, path)

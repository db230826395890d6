"""Configuration schema: defaults, formula resolution, dict loading."""

import json
import pathlib
import re
from dataclasses import fields, is_dataclass

import pytest

from crblea import (
    ConfigurationError,
    HarnessConfig,
    NetConfig,
    TerminationRule,
    default_lower_pop,
    default_upper_pop,
    harness_config_from_dict,
)
from crblea.problems import get_problem
from crblea.stats import config_fingerprint

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_population_formulas():
    assert default_upper_pop(2, 3) == 5  # 4 + floor(ln 5)
    assert default_lower_pop(3) == 5     # 4 + floor(ln 3)
    assert default_upper_pop(10, 10) == 6


def test_defaults():
    cfg = HarnessConfig()
    assert cfg.mode == "nested"
    assert cfg.upper == 0  # 0 = use the formula
    assert cfg.lower == 0
    assert cfg.runs == 21


def test_resolved_fills_formula_sizes():
    cfg = HarnessConfig().resolved(get_problem("smd1"))
    assert cfg.upper == 5
    assert cfg.lower == 5
    assert "4+floor(ln(m+n))" in cfg.pop_formula
    assert "4+floor(ln(n))" in cfg.pop_formula


def test_resolved_records_overrides():
    cfg = HarnessConfig(upper=20).resolved(get_problem("smd1"))
    assert cfg.upper == 20
    assert "override(20)" in cfg.pop_formula


@pytest.mark.parametrize("data", [{"termination": {"fes_u_max": 1000}}, {"net": {"psi_relu": False}}])
def test_omitted_fields_take_the_harness_defaults(data):
    cfg = harness_config_from_dict(data).resolved(get_problem("smd1"))
    assert (cfg.upper, cfg.lower) == (5, 5)
    assert cfg.pop_formula == "upper=4+floor(ln(m+n)); lower=4+floor(ln(n))"
    assert cfg.termination == TerminationRule(**data.get("termination", {}))
    assert cfg.net == NetConfig(**data.get("net", {}))


def test_validate_rejects_bad_mode_problem_runs():
    with pytest.raises(ConfigurationError):
        HarnessConfig(mode="turbo").validate()
    with pytest.raises(ConfigurationError):
        HarnessConfig(problem="smd99").validate()
    with pytest.raises(ConfigurationError):
        HarnessConfig(runs=0).validate()


def test_de_needs_four():
    # rand/1/bin draws a base and 3 distinct donors
    with pytest.raises(ConfigurationError, match="upper: DE needs"):
        HarnessConfig(upper=3).resolved(get_problem("smd1"))


class TestUpperPopulation:
    def test_old_section_form_refused(self):
        with pytest.raises(ConfigurationError, match="config.upper"):
            harness_config_from_dict({"upper": {"pop_size": 20}})

    @pytest.mark.parametrize("value,error", [
        (3, "upper: DE needs"), (True, "config.upper: expected int"),
        ("20", "config.upper: expected int"),
    ])
    def test_bad_value_refused_at_load(self, value, error):
        with pytest.raises(ConfigurationError, match=error):
            harness_config_from_dict({"upper": value})

    def test_zero_takes_the_formula(self):
        cfg = harness_config_from_dict({"upper": 0}).resolved(get_problem("smd1"))
        assert cfg.upper == 5 and cfg.pop_formula.startswith("upper=4+floor(ln(m+n));")


class TestFromDict:
    def test_full_round(self):
        cfg = harness_config_from_dict({
            "problem": "smd2",
            "mode": "cr",
            "runs": 3,
            "base_seed": 7,
            "upper": 20,
            "termination": {"fes_u_max": 100},
            "net": {"psi_relu": False},
        })
        assert cfg.problem == "smd2" and cfg.mode == "cr"
        assert cfg.upper == 20
        assert cfg.termination.fes_u_max == 100
        assert cfg.net.psi_relu is False

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="config.engine"):
            harness_config_from_dict({"engine": "de"})

    def test_pop_formula_is_not_a_key(self):
        # resolved() sets it from the population sizes
        with pytest.raises(ConfigurationError, match="config.pop_formula: unknown key"):
            harness_config_from_dict({"pop_formula": "upper=override(20)"})

    def test_unknown_section_key_path(self):
        with pytest.raises(ConfigurationError, match="config.termination.fes_u_mx: unknown key"):
            harness_config_from_dict({"termination": {"fes_u_mx": 5}})

    @pytest.mark.parametrize("section,key,old_default", [
        ("upper", "de_scale", 0.5), ("upper", "de_crossover", 0.9),
        ("lower", "cma_sigma0", 0.3), ("net", "lr", 0.1),
        ("net", "q", None), ("net", "epochs", 200), ("lower", "pop_size", 0),
    ])
    def test_fixed_setting_is_not_a_key(self, section, key, old_default):
        # constants of optimizers and ranknet, and the lower population's
        # formula, refused even at their value
        with pytest.raises(ConfigurationError, match=refusal(section, key)):
            harness_config_from_dict({section: {key: old_default}})

    @pytest.mark.parametrize("section", ["upper", "lower"])
    def test_engine_seed_is_not_a_key(self, section):
        # every search draws from its run's generator, seeded by base_seed
        with pytest.raises(ConfigurationError, match=refusal(section, "seed")):
            harness_config_from_dict({section: {"seed": 3}})

    def test_scalar_type_checked(self):
        with pytest.raises(ConfigurationError, match="config.runs"):
            harness_config_from_dict({"runs": "eleven"})
        with pytest.raises(ConfigurationError, match="config.runs"):
            harness_config_from_dict({"runs": True})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigurationError, match="config.termination: expected a JSON object"):
            harness_config_from_dict({"termination": "de"})

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="config.termination.kind: unknown key"):
            harness_config_from_dict({"termination": {"kind": "anneal"}})

    @pytest.mark.parametrize("section,key,value", [
        ("upper", "pop_size", "20"), ("upper", "pop_size", 20.0),
        ("termination", "target_acc", True),
        ("termination", "target_acc", None), ("termination", "fes_l_max", 2.5),
        ("net", "psi_relu", 1),
        ("termination", "upper_var_eps", float("nan")),
        ("termination", "lower_var_eps", float("inf")),
        ("termination", "target_acc", float("inf")),
        ("termination", "upper_var_eps", float("-inf")),
        ("termination", "lower_var_eps", float("nan")),
    ])
    def test_section_value_type_checked(self, section, key, value):
        # the upper population is the value of "upper" itself
        if section == "upper":
            data, path = {section: value}, section
        else:
            data, path = {section: {key: value}}, f"{section}.{key}"
        with pytest.raises(ConfigurationError, match=f"config.{path}: expected"):
            harness_config_from_dict(data)

    def test_section_value_types_accepted(self):
        cfg = harness_config_from_dict({"termination": {"target_acc": 1}, "net": {"psi_relu": False}})
        assert cfg.termination.target_acc == 1 and cfg.net.psi_relu is False
        assert type(cfg.termination.target_acc) is float

    def test_an_int_and_the_equal_float_share_a_fingerprint(self):
        # compare refuses configs whose fingerprints differ
        a, b = (harness_config_from_dict({"termination": {"upper_var_eps": v}}) for v in (1, 1.0))
        assert config_fingerprint("smd1", a.termination) == config_fingerprint("smd1", b.termination)

    def test_not_an_object(self):
        with pytest.raises(ConfigurationError):
            harness_config_from_dict([1, 2, 3])


def refusal(section, key):
    """The error that refuses ``{section: {key: ...}}``: the lower level's one
    value is its population formula, so "lower" is itself no key, and the
    upper level's is its population size, so "upper" takes no object."""
    if section == "lower":
        return "config.lower: unknown key"
    if section == "upper":
        return "config.upper: expected int"
    return f"config.{section}.{key}: unknown key"


def init_fields(cls):
    return sorted(f.name for f in fields(cls) if f.init)


def test_readme_config_block_loads():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        harness_config_from_dict(json.loads(block))
    # the first block is the schema: it names every key a config can set
    schema = json.loads(blocks[0])
    assert sorted(schema) == init_fields(HarnessConfig)
    for f in fields(HarnessConfig):
        if f.init and is_dataclass(f.type):
            assert sorted(schema[f.name]) == init_fields(f.type), f.name

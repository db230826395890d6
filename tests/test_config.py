"""Configuration schema: defaults, formula resolution, dict loading."""

import json
import pathlib
import re
from dataclasses import fields, is_dataclass, replace

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

# values of the wrong type for a field, by its annotation: a bool is no
# number, an int field takes no float, a float must be finite
WRONG = {
    str: [None, 5, True],
    int: [None, True, "20", 2.5, 20.0],
    float: [None, True, "1e-06", float("nan"), float("inf"), float("-inf")],
    bool: [None, 1, "true"],
}


def wrong_values(cls):
    """(field, value) for every init field of ``cls`` that is no section
    and every value of the wrong type for it."""
    return [(f.name, value) for f in fields(cls) if f.init and not is_dataclass(f.type)
            for value in WRONG[f.type]]


SECTIONS = {"termination": TerminationRule, "net": NetConfig}


def test_settable_value_count():
    # each init field that is no section, and each field of every section; a
    # change that adds or removes a config value edits this count and says so
    def count(cls):
        return sum(count(f.type) if is_dataclass(f.type) else 1 for f in fields(cls) if f.init)

    assert count(HarnessConfig) == 14


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
    # checked when the config is built, copies included
    with pytest.raises(ConfigurationError, match="^mode: "):
        HarnessConfig(mode="turbo")
    with pytest.raises(ConfigurationError, match="^problem: "):
        HarnessConfig(problem="smd99")
    with pytest.raises(ConfigurationError, match="^runs: "):
        HarnessConfig(runs=0)
    with pytest.raises(ConfigurationError, match="^runs: "):
        replace(HarnessConfig(), runs=0)
    with pytest.raises(ConfigurationError, match="^base_seed: "):
        replace(HarnessConfig(), base_seed=-1)


def test_de_needs_four():
    # rand/1/bin draws a base and 3 distinct donors
    for upper in (3, -1):
        with pytest.raises(ConfigurationError, match="^upper: DE needs"):
            HarnessConfig(upper=upper)


def test_lower_budget_covers_the_lower_population():
    # every lower-level task evaluates its whole initial population, 5 on smd1
    with pytest.raises(ConfigurationError, match="^termination.fes_l_max: 4 cannot cover"):
        HarnessConfig(termination=TerminationRule(fes_l_max=4))
    assert HarnessConfig(termination=TerminationRule(fes_l_max=5)).termination.fes_l_max == 5


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
        # loaded from a file or built in Python
        for key, value in [("runs", "eleven"), *wrong_values(HarnessConfig)]:
            with pytest.raises(ConfigurationError, match=f"^config.{key}: expected"):
                harness_config_from_dict({key: value})
            with pytest.raises(ConfigurationError, match=f"^{key}: expected"):
                HarnessConfig(**{key: value})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigurationError, match="config.termination: expected a JSON object"):
            harness_config_from_dict({"termination": "de"})
        for section, cls in SECTIONS.items():
            for value in (None, "de", 5, {}, object()):
                with pytest.raises(ConfigurationError, match=f"^{section}: expected {cls.__name__}"):
                    HarnessConfig(**{section: value})

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="config.termination.kind: unknown key"):
            harness_config_from_dict({"termination": {"kind": "anneal"}})

    @pytest.mark.parametrize("section,key,value", [
        ("upper", "pop_size", "20"), ("upper", "pop_size", 20.0),
        *[(section, key, value) for section, cls in SECTIONS.items()
          for key, value in wrong_values(cls)],
    ])
    def test_section_value_type_checked(self, section, key, value):
        # the upper population is the value of "upper" itself
        if section == "upper":
            data, path, kwargs = {section: value}, section, {section: value}
        else:
            data, path = {section: {key: value}}, f"{section}.{key}"
            kwargs = {section: SECTIONS[section](**{key: value})}
        with pytest.raises(ConfigurationError, match=f"^config.{path}: expected"):
            harness_config_from_dict(data)
        with pytest.raises(ConfigurationError, match=f"^{path}: expected"):
            HarnessConfig(**kwargs)

    def test_section_value_types_accepted(self):
        loaded = harness_config_from_dict({"termination": {"target_acc": 1}, "net": {"psi_relu": False}})
        built = HarnessConfig(termination=TerminationRule(target_acc=1), net=NetConfig(psi_relu=False))
        for cfg in (loaded, built):
            assert cfg.termination.target_acc == 1 and cfg.net.psi_relu is False
            assert type(cfg.termination.target_acc) is float

    def test_an_int_and_the_equal_float_share_a_fingerprint(self):
        # compare refuses configs whose fingerprints differ
        a, b = (harness_config_from_dict({"termination": {"upper_var_eps": v}}) for v in (1, 1.0))
        c = HarnessConfig(termination=TerminationRule(upper_var_eps=1))
        assert type(c.termination.upper_var_eps) is float
        assert (config_fingerprint("smd1", a.termination) == config_fingerprint("smd1", b.termination)
                == config_fingerprint("smd1", c.termination))

    @pytest.mark.parametrize("data,error", [
        ({"termination": {"fes_u_max": 0}}, "a.json.termination.fes_u_max: must be positive"),
        ({"upper": 3}, "a.json.upper: DE needs"),
        ({"termination": {"fes_l_max": 4}}, "a.json.termination.fes_l_max: 4 cannot cover"),
        ({"mode": "turbo"}, "a.json.mode: "),
    ])
    def test_value_errors_name_the_file(self, data, error):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(error)}"):
            harness_config_from_dict(data, path="a.json")

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

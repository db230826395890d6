"""Configuration schema: defaults, formula resolution, dict loading."""

import pytest

from crblea import (
    ConfigurationError,
    HarnessConfig,
    LowerConfig,
    UpperConfig,
    default_lower_pop,
    default_upper_pop,
    harness_config_from_dict,
)
from crblea.problems import get_problem


def test_population_formulas():
    assert default_upper_pop(2, 3) == 5  # 4 + floor(ln 5)
    assert default_lower_pop(3) == 5     # 4 + floor(ln 3)
    assert default_upper_pop(10, 10) == 6


def test_defaults():
    cfg = HarnessConfig()
    assert cfg.mode == "nested"
    assert cfg.upper == UpperConfig(pop_size=0)  # 0 = use the formula
    assert cfg.lower == LowerConfig(pop_size=0, cma_sigma0=0.3)
    assert cfg.runs == 21


def test_resolved_fills_formula_sizes():
    cfg = HarnessConfig().resolved(get_problem("smd1"))
    assert cfg.upper.pop_size == 5
    assert cfg.lower.pop_size == 5
    assert "4+floor(ln(m+n))" in cfg.pop_formula
    assert "4+floor(ln(n))" in cfg.pop_formula


def test_resolved_records_overrides():
    cfg = HarnessConfig(upper=UpperConfig(pop_size=20)).resolved(get_problem("smd1"))
    assert cfg.upper.pop_size == 20
    assert "override(20)" in cfg.pop_formula


def test_resolved_records_a_lower_override():
    cfg = HarnessConfig(lower=LowerConfig(pop_size=8)).resolved(get_problem("smd1"))
    assert (cfg.upper.pop_size, cfg.lower.pop_size) == (5, 8)
    assert cfg.pop_formula == "upper=4+floor(ln(m+n)); lower=override(8)"


@pytest.mark.parametrize("data", [{"lower": {"cma_sigma0": 0.2}}, {"upper": {"de_scale": 0.6}}])
def test_omitted_fields_take_the_harness_defaults(data):
    cfg = harness_config_from_dict(data).resolved(get_problem("smd1"))
    assert (cfg.upper.pop_size, cfg.lower.pop_size) == (5, 5)
    assert cfg.pop_formula == "upper=4+floor(ln(m+n)); lower=4+floor(ln(n))"
    assert cfg.lower.cma_sigma0 == data.get("lower", {}).get("cma_sigma0", 0.3)
    assert cfg.upper.de_scale == data.get("upper", {}).get("de_scale", 0.5)


def test_validate_rejects_bad_mode_problem_runs():
    with pytest.raises(ConfigurationError):
        HarnessConfig(mode="turbo").validate()
    with pytest.raises(ConfigurationError):
        HarnessConfig(problem="smd99").validate()
    with pytest.raises(ConfigurationError):
        HarnessConfig(runs=0).validate()


class TestFromDict:
    def test_full_round(self):
        cfg = harness_config_from_dict({
            "problem": "smd2",
            "mode": "cr",
            "runs": 3,
            "base_seed": 7,
            "upper": {"pop_size": 20},
            "lower": {"cma_sigma0": 0.2},
            "termination": {"fes_u_max": 100},
            "net": {"q": 4},
        })
        assert cfg.problem == "smd2" and cfg.mode == "cr"
        assert cfg.upper.pop_size == 20
        assert cfg.lower.cma_sigma0 == 0.2
        assert cfg.termination.fes_u_max == 100
        assert cfg.net.q == 4

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="config.engine"):
            harness_config_from_dict({"engine": "de"})

    def test_unknown_section_key_path(self):
        with pytest.raises(ConfigurationError, match="config.upper.popsize"):
            harness_config_from_dict({"upper": {"popsize": 5}})

    @pytest.mark.parametrize("section", ["upper", "lower"])
    def test_engine_seed_is_not_a_key(self, section):
        # every search draws from its run's generator, seeded by base_seed
        with pytest.raises(ConfigurationError, match=f"config.{section}.seed"):
            harness_config_from_dict({section: {"seed": 3}})

    def test_scalar_type_checked(self):
        with pytest.raises(ConfigurationError, match="config.runs"):
            harness_config_from_dict({"runs": "eleven"})
        with pytest.raises(ConfigurationError, match="config.runs"):
            harness_config_from_dict({"runs": True})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigurationError, match="config.upper"):
            harness_config_from_dict({"upper": "de"})

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="kind"):
            harness_config_from_dict({"upper": {"kind": "anneal", "pop_size": 5}})

    @pytest.mark.parametrize("section,key,value", [
        ("upper", "pop_size", "20"), ("upper", "pop_size", 20.0), ("lower", "cma_sigma0", True),
        ("termination", "target_acc", None), ("net", "q", 2.5), ("net", "psi_relu", 1),
    ])
    def test_section_value_type_checked(self, section, key, value):
        with pytest.raises(ConfigurationError, match=f"config.{section}.{key}: expected"):
            harness_config_from_dict({section: {key: value}})

    def test_section_value_types_accepted(self):
        cfg = harness_config_from_dict({"lower": {"cma_sigma0": 1}, "net": {"q": None}})
        assert cfg.lower.cma_sigma0 == 1 and cfg.net.q is None

    def test_not_an_object(self):
        with pytest.raises(ConfigurationError):
            harness_config_from_dict([1, 2, 3])

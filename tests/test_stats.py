"""Metrics and statistics: clamps, saving rate, rank-sum test, aggregation."""

import math

import pytest

from crblea import (
    ContractViolationError,
    RunRecord,
    accuracy,
    aggregate,
    resource_saving_rate,
    wilcoxon_ranksum,
)
from crblea.stats import BETTER, EQUIVALENT, WORSE, _ranksum_pvalue_normal, config_fingerprint
from crblea.nested import TerminationRule


class TestAccuracy:
    def test_clamp_floor(self):
        assert accuracy(5.0, 5.0) == 1e-6
        assert accuracy(5.0 + 1e-9, 5.0) == 1e-6

    def test_above_floor(self):
        assert accuracy(3.0, 1.0) == 2.0
        assert accuracy(-3.0, 1.0) == 4.0


class TestResourceSavingRate:
    def test_formula(self):
        assert resource_saving_rate(6.0, 8.0) == pytest.approx(25.0)
        assert resource_saving_rate(8.0, 8.0) == 0.0
        assert resource_saving_rate(10.0, 8.0) == pytest.approx(-25.0)

    def test_published_medians(self):
        assert 36.9 <= resource_saving_rate(1.28e4, 2.03e4) <= 37.1

    def test_zero_denominator(self):
        with pytest.raises(ContractViolationError):
            resource_saving_rate(1.0, 0.0)


class TestWilcoxon:
    def test_identical_samples_equivalent(self):
        assert wilcoxon_ranksum([1.0] * 11, [1.0] * 11) == EQUIVALENT

    def test_clear_separation_small_sample(self):
        a = [10.0, 11.0, 12.0, 13.0, 14.0]
        b = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert wilcoxon_ranksum(a, b) == BETTER
        assert wilcoxon_ranksum(b, a) == WORSE

    def test_clear_separation_large_sample(self):
        a = [10.0 + i for i in range(11)]
        b = [float(i) for i in range(11)]
        assert wilcoxon_ranksum(a, b) == BETTER

    def test_overlapping_samples_equivalent(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
        b = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, 10.5, 0.5]
        assert wilcoxon_ranksum(a, b) == EQUIVALENT

    def test_significant_at_equal_medians_is_equivalent(self):
        # a significant rank-sum difference names no better side when the
        # medians are equal (both are 1 here)
        a = [1, 0, 1, 1, 1, 0, 2, 0, 0, 0, 3]
        b = [1, 1, 4, 2, 1, 3, 1, 1, 0, 3, 3]
        assert _ranksum_pvalue_normal(a, b) == pytest.approx(0.0493, abs=1e-4)
        assert wilcoxon_ranksum(a, b) == EQUIVALENT

    def test_too_few_samples(self):
        with pytest.raises(ContractViolationError):
            wilcoxon_ranksum([1.0], [2.0, 3.0])


def make_record(problem="smd1", mode="nested", seed=0, **kwargs):
    defaults = dict(acc_u=1e-6, acc_l=1e-6, fes_u=100, fes_l=900, fes_t=1000,
                    trace=[(5, 2.0), (10, 1.0)], model_acc_history=[],
                    trainings_done=0, config_fingerprint="abc")
    defaults.update(kwargs)
    return RunRecord(problem=problem, mode=mode, seed=seed, **defaults)


class TestAggregate:
    def test_medians(self):
        records = [make_record(seed=i, fes_t=1000 + 10 * i) for i in range(3)]
        out = aggregate(records)
        assert out["fes_t"] == 1010
        assert out["runs"] == 3
        assert out["problem"] == "smd1" and out["mode"] == "nested"

    def test_heterogeneous_rejected(self):
        with pytest.raises(ContractViolationError):
            aggregate([make_record(mode="nested"), make_record(mode="cr")])

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            aggregate([])


def test_run_record_round_trip():
    record = make_record(model_acc_history=[0.9, 0.8], trainings_done=3,
                         stop_reason="budget", best_F=1.5)
    clone = RunRecord.from_dict(record.to_dict())
    assert clone == record


def test_run_record_from_dict_ignores_extras():
    d = make_record().to_dict()
    d["timestamp"] = "2026-01-01T00:00:00"
    assert RunRecord.from_dict(d) == make_record()


def test_config_fingerprint_sensitivity():
    rule = TerminationRule()
    fp = config_fingerprint("smd1", rule)
    assert fp == config_fingerprint("smd1", TerminationRule())
    assert fp != config_fingerprint("smd2", rule)
    assert fp != config_fingerprint("smd1", TerminationRule(fes_u_max=2000))

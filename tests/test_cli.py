"""Command-line interface: verbs, record files, overrides, error paths."""

import concurrent.futures
import contextlib
import csv
import json
import os
import types

import pytest

from crblea import cli
from crblea.cli import main
from crblea.problems import problem_names

FAST_TERMINATION = {"fes_u_max": 60, "fes_u_var_window": 30,
                    "fes_l_max": 60, "fes_l_var_window": 25}


def base_config(mode="nested", **extra):
    cfg = {
        "problem": "tq",
        "mode": mode,
        "runs": 3,
        "upper": 6,
        "termination": dict(FAST_TERMINATION),
        "net": {"psi_relu": True},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(problem_names())


def test_run_writes_records_and_traces(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", base_config())
    out_dir = tmp_path / "results"
    assert main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 0

    for seed in range(3):
        record_path = out_dir / f"tq_nested_seed{seed}.json"
        with open(record_path) as fh:
            record = json.load(fh)
        assert record["problem"] == "tq" and record["seed"] == seed
        assert record["fes_t"] == record["fes_u"] + record["fes_l"]

        with open(out_dir / f"tq_nested_seed{seed}_trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fes_t", "best_F", "acc_u"]
        assert len(rows) > 1
        assert all(float(r[2]) >= 1e-6 for r in rows[1:])  # clamped accuracy

    with open(out_dir / "tq_nested_summary.json") as fh:
        summary = json.load(fh)
    assert summary["runs"] == 3
    printed = json.loads(capsys.readouterr().out)
    assert printed == summary


def test_run_deterministic_across_invocations(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", base_config())
    for d in ("a", "b"):
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / d)]) == 0
    for seed in range(3):
        records = []
        for d in ("a", "b"):
            with open(tmp_path / d / f"tq_nested_seed{seed}.json") as fh:
                payload = json.load(fh)
            payload.pop("timestamp")
            records.append(payload)
        assert records[0] == records[1]


def test_run_overrides(tmp_path):
    cfg_path = write_config(tmp_path, "cfg.json", base_config())
    out_dir = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out_dir),
                 "--runs", "2", "--seed", "5", "--mode", "cr_no_net"]) == 0
    assert sorted(f for f in os.listdir(out_dir) if not f.endswith("_trace.csv")) == [
        "tq_cr_no_net_seed5.json",
        "tq_cr_no_net_seed6.json",
        "tq_cr_no_net_summary.json",
    ]


@pytest.mark.parametrize("command, flags", [
    ("suite", ["--runs", "1"]),
    ("suite", ["--seed", "7"]),
    ("suite", ["--mode", "cr_no_net"]),
    ("compare", ["--mode", "cr"]),
])
def test_flags_a_verb_does_not_honour_are_rejected(tmp_path, capsys, command, flags):
    cfg_path = write_config(tmp_path, "cfg.json", base_config())
    config = [str(tmp_path)] if command == "suite" else [cfg_path, "--variant-config", cfg_path]
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", *config, "--out", str(out_dir), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out_dir.exists()


def test_compare_overrides_seed_and_runs_on_both_sides(tmp_path):
    base = write_config(tmp_path, "base.json", base_config("nested"))
    variant = write_config(tmp_path, "variant.json", base_config("cr"))
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir), "--runs", "2", "--seed", "5"]) == 0
    assert sorted(f for f in os.listdir(out_dir) if "_seed" in f and f.endswith(".json")) == [
        "tq_cr_seed5.json", "tq_cr_seed6.json", "tq_nested_seed5.json", "tq_nested_seed6.json",
    ]
    with open(out_dir / "compare_tq_nested_vs_cr.json") as fh:
        assert json.load(fh)["runs"] == 2


def test_compare_emits_table_row(tmp_path, capsys):
    base = write_config(tmp_path, "base.json", base_config("nested"))
    variant = write_config(tmp_path, "variant.json", base_config("cr"))
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir)]) == 0
    with open(out_dir / "compare_tq_nested_vs_cr.json") as fh:
        row = json.load(fh)
    assert row["base_mode"] == "nested" and row["variant_mode"] == "cr"
    assert row["mark_acc_u"] in ("+", "≈", "-")
    assert "r_rs_percent" in row
    assert json.loads(capsys.readouterr().out) == row
    with open(out_dir / "compare_tq_nested_vs_cr.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["problem"] == "tq"


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_rejected(tmp_path, capsys, command, jobs):
    cfg_path = write_config(tmp_path, "cfg.json", base_config())
    target = cfg_path if command == "run" else str(tmp_path)
    assert main([command, "--config", target, "--jobs", jobs,
                 "--out", str(tmp_path / "out")]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def sequential_cr_runs():
    cfg = cli.harness_config_from_dict(base_config("cr"))
    tasks = [(cfg, seed) for seed in range(3)]
    return tasks, [r.to_dict() for r in cli.execute_runs(tasks)]


@pytest.mark.parametrize("jobs, cores, sizes", [(4, 2, [2]), (8, 16, [3]), (2, 16, [2]), (3, 1, [])])
def test_parallel_runs_capped_and_equal_to_sequential(monkeypatch, sequential_cr_runs,
                                                      jobs, cores, sizes):
    tasks, sequential = sequential_cr_runs
    pools = []

    @contextlib.contextmanager
    def in_process_pool(max_workers):
        pools.append(max_workers)
        yield types.SimpleNamespace(map=map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    parallel = [r.to_dict() for r in cli.execute_runs(tasks, jobs=jobs)]
    assert pools == sizes  # one core: no pool at all
    assert parallel == sequential


def test_worker_processes_equal_sequential(monkeypatch, sequential_cr_runs):
    # a real two-worker pool: the configs themselves travel to the workers
    tasks, sequential = sequential_cr_runs
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert [r.to_dict() for r in cli.execute_runs(tasks, jobs=2)] == sequential
    # records of mixed problems, modes and seeds come back in task order
    mixed = [(cli.harness_config_from_dict(base_config("cr", problem="smd1")), 0)]
    mixed += [(cli.harness_config_from_dict(base_config(mode)), seed)
              for mode in ("nested", "cr") for seed in (0, 1)]
    assert ([r.to_dict() for r in cli.execute_runs(mixed, jobs=2)]
            == [cli.run_single(cfg, seed).to_dict() for cfg, seed in mixed])


def test_compare_rejects_mismatched_problems(tmp_path, capsys):
    base = write_config(tmp_path, "base.json", base_config())
    variant = write_config(tmp_path, "variant.json", base_config(problem="smd1"))
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_rejects_unequal_runs(tmp_path, capsys):
    base = write_config(tmp_path, "base.json", base_config("nested", runs=2))
    variant = write_config(tmp_path, "variant.json", base_config("cr", runs=3))
    out_dir = tmp_path / "x"
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir)]) == 2
    assert "same number of runs" in capsys.readouterr().err
    assert not out_dir.exists()


def test_compare_rejects_a_single_run_before_running(tmp_path, capsys):
    # the rank-sum marks need two runs per arm; one run used to write both
    # arms' files and then fail in the comparison
    base = write_config(tmp_path, "base.json", base_config("nested"))
    variant = write_config(tmp_path, "variant.json", base_config("cr"))
    out_dir = tmp_path / "x"
    out_dir.mkdir()
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir), "--runs", "1"]) == 2
    assert "at least 2 runs" in capsys.readouterr().err
    assert os.listdir(out_dir) == []


def test_compare_rejects_one_mode_on_both_sides(tmp_path, capsys):
    # both arms would write tq_nested_seed*.json, the variant's over the base's
    base = write_config(tmp_path, "base.json", base_config("nested", runs=2))
    variant = write_config(tmp_path, "variant.json",
                           base_config("nested", runs=2, upper=10))
    out_dir = tmp_path / "x"
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir)]) == 2
    assert "both configs use mode 'nested'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_compare_rejects_unequal_termination_before_running(tmp_path, capsys):
    base = write_config(tmp_path, "base.json", base_config("nested"))
    variant = write_config(tmp_path, "variant.json", base_config(
        "cr", termination=dict(FAST_TERMINATION, fes_u_max=50)))
    out_dir = tmp_path / "x"
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir)]) == 2
    assert "same termination settings" in capsys.readouterr().err
    assert not out_dir.exists()


def test_compare_rejects_unequal_upper_population_before_running(tmp_path, capsys):
    # a saving between two population sizes would measure the population;
    # 0 is compared as tq's formula size, 4 + floor(ln 4) = 5
    base = write_config(tmp_path, "base.json", base_config("nested", upper=0))
    variant = write_config(tmp_path, "variant.json", base_config("cr"))
    out_dir = tmp_path / "x"
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir)]) == 2
    assert "same upper population, got [5, 6]" in capsys.readouterr().err
    assert not out_dir.exists()


def test_problem_name_case_is_one_problem(tmp_path, capsys):
    # "TQ" names the registry's "tq": compare accepts the pair, and every file
    # of the run carries the registry name
    base = write_config(tmp_path, "base.json", base_config("nested", problem="TQ", runs=2))
    variant = write_config(tmp_path, "variant.json", base_config("cr", runs=2))
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir)]) == 0
    assert json.loads(capsys.readouterr().out)["problem"] == "tq"
    runs = [f"tq_{mode}_{part}" for mode in ("cr", "nested")
            for part in ("seed0.json", "seed0_trace.csv", "seed1.json", "seed1_trace.csv",
                         "summary.json")]
    assert sorted(os.listdir(out_dir)) == sorted(
        ["compare_tq_nested_vs_cr.csv", "compare_tq_nested_vs_cr.json"] + runs)


def test_suite_runs_pairs_and_reports_errors(tmp_path, capsys):
    pair_dir = tmp_path / "pairs"
    pair_dir.mkdir()
    (pair_dir / "tq_pair.json").write_text(json.dumps({
        "base": base_config("nested", runs=2),
        "variant": base_config("cr", runs=2),
    }))
    (pair_dir / "broken.json").write_text(json.dumps({"base": base_config()}))
    (pair_dir / "one_mode.json").write_text(json.dumps({
        "base": base_config("cr", runs=2), "variant": base_config("cr", runs=2),
    }))
    (pair_dir / "garbled.json").write_text("{not json")
    out_dir = tmp_path / "suite_out"
    assert main(["suite", "--config", str(pair_dir), "--out", str(out_dir)]) == 0

    with open(out_dir / "suite.json") as fh:
        report = json.load(fh)
    assert len(report["rows"]) == 1
    assert sorted(report["errors"]) == ["broken.json", "garbled.json", "one_mode.json"]
    assert "both configs use mode 'cr'" in report["errors"]["one_mode.json"]
    assert "average_r_rs_percent" in report

    text = (out_dir / "suite.csv").read_text()
    assert text.strip().splitlines()[-1].startswith("# Average R_rs,")


def test_suite_keeps_each_pair_files_records_apart(tmp_path, capsys):
    # same problem and modes, so the run files of both pairs share names
    pair_dir = tmp_path / "pairs"
    pair_dir.mkdir()
    short = dict(FAST_TERMINATION, fes_u_max=30)
    for pop in (6, 8):
        (pair_dir / f"pop{pop}.json").write_text(json.dumps({
            side: base_config(mode, runs=2, upper=pop, termination=short)
            for side, mode in (("base", "nested"), ("variant", "cr"))
        }))
    out_dir = tmp_path / "suite_out"
    assert main(["suite", "--config", str(pair_dir), "--out", str(out_dir)]) == 0
    assert sorted(os.listdir(out_dir)) == ["pop6", "pop8", "suite.csv", "suite.json"]
    for pop in (6, 8):
        sub = out_dir / f"pop{pop}"
        assert "compare_tq_nested_vs_cr.json" in os.listdir(sub)
        for mode in ("nested", "cr"):
            for seed in (0, 1):
                with open(sub / f"tq_{mode}_seed{seed}.json") as fh:
                    assert json.load(fh)["pop_size_upper"] == pop
    with open(out_dir / "suite.json") as fh:
        assert len(json.load(fh)["rows"]) == 2


def test_suite_lets_unexpected_errors_propagate(tmp_path, monkeypatch):
    pair_dir = tmp_path / "pairs"
    pair_dir.mkdir()
    (pair_dir / "tq_pair.json").write_text(json.dumps({
        "base": base_config("nested"), "variant": base_config("cr"),
    }))

    def fail(*args, **kwargs):
        raise RuntimeError("bug in compare")

    monkeypatch.setattr(cli, "cmd_compare", fail)
    with pytest.raises(RuntimeError, match="bug in compare"):
        main(["suite", "--config", str(pair_dir), "--out", str(tmp_path / "out")])


def test_suite_requires_directory(tmp_path, capsys):
    assert main(["suite", "--config", str(tmp_path / "missing")]) == 2
    assert "error:" in capsys.readouterr().err


def test_suite_on_an_empty_directory_writes_an_empty_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["suite", "--config", str(tmp_path), "--out", str(out_dir)]) == 0
    assert "no config files found" in capsys.readouterr().err
    with open(out_dir / "suite.json") as fh:
        assert json.load(fh) == {"rows": [], "errors": {}}


def test_negative_seed_rejected(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", base_config())
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--seed", "-1", "--out", str(out_dir)]) == 2
    assert "base_seed" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = base_config()
    cfg["mystery"] = 1
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", path]) == 2
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("termination", "fes_u_max", 0),
    ("upper", "pop_size", "20"),
    ("net", "q", 0),  # not a key: the width is NetConfig.width_for
    ("net", "epochs", -1),  # not a key: train's epoch budget is fixed
    ("net", "lr", 0),  # not a key: the learning rate is ranknet.ADAM_LR
    ("termination", "target_acc", float("inf")),
    ("termination", "lower_var_eps", float("nan")),
    ("termination", "fes_l_max", 3),  # below tq's lower population of 4
])
def test_bad_config_value(tmp_path, capsys, section, key, value):
    cfg = base_config()
    if section == "upper":  # the upper population is the value of "upper" itself
        cfg[section], where = value, f"{section}: expected int"
    else:
        cfg[section][key], where = value, f"{section}.{key}"
    path = write_config(tmp_path, "cfg.json", cfg)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert not out_dir.exists()


def test_compare_checks_both_configs_before_running(tmp_path, capsys):
    base = write_config(tmp_path, "base.json", base_config())
    variant = write_config(tmp_path, "variant.json",
                           base_config("cr", upper=3))
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", base, "--variant-config", variant,
                 "--out", str(out_dir)]) == 2
    assert "upper: DE needs" in capsys.readouterr().err
    assert not out_dir.exists()

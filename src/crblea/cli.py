"""Configuration-driven experiment runner.

Verbs:

* ``run``: execute N seeded runs of one (problem, mode) config, writing one
  JSON record and one CSV convergence trace per run.
* ``compare``: run a base and a variant config (two modes, one problem and
  upper population); emit a row of medians, Wilcoxon marks and saving rate.
* ``suite``: run ``compare`` for every pair-config file in a directory, each
  into its own subdirectory, and append an average resource-saving footer.
* ``list-problems``: print the registry.

Config files are JSON objects mirroring HarnessConfig (see README for the
schema).  Suite pair files hold {"base": {...}, "variant": {...}}.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time

from .config import MODES, HarnessConfig, harness_config_from_dict
from .crframework import run_single
from .errors import ConfigurationError
from .problems import get_problem, problem_names
from .stats import (AGGREGATE_FIELDS, RunRecord, accuracy, aggregate, resource_saving_rate,
                    wilcoxon_ranksum)


def _atomic_write(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _trace_csv(record: RunRecord, known_F):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["fes_t", "best_F", "acc_u"])
    for fes_t, best_F in record.trace:
        writer.writerow([fes_t, repr(float(best_F)), repr(float(accuracy(best_F, known_F)))])
    return buf.getvalue()


def write_record(record: RunRecord, cfg: HarnessConfig, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{record.problem}_{record.mode}_seed{record.seed}"
    payload = record.to_dict()
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _atomic_write(os.path.join(out_dir, f"{stem}.json"), json.dumps(payload, indent=1) + "\n")
    known_F = get_problem(cfg.problem).optimum[0]
    _atomic_write(os.path.join(out_dir, f"{stem}_trace.csv"), _trace_csv(record, known_F))
    return stem


def execute_runs(tasks, jobs=1):
    """The records of ``tasks``, a list of ``(config, seed)`` pairs, yielded in
    task order.

    The runs go to ``min(jobs, cores, len(tasks))`` worker processes; one
    worker means they run here, one after another.  Each record is yielded as
    soon as it and every record before it have finished.
    """
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run_single, *zip(*tasks))
    else:
        for cfg, seed in tasks:
            yield run_single(cfg, seed)


def cmd_run(cfg: HarnessConfig, jobs=1, out_dir=None):
    out_dir = out_dir or cfg.output_dir
    tasks = [(cfg, cfg.base_seed + i) for i in range(cfg.runs)]
    records = list(execute_runs(tasks, jobs=jobs))
    for record in records:
        write_record(record, cfg, out_dir)
    summary = aggregate(records)
    _atomic_write(
        os.path.join(out_dir, f"{cfg.problem}_{cfg.mode}_summary.json"),
        json.dumps(summary, indent=1) + "\n",
    )
    return records


def compare_records(base_records, variant_records):
    """One table row from two homogeneous record groups on the same problem."""
    base = aggregate(base_records)
    variant = aggregate(variant_records)
    row = {
        "problem": base["problem"],
        "base_mode": base["mode"],
        "variant_mode": variant["mode"],
        "runs": base["runs"],
    }
    for col in AGGREGATE_FIELDS:
        row[f"base_{col}"] = base[col]
        row[f"variant_{col}"] = variant[col]
        row[f"mark_{col}"] = wilcoxon_ranksum(
            [getattr(r, col) for r in base_records],
            [getattr(r, col) for r in variant_records],
        )
    row["r_rs_percent"] = resource_saving_rate(variant["fes_t"], base["fes_t"])
    return row


def _write_compare_csv(rows, path, footer=None):
    names = list(rows[0].keys()) if rows else ["problem"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if footer is not None:
        buf.write(footer + "\n")
    _atomic_write(path, buf.getvalue())


def cmd_compare(cfg_base: HarnessConfig, cfg_variant: HarnessConfig, jobs=1, out_dir=None):
    if cfg_base.problem != cfg_variant.problem:
        raise ConfigurationError("compare: both configs must target the same problem")
    if cfg_base.runs != cfg_variant.runs:
        raise ConfigurationError("compare: both configs must use the same number of runs")
    if cfg_base.runs < 2:  # the rank-sum marks need two runs per arm
        raise ConfigurationError(f"compare: needs at least 2 runs per config, got {cfg_base.runs}")
    if cfg_base.mode == cfg_variant.mode:  # the two arms' run files would share names
        raise ConfigurationError(f"compare: both configs use mode {cfg_base.mode!r}")
    if cfg_base.termination != cfg_variant.termination:
        raise ConfigurationError("compare: both configs must use the same termination settings")
    pops = [cfg.resolved(get_problem(cfg.problem)).upper for cfg in (cfg_base, cfg_variant)]
    if pops[0] != pops[1]:  # the saving rate would measure the population, not the gate
        raise ConfigurationError(f"compare: both configs must use the same upper population, got {pops}")
    out_dir = out_dir or cfg_base.output_dir
    base_records = cmd_run(cfg_base, jobs=jobs, out_dir=out_dir)
    variant_records = cmd_run(cfg_variant, jobs=jobs, out_dir=out_dir)
    row = compare_records(base_records, variant_records)
    stem = f"compare_{cfg_base.problem}_{cfg_base.mode}_vs_{cfg_variant.mode}"
    _write_compare_csv([row], os.path.join(out_dir, f"{stem}.csv"))
    _atomic_write(os.path.join(out_dir, f"{stem}.json"), json.dumps(row, indent=1) + "\n")
    return row


def cmd_suite(config_dir, jobs=1, out_dir=None):
    """Run every pair config in a directory, each into ``out_dir/<file stem>/``;
    aggregate an average-R_rs footer."""
    if not os.path.isdir(config_dir):
        raise ConfigurationError(f"suite: {config_dir} is not a directory")
    files = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    rows, errors = [], {}
    out_dir = out_dir or "suite_results"
    if not files:
        print("warning: no config files found; writing empty report", file=sys.stderr)
    for name in files:
        path = os.path.join(config_dir, name)
        try:
            data = _read_json(path)
            if not isinstance(data, dict) or "base" not in data or "variant" not in data:
                raise ConfigurationError(f"{name}: suite configs need 'base' and 'variant' sections")
            cfg_base = harness_config_from_dict(data["base"], path=f"{name}.base")
            cfg_variant = harness_config_from_dict(data["variant"], path=f"{name}.variant")
            rows.append(cmd_compare(cfg_base, cfg_variant, jobs=jobs,
                                    out_dir=os.path.join(out_dir, os.path.splitext(name)[0])))
        except ConfigurationError as exc:  # reported; the suite goes on
            errors[name] = f"{type(exc).__name__}: {exc}"
    os.makedirs(out_dir, exist_ok=True)
    report = {"rows": rows, "errors": errors}
    footer = None
    if rows:
        avg = sum(r["r_rs_percent"] for r in rows) / len(rows)
        footer = f"# Average R_rs,{avg:.1f}%"
        report["average_r_rs_percent"] = avg
    _write_compare_csv(rows, os.path.join(out_dir, "suite.csv"), footer=footer)
    _atomic_write(os.path.join(out_dir, "suite.json"), json.dumps(report, indent=1) + "\n")
    return report


def _read_json(path):
    """The JSON value in the file at ``path``; a file that cannot be read or
    parsed raises ConfigurationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None


def _load_config(path, overrides):
    cfg = harness_config_from_dict(_read_json(path), path=os.path.basename(path))
    return _apply_overrides(cfg, overrides)


def _apply_overrides(cfg, args):
    """``cfg`` with the flags given on the command line; a verb that does not
    register a flag leaves its field alone."""
    flags = {"seed": "base_seed", "runs": "runs", "mode": "mode", "out": "output_dir"}
    changes = {key: getattr(args, flag) for flag, key in flags.items()
               if getattr(args, flag, None) is not None}
    return dataclasses.replace(cfg, **changes)


def build_parser():
    parser = argparse.ArgumentParser(prog="crblea", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--jobs", type=int, default=1, help="parallel runs")

    def seeds(sp):
        sp.add_argument("--seed", type=int, default=None, help="override base seed")
        sp.add_argument("--runs", type=int, default=None, help="override run count")

    sp = sub.add_parser("run", help="execute seeded runs of one config")
    sp.add_argument("--config", required=True)
    common(sp)
    seeds(sp)
    sp.add_argument("--mode", choices=MODES, default=None, help="override mode")

    sp = sub.add_parser("compare", help="baseline-vs-variant table row")
    sp.add_argument("--config", required=True, help="base config path")
    sp.add_argument("--variant-config", required=True)
    common(sp)
    seeds(sp)

    sp = sub.add_parser("suite", help="run all pair configs in a directory")
    sp.add_argument("--config", required=True, help="directory of pair configs")
    common(sp)

    sub.add_parser("list-problems", help="print the problem registry")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigurationError(f"--jobs: must be >= 1, got {args.jobs}")
        if args.command == "list-problems":
            for name in problem_names():
                print(name)
            return 0
        if args.command == "run":
            cfg = _load_config(args.config, args)
            records = cmd_run(cfg, jobs=args.jobs)
            summary = aggregate(records)
            print(json.dumps(summary, indent=1))
            return 0
        if args.command == "compare":
            cfg_base = _load_config(args.config, args)
            cfg_variant = _load_config(args.variant_config, args)
            row = cmd_compare(cfg_base, cfg_variant, jobs=args.jobs)
            print(json.dumps(row, indent=1))
            return 0
        if args.command == "suite":
            report = cmd_suite(args.config, jobs=args.jobs, out_dir=args.out)
            print(json.dumps({k: report[k] for k in report if k != "rows"}, indent=1))
            return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""crblea benchmark: whole protocol runs through ``crblea.cli.run_single``.

Run from the repository root:

    python3 bench/run.py --workload nested-smd1 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 1

One process makes one run at a time (a closed loop) with BLAS/OpenMP pinned to
one thread.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced runs (see bench/README.md).
Every run's record is checked; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
TESTS_DIR = os.path.join(ROOT, "tests")

if not os.path.isfile(os.path.join(SRC_DIR, "crblea", "__init__.py")):
    sys.exit(f"bench: no crblea sources under {SRC_DIR}; run from a full checkout")
sys.path[:0] = [SRC_DIR, TESTS_DIR, BENCH_DIR]

import numpy as np  # noqa: E402

from crblea.cli import run_single  # noqa: E402
from crblea.problems import get_problem  # noqa: E402
from crblea.stats import ACC_FLOOR  # noqa: E402
from _corpus import CACHE_DIR, protocol_config  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

# name -> (problem, mode).  Why each one is here: bench/README.md.
WORKLOADS = {
    "nested-smd1": ("smd1", "nested"),
    "cr-smd1": ("smd1", "cr"),
    "cr-smd12": ("smd12", "cr"),
}

# FE counts and accuracies are exact functions of the protocol seed, and
# across the corpus's 11 seeds they spread far wider than any usable
# regression bound (fes_t quartile distance 0.33 of the median on nested
# SMD1, acc_u 0.9).  Every run therefore repeats the corpus's reference seed;
# --seed drives the benchmark's own inputs (set-up probe points, run order).
PROTOCOL_SEED = 0
SETUP_SAMPLES = 7
STOP_REASONS = ("budget", "stagnation", "target")

END_TO_END = (
    ("run_s", "s"), ("fes_t", "count"), ("acc_u", "value"), ("acc_l", "value"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
TRACE_METRICS = LAYER_METRICS + (("trace.overhead_frac", "frac"),)

# Corpus modes whose regeneration time each workload's FE rate projects.
MODE_FAMILY = {"nested": ("nested",), "cr": ("cr", "cr_no_net", "cr_no_resample")}


def log(msg):
    print(msg, flush=True)


def record_problems(rec, cfg, p):
    """Output checks every protocol run must pass; returns failed checks."""
    rule = cfg.termination
    bad = []
    if rec.fes_t != rec.fes_u + rec.fes_l:
        bad.append(f"fes_t {rec.fes_t} != fes_u {rec.fes_u} + fes_l {rec.fes_l}")
    if rec.fes_u > rule.fes_u_max:
        bad.append(f"fes_u {rec.fes_u} > fes_u_max {rule.fes_u_max}")
    if rec.stop_reason not in STOP_REASONS:
        bad.append(f"stop reason {rec.stop_reason!r}")
    for name, acc, best, ref in (("acc_u", rec.acc_u, rec.best_F, p.optimum[0]),
                                 ("acc_l", rec.acc_l, rec.best_f, p.optimum[1])):
        if not (math.isfinite(acc) and acc == max(abs(ref - best), ACC_FLOOR)):
            bad.append(f"{name} {acc!r} inconsistent with best value {best!r} (optimum {ref!r})")
    if not rec.trace or rec.trace[-1][0] != rec.fes_t:
        bad.append("convergence trace does not end at fes_t")
    return bad


def trace_problems(tracer, rec, rule):
    """Checks that the traced counts agree with the run's own record."""
    bad = []
    for name, got, want in (
        ("ledger.fes_u", tracer.ledger.fes_u, rec.fes_u),
        ("ledger.fes_l", tracer.ledger.fes_l, rec.fes_l),
        ("evaluate_upper calls", tracer.calls("problems.evaluate_upper"), rec.fes_u),
        ("evaluate_lower calls", tracer.calls("problems.evaluate_lower"), rec.fes_l),
        ("successful trainings", tracer.calls("ranknet.train") - tracer.train_failures,
         rec.trainings_done),
        ("resamplings", tracer.resamples, rec.resamplings),
        ("model accuracies", tracer.model_acc, rec.model_acc_history),
    ):
        if got != want:
            bad.append(f"traced {name} {got!r} != record {want!r}")
    over = [used for _, used, cap, _ in tracer.tasks if used > cap]
    if over:
        bad.append(f"{len(over)} lower tasks exceeded fes_l_max {rule.fes_l_max}")
    return bad


class Runner:
    """Makes protocol runs of one workload and counts attempts and failures."""

    def __init__(self, problem, mode):
        self.p = get_problem(problem)
        self.cfg = protocol_config(problem, mode)
        self.rule = self.cfg.resolved(self.p).termination
        self.reference = None  # first record, every repeat must equal it
        self.attempted = 0
        self.failed = 0

    def run(self, tracer=None):
        """One protocol run; returns (record, wall s), or None if it failed."""
        self.attempted += 1
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                rec = run_single(self.cfg, PROTOCOL_SEED)
                wall = time.perf_counter() - t0
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        bad = record_problems(rec, self.cfg, self.p)
        if tracer is not None:
            bad += trace_problems(tracer, rec, self.rule)
        if self.reference is None:
            self.reference = rec.to_dict()
        elif rec.to_dict() != self.reference:
            bad.append("record differs from the first run of the same seed")
        status = "ok" if not bad else "FAILED: " + "; ".join(bad)
        log(f"run {self.attempted}{' traced' if tracer else ''}: {wall:.3f} s "
            f"fes_t={rec.fes_t} acc_u={rec.acc_u:.3e} stop={rec.stop_reason} {status}")
        if bad:
            self.failed += 1
            return None
        return rec, wall


def setup_seconds(problem, mode, seed):
    """Median set-up time over SETUP_SAMPLES fresh interpreters."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    samples = []
    for i in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, probe, ROOT, problem, mode, str(seed * SETUP_SAMPLES + i)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    log(f"setup samples (s): {' '.join(f'{s:.4f}' for s in samples)}")
    return statistics.median(samples)


def corpus_projection(family, fe_per_s):
    """(records, FEs, minutes) to regenerate the cached corpus runs of one mode family."""
    fes = []
    for path in glob.glob(os.path.join(CACHE_DIR, "*.json")):
        with open(path) as fh:
            record = json.load(fh)
        if record["mode"] in MODE_FAMILY[family]:
            fes.append(record["fes_t"])
    return len(fes), sum(fes), sum(fes) / fe_per_s / 60.0


def measure(runner, seed, seconds):
    """End-to-end metrics with tracing off."""
    deadline = time.perf_counter() + seconds
    mode = runner.cfg.mode
    setup_s = setup_seconds(runner.cfg.problem, mode, seed)
    runs = []
    # Repeat while the next run fits; a run longer than the budget is made once.
    while not runner.attempted or (
            runs and time.perf_counter() + statistics.median(w for _, w in runs) <= deadline):
        out = runner.run()
        if out is not None:
            runs.append(out)
    if not runs:
        return None
    rec = runs[0][0]
    walls = [w for _, w in runs]
    run_s = statistics.median(walls)
    log(f"run_s over {len(walls)} runs: median {run_s:.4f} s, min {min(walls):.4f}, max {max(walls):.4f}")
    family = "nested" if mode == "nested" else "cr"
    n, fes, minutes = corpus_projection(family, rec.fes_t / run_s)
    log(f"projection (ungated): {n} cached corpus runs of the {family} modes, {fes} FEs, "
        f"at {rec.fes_t / run_s:.0f} FE/s -> {minutes:.1f} min")
    return {
        "run_s": run_s,
        "fes_t": rec.fes_t,
        "acc_u": rec.acc_u,
        "acc_l": rec.acc_l,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(runner, seed, seconds):
    """Per-layer metrics: untraced and traced runs in pairs, order alternating."""
    deadline = time.perf_counter() + seconds
    traced_first = random.Random(seed).random() < 0.5
    plain, traced, layers = [], [], []
    while not runner.attempted or (
            plain and traced and time.perf_counter() + statistics.median(plain)
            + statistics.median(traced) <= deadline):
        for with_trace in ((True, False) if traced_first else (False, True)):
            tracer = Tracer() if with_trace else None
            out = runner.run(tracer)
            if out is None:
                continue
            if with_trace:
                traced.append(out[1])
                layers.append(tracer.layer_metrics(out[1]))
            else:
                plain.append(out[1])
        traced_first = not traced_first
    if not (plain and traced):
        return None
    metrics = {name: statistics.median(m[name] for m in layers) for name, _ in LAYER_METRICS}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def run_workload(args):
    problem, mode = WORKLOADS[args.workload]
    log(f"bench: workload={args.workload} problem={problem} mode={mode} "
        f"protocol_seed={PROTOCOL_SEED} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    log("env: nproc={} python={} numpy={} {}".format(
        os.cpu_count(), platform.python_version(), np.__version__,
        " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)))
    runner = Runner(problem, mode)
    if args.trace:
        values = measure_traced(runner, args.seed, args.seconds)
        units = dict(TRACE_METRICS)
    else:
        values = measure(runner, args.seed, args.seconds)
        units = dict(END_TO_END)
        log(f"{'fail_frac':28s} {runner.failed / runner.attempted!r} frac")
    metrics = {}
    for name, value in (values or {}).items():
        log(f"{name:28s} {value!r} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    correct = values is not None and runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if values is not None else 1


def run_all(args):
    """Each workload in its own process, then the whole-corpus projection."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not result:
            sys.exit(f"bench: workload {name} exited with code {out.returncode}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    m = combined["metrics"]
    if not args.trace:
        total_min = 0.0
        for family, workload in (("nested", "nested-smd1"), ("cr", "cr-smd1")):
            rate = m[f"{workload}.fes_t"]["value"] / m[f"{workload}.run_s"]["value"]
            total_min += corpus_projection(family, rate)[2]
        log(f"projection (ungated): whole cached corpus, nested modes at nested-smd1's FE/s "
            f"and CR modes at cr-smd1's -> {total_min:.1f} min")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

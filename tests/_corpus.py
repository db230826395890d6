"""Shared corpus of seeded experiment runs for the acceptance tests.

A single run takes 1-50 s (median 3.4 s), and the acceptance checks need
308 of them (about 35 min on one core), so finished runs are cached as JSON
under ``tests/_cache``.  The cache key is (problem, mode, seed) inside a
directory named after the experiment protocol; changing the protocol below
changes the directory and invalidates the cache.  Running this module as a
script pre-computes the whole corpus:

    python3 tests/_corpus.py
"""

import json
import os
import sys
import time

from crblea import HarnessConfig, RunRecord, UpperConfig
from crblea.cli import run_single

# Experiment protocol: the published termination settings with an upper
# population of 20.  The published 4+floor(ln(m+n)) sizing (5 for m=2, n=3)
# leaves rand/1/bin too few distinct donors to converge below the 1e-6
# stagnation threshold, so every comparison here uses the same enlarged
# upper population for baseline and variants alike.
UPPER_POP = 20
PROTOCOL = f"upperpop{UPPER_POP}-lowercma"
SEEDS = tuple(range(11))

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cache", PROTOCOL)

SAVINGS_INSTANCES = ("smd1", "smd2", "smd3", "smd4", "smd5", "smd7", "smd8", "smd9")
ABLATION_INSTANCES = ("smd1", "smd2", "smd3", "smd4")


def protocol_config(problem, mode):
    return HarnessConfig(problem=problem, mode=mode,
                         upper=UpperConfig(pop_size=UPPER_POP))


def record_for(problem, mode, seed):
    """One cached seeded run under the acceptance protocol."""
    path = os.path.join(CACHE_DIR, f"{problem}_{mode}_seed{seed}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return RunRecord.from_dict(json.load(fh))
    record = run_single(protocol_config(problem, mode), seed)
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(record.to_dict(), fh)
    os.replace(tmp, path)
    return record


def records_for(problem, mode):
    return [record_for(problem, mode, s) for s in SEEDS]


def corpus_jobs():
    """Every (problem, mode, seed) the acceptance tests touch, seed-major so
    one pass over the whole problem/mode matrix happens early."""
    combos = [(p, m) for p in SAVINGS_INSTANCES + ("smd6",) for m in ("nested", "cr")]
    combos += [(p, m) for p in ABLATION_INSTANCES
               for m in ("cr_no_net", "cr_no_resample")]
    combos += [("tq", m) for m in ("nested", "cr")]
    for seed in SEEDS:
        for problem, mode in combos:
            yield problem, mode, seed


def main():
    jobs = list(corpus_jobs())
    done = 0
    t0 = time.time()
    for problem, mode, seed in jobs:
        t1 = time.time()
        cached = os.path.exists(os.path.join(CACHE_DIR, f"{problem}_{mode}_seed{seed}.json"))
        r = record_for(problem, mode, seed)
        done += 1
        status = "cache" if cached else f"{time.time() - t1:5.1f}s"
        print(f"[{done}/{len(jobs)}] {problem} {mode} seed {seed}: fes_t={r.fes_t} "
              f"acc_u={r.acc_u:.2e} stop={r.stop_reason} ({status}, "
              f"total {(time.time() - t0) / 60:.1f} min)", flush=True)


if __name__ == "__main__":
    sys.exit(main())

"""Shared corpus of seeded experiment runs for the acceptance tests.

A single run takes 1-50 s (median 3.4 s), and the acceptance checks need
308 of them, so finished runs are cached as JSON under ``tests/_cache``.
The cache key is (problem, mode, seed) inside a directory named after the
experiment protocol; changing the protocol below changes the directory and
invalidates the cache.  A change to the code does not: a cached record is
used whatever the current code would compute.  To check the cache against
the code, empty the protocol directory in a copy of the checkout, run this
script there and compare the JSON files byte for byte with the committed
ones.  The tests only read the cache: a missing record raises an error
naming this script.  Running it computes every missing record on all cores
(4-5 min for the whole corpus on 2 cores) and stores each as it
arrives, so a rerun after an interruption computes only what is missing:

    python3 tests/_corpus.py
"""

import json
import os
import sys
import time

from crblea import HarnessConfig, RunRecord
from crblea.cli import execute_runs

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
    return HarnessConfig(problem=problem, mode=mode, upper=UPPER_POP)


def record_sha1(record):
    """The sha1 of a RunRecord's JSON form, keys sorted: the digest every
    golden pin and ``tests/_digests.txt`` line holds."""
    import hashlib  # off the timed import of bench/setup_probe.py

    return hashlib.sha1(json.dumps(record.to_dict(), sort_keys=True).encode()).hexdigest()


def _cache_path(problem, mode, seed):
    return os.path.join(CACHE_DIR, f"{problem}_{mode}_seed{seed}.json")


def _store(path, record):
    """Write one record to the cache; the rename makes it appear whole or not at all."""
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(record.to_dict(), fh)
    os.replace(tmp, path)


def record_for(problem, mode, seed):
    """One cached seeded run under the acceptance protocol."""
    path = _cache_path(problem, mode, seed)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no cached corpus record {path}; "
                                "compute the missing records with: python3 tests/_corpus.py")
    with open(path) as fh:
        return RunRecord.from_dict(json.load(fh))


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
    """Print one line per corpus record: the cached ones first, then each
    uncached one as it arrives from the runs on every core, which stores it."""
    jobs = list(corpus_jobs())
    cached, todo = [], []
    for job in jobs:
        (cached if os.path.exists(_cache_path(*job)) else todo).append(job)
    tasks = [(protocol_config(problem, mode), seed) for problem, mode, seed in todo]
    t0 = time.time()

    def report(done, job, r, status):
        problem, mode, seed = job
        print(f"[{done}/{len(jobs)}] {problem} {mode} seed {seed}: fes_t={r.fes_t} "
              f"acc_u={r.acc_u:.2e} stop={r.stop_reason} ({status}, "
              f"total {(time.time() - t0) / 60:.1f} min)", flush=True)

    for done, job in enumerate(cached, 1):
        report(done, job, record_for(*job), "cache")
    records = execute_runs(tasks, jobs=os.cpu_count() or 1)
    for done, (job, r) in enumerate(zip(todo, records), len(cached) + 1):
        _store(_cache_path(*job), r)
        report(done, job, r, "run")


if __name__ == "__main__":
    sys.exit(main())

"""Baseline vs ranking-gated search on SMD1.

Runs the nested baseline and the ranking-gated variant on SMD1 for a few
seeds each and prints the comparison row the experiment harness would emit:
median accuracies, median FE counts, and the resource-saving rate.

Takes a minute or two on one core.  For the full multi-instance experiment
use the CLI (``python3 -m crblea.cli compare ...``) or the cached corpus
runner (``python3 tests/_corpus.py``).

Run:  python3 demos/smd1_comparison.py
"""

import json

from crblea import HarnessConfig
from crblea.cli import compare_records, execute_runs

RUNS = 3


def main():
    base = HarnessConfig(problem="smd1", mode="nested", upper=20)
    variant = HarnessConfig(problem="smd1", mode="cr", upper=20)

    print(f"running {RUNS} seeded runs per mode on smd1 (this takes a minute)...")
    nested = list(execute_runs([(base, seed) for seed in range(RUNS)]))
    for r in nested:
        print(f"  nested seed {r.seed}: FEs_t={r.fes_t}  acc_u={r.acc_u:.1e}")
    gated = list(execute_runs([(variant, seed) for seed in range(RUNS)]))
    for r in gated:
        print(f"  cr     seed {r.seed}: FEs_t={r.fes_t}  acc_u={r.acc_u:.1e}  "
              f"trainings={r.trainings_done}  resamples={r.resamplings}")

    row = compare_records(nested, gated)
    print("\ncomparison row:")
    print(json.dumps(row, indent=1, ensure_ascii=False))
    print(f"\nresource-saving rate: {row['r_rs_percent']:.1f}% "
          f"(accuracy mark: {row['mark_acc_u']})")


if __name__ == "__main__":
    main()

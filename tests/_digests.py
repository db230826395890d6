"""Print the sha1 of 130 seeded run records of the checkout this file sits in.

The records are the seed-0 protocol runs of every registered problem in the
"nested" and "cr" modes (26), and short runs of every problem in all four
modes at seeds 1 and 2 (104), the protocol with ``fes_u_max`` 150 and
``fes_l_max`` 120.  Each line reads ``problem mode seed run sha1``, where
run is "protocol" or "short" and the sha1 is ``_corpus.record_sha1`` of the
record.  A change meant to keep every record prints the same lines before
and after.  ``tests/_digests.txt`` holds the lines of the committed records;
``--check`` prints the lines of this checkout, then names each one that
differs from that file and exits 1 if any does:

    python3 tests/_digests.py --check
    python3 tests/_digests.py > tests/_digests.txt   # after a change meant to move records

The runs go to every core and take about 80 s on 2 cores (130 s on one).
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from crblea import TerminationRule  # noqa: E402
from crblea.cli import execute_runs  # noqa: E402
from crblea.config import MODES  # noqa: E402
from crblea.problems import problem_names  # noqa: E402
from _corpus import protocol_config, record_sha1  # noqa: E402

SHORT = TerminationRule(fes_u_max=150, fes_l_max=120)
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_digests.txt")


def runs():
    """(label, config, seed) of every record, in print order."""
    for problem in problem_names():
        for mode in ("nested", "cr"):
            yield "protocol", protocol_config(problem, mode), 0
    for problem in problem_names():
        for mode in MODES:
            for seed in (1, 2):
                yield "short", replace(protocol_config(problem, mode), termination=SHORT), seed


def main(argv=None):
    parser = argparse.ArgumentParser(description="sha1 of 130 seeded run records")
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.basename(EXPECTED)}; exit 1 on any difference")
    args = parser.parse_args(argv)
    labelled = list(runs())
    records = execute_runs([(cfg, seed) for _, cfg, seed in labelled], jobs=os.cpu_count() or 1)
    got = []
    for (label, cfg, seed), record in zip(labelled, records):
        got.append(f"{cfg.problem} {cfg.mode} {seed} {label} {record_sha1(record)}")
        print(got[-1], flush=True)
    if not args.check:
        return 0
    with open(EXPECTED) as fh:
        expected = fh.read().splitlines()
    differ = [(want, line) for want, line in zip(expected, got) if want != line]
    for want, line in differ:
        print(f"differs: expected {want!r}, got {line!r}", file=sys.stderr)
    if len(expected) != len(got):
        print(f"differs: expected {len(expected)} lines, got {len(got)}", file=sys.stderr)
    ok = not differ and len(expected) == len(got)
    print(f"{len(got)} records, {'all equal' if ok else f'{len(differ)} differ'}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

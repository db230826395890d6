"""Print the sha1 of 130 seeded run records of the checkout this file sits in.

The records are the seed-0 protocol runs of every registered problem in the
"nested" and "cr" modes (26), and short runs of every problem in all four
modes at seeds 1 and 2 (104), the protocol with ``fes_u_max`` 150 and
``fes_l_max`` 120.  Each line reads ``problem mode seed run sha1``, where
run is "protocol" or "short" and the sha1 is taken as
``tests/test_golden.py`` takes it.  A change meant to keep
every record prints the same lines before and after:

    python3 tests/_digests.py > digests.txt

The protocol runs take several minutes on one core.
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from crblea import TerminationRule  # noqa: E402
from crblea.cli import run_single  # noqa: E402
from crblea.config import MODES  # noqa: E402
from crblea.problems import problem_names  # noqa: E402
from _corpus import protocol_config  # noqa: E402

SHORT = TerminationRule(fes_u_max=150, fes_l_max=120)


def runs():
    """(label, config, seed) of every record, in print order."""
    for problem in problem_names():
        for mode in ("nested", "cr"):
            yield "protocol", protocol_config(problem, mode), 0
    for problem in problem_names():
        for mode in MODES:
            for seed in (1, 2):
                yield "short", replace(protocol_config(problem, mode), termination=SHORT), seed


def main():
    for label, cfg, seed in runs():
        record = run_single(cfg, seed)
        digest = hashlib.sha1(json.dumps(record.to_dict(), sort_keys=True).encode()).hexdigest()
        print(f"{cfg.problem} {cfg.mode} {seed} {label} {digest}", flush=True)


if __name__ == "__main__":
    main()

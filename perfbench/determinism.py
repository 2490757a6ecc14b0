"""Check that the traced run's work counters repeat exactly.

Runs ``run.py --trace 1`` twice per workload at the same seed and compares
every counter of ``spans.COUNTERS`` (integrand points, Newton evaluations,
table knots, builds, calls).  Times are not compared.  Usage, from the root
of a checkout:

    python3 perfbench/determinism.py --seed 1 [--workload pole_oracle ...]

Exits 1 if any counter differs between the two runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from collect import run_once  # noqa: E402
from inputs import GENERATORS  # noqa: E402
from spans import COUNTERS  # noqa: E402


def traced_counters(workload, seed):
    result, _ = run_once(workload, seed, 1, 1)
    return {name: result["metrics"][name] for name in COUNTERS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=sorted(GENERATORS))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload:
        first = traced_counters(workload, args.seed)
        second = traced_counters(workload, args.seed)
        diff = {k: (first[k], second[k]) for k in COUNTERS
                if first[k] != second[k]}
        print(f"{workload}: {len(COUNTERS) - len(diff)}/{len(COUNTERS)} "
              "counters repeat exactly"
              + (f"; differ: {diff}" if diff else ""))
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())

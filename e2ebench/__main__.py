"""``python -m e2ebench run|compare`` from the repository root.

    python -m e2ebench run [--seed N] [--out DIR] [--quick]
    python -m e2ebench compare A/results.json B/results.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from e2ebench.run import bootstrap


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m e2ebench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload, write results.json")
    run.add_argument("--seed", type=int, default=None,
                     help="one seed for every workload (default: each "
                          "workload's own)")
    run.add_argument("--out", type=Path, default=Path("e2ebench-results"),
                     help="results directory (default: e2ebench-results)")
    run.add_argument("--quick", action="store_true",
                     help="one round per workload at about a tenth of the work")
    cmp = sub.add_parser("compare", help="judge B against baseline A")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args()
    bootstrap()
    if args.command == "compare":
        from e2ebench.compare import main as compare_main

        return compare_main(args.a, args.b)
    from e2ebench.suite import report, run_suite

    doc = run_suite(args.seed, args.out, quick=args.quick)
    report(doc)
    print(f"\nresults written to {args.out / 'results.json'}")
    correct = all(res["correct"] for res in doc["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

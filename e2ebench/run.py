"""Run one benchmark workload and print its result as one JSON line.

From the repository root::

    python3 e2ebench/run.py --workload signalling --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: one untimed warm-up
round, then rounds until ``--seconds`` have passed.  ``--trace 1``
runs one plain round and one cProfile round and reports the per-layer
metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is nonzero when a check failed or the repro sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("signalling", "voice", "lifecycle", "served")


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no repro sources under {src}")
    for path in (str(ROOT), str(src)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure rounds for this long (default: 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a profiled round")
    parser.add_argument("--quick", action="store_true",
                        help="one round at about a tenth of the work")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write detailed results (and, with "
                             "--trace 1, the profile) to this directory")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    bootstrap()
    from e2ebench.harness import (measure_layers, peak_rss_mb, run_rounds,
                                  summarize)
    from e2ebench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    scale = workload.quick_scale if args.quick else 1.0
    if args.trace:
        result = measure_layers(workload, seed, scale, warm_up=not args.quick,
                                out_dir=args.out)
        metrics = result["per_layer"]
    else:
        rounds, setups = run_rounds(
            workload, seed, 0.0 if args.quick else args.seconds, scale=scale,
            warm_up=not args.quick)
        result = summarize(workload, seed, rounds, setups, peak_rss_mb())
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"e2e-{workload.name}.json").write_text(
                json.dumps(result, indent=1, sort_keys=True) + "\n")
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in result["end_to_end"].items()}
    for name, held in result["checks"].items():
        if not held:
            print(f"e2ebench: check failed: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

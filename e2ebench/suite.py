"""The full benchmark: every workload, interleaved, plus a traced child
per workload.  ``python -m e2ebench run`` drives this."""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from e2ebench.harness import SETUP_SAMPLES, summarize, time_setups
from e2ebench.layers import unmapped_modules
from e2ebench.run import ROOT, WORKLOAD_NAMES
from e2ebench.workloads import WORKLOADS, Round

#: Measured cycles; each runs every workload once, in WORKLOAD_NAMES
#: order, so a burst of host noise spreads over all workloads instead of
#: hitting one workload's whole run.
CYCLES = 8
RUN_PY = Path(__file__).resolve().parent / "run.py"


def _traced_child(name: str, seed: int, out_dir: Path,
                  quick: bool) -> Dict[str, Any]:
    """Plain + cProfile round of one workload in a fresh process, so its
    peak RSS is its own."""
    cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--trace", "1", "--out", str(out_dir)]
    if quick:
        cmd.append("--quick")
    detail_path = out_dir / f"layers-{name}.json"
    detail_path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if not detail_path.is_file():
        raise RuntimeError(f"traced {name} run wrote no result:\n{proc.stderr}")
    return json.loads(detail_path.read_text())


def run_suite(seed: Optional[int], out_dir: Path,
              quick: bool = False) -> Dict[str, Any]:
    """Run everything; returns the results document (also written to
    ``out_dir/results.json``)."""
    missing = unmapped_modules()
    if missing:
        raise RuntimeError(f"repro modules with no layer in LAYERS: {missing}")
    workloads = [WORKLOADS[name] for name in WORKLOAD_NAMES]
    seeds = {w.name: w.seed if seed is None else seed for w in workloads}
    scales = {w.name: w.quick_scale if quick else 1.0 for w in workloads}
    if not quick:
        for w in workloads:
            w.round(seeds[w.name], scales[w.name])  # untimed warm-up
    rounds: Dict[str, List[Round]] = {w.name: [] for w in workloads}
    setups: Dict[str, List[float]] = {w.name: [] for w in workloads}
    for cycle in range(1 if quick else CYCLES):
        for w in workloads:
            gc.collect()
            rnd = w.round(seeds[w.name], scales[w.name])
            rounds[w.name].append(rnd)
            setups[w.name] += [rnd.setup_s] + time_setups(
                w, seeds[w.name], scales[w.name], 1)
        print(f"cycle {cycle + 1} done", file=sys.stderr)

    out_dir.mkdir(parents=True, exist_ok=True)
    results: Dict[str, Any] = {}
    for w in workloads:
        traced = _traced_child(w.name, seeds[w.name], out_dir, quick)
        setups[w.name] += time_setups(w, seeds[w.name], scales[w.name],
                                      SETUP_SAMPLES - len(setups[w.name]))
        summary = summarize(w, seeds[w.name], rounds[w.name], setups[w.name],
                            traced["peak_rss_mb"])
        summary["per_layer"] = traced["per_layer"]
        summary["top_self_time_s"] = traced["top_self_time_s"]
        summary["checks"].update(
            {f"traced: {k}": v for k, v in traced["checks"].items()})
        summary["correct"] = all(summary["checks"].values())
        results[w.name] = summary
    doc = {"quick": quick, "workloads": results}
    (out_dir / "results.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def report(doc: Dict[str, Any]) -> None:
    """Print every end-to-end metric per workload with its unit."""
    for name, res in doc["workloads"].items():
        print(f"\n{name}: seed {res['seed']}, {res['rounds']} rounds, "
              f"op = {res['op']}")
        ops = f"{res['operations']} ops x {res['rounds']} rounds"
        for metric, m in res["end_to_end"].items():
            n = f"n={m['n']}" if metric in ("setup_s", "peak_rss_mb") else ops
            print(f"  {metric:<18} {m['value']:>12.4f} {m['unit']:<8} "
                  f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  ({n})")
        print(f"  {'call_failure_ratio':<18} {res['call_failure_ratio']:>12.4f} "
              f"({res['calls_failed']}/{res['calls_attempted']} calls)")
        shares = sorted(
            ((m["value"], k.split(".")[0])
             for k, m in res["per_layer"].items() if k.endswith(".self_share")),
            reverse=True,
        )
        print("  layers             "
              + "  ".join(f"{layer} {v:.2f}" for v, layer in shares[:5]))
        fp = res["sim_fingerprint"]
        print(f"  sim_fingerprint    {fp if isinstance(fp, str) else 'DIFFERS'}")
        failed = [k for k, held in res["checks"].items() if not held]
        print(f"  checks             {len(res['checks']) - len(failed)}/"
              f"{len(res['checks'])} passed"
              + ("" if not failed else "; FAILED: " + ", ".join(failed)))

"""``python -m e2ebench compare A.json B.json``: B against baseline A.

One row per workload and end-to-end metric, judged with the bound and
direction from BENCHMARK.json:

* ``unresolved`` -- either side's interquartile range, as a share of
  its value, exceeds the bound, so the runs cannot tell;
* ``worse`` / ``better`` -- B's value moved past the bound;
* ``ok`` -- within the bound.

Behaviour rows follow: the simulation fingerprint, the call failure
ratio and the per-layer counts a speed-only change must not move.  The
exit code is 1 when any metric got worse or any behaviour row changed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from e2ebench.run import ROOT

#: Per-layer counts that only a change of behaviour moves.
INVARIANT_COUNTS = ("net.messages_per_call", "media.frames", "faults.fired",
                    "net.retries", "net.dropped")


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, Tuple[str, float]]:
    """End-to-end metric -> (better, bound) from BENCHMARK.json."""
    doc = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def spread(stat: Dict[str, Any]) -> float:
    """Interquartile range as a share of the value."""
    return (stat["q3"] - stat["q1"]) / abs(stat["value"]) if stat["value"] else 0.0


def _fmt(stat: Dict[str, Any]) -> str:
    return f"{stat['value']:.4g} [{stat['q1']:.4g}, {stat['q3']:.4g}]"


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "ok"


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any],
            bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[str], bool]:
    """Report lines and whether B passes (nothing worse or changed)."""
    lines = [f"{'workload':<11} {'metric':<18} {'A value [q1, q3]':>30} "
             f"{'B value [q1, q3]':>30} {'B/A':>7}  verdict"]
    passed = True
    a_all, b_all = a_doc["workloads"], b_doc["workloads"]
    for name in a_all:
        if name not in b_all:
            lines.append(f"{name:<11} missing from B")
            passed = False
            continue
        a, b = a_all[name], b_all[name]
        for metric, (better, bound) in bounds.items():
            sa, sb = a["end_to_end"][metric], b["end_to_end"][metric]
            v = verdict(sa, sb, better, bound)
            passed = passed and v != "worse"
            lines.append(
                f"{name:<11} {metric:<18} {_fmt(sa):>30} {_fmt(sb):>30} "
                f"{sb['value'] / sa['value']:>7.3f}  {v} "
                f"({better} is better, bound {bound:.0%})"
            )
        same = [("sim_fingerprint", a["sim_fingerprint"], b["sim_fingerprint"]),
                ("call_failure_ratio", a["call_failure_ratio"],
                 b["call_failure_ratio"])]
        same += [(key, a["per_layer"][key]["value"], b["per_layer"][key]["value"])
                 for key in INVARIANT_COUNTS]
        changed = [(key, va, vb) for key, va, vb in same if va != vb]
        passed = passed and not changed
        lines += [f"{name:<11} {key:<18} {va} -> {vb}  CHANGED "
                  "(behaviour changed, not speed)" for key, va, vb in changed]
        if not changed:
            lines.append(f"{name:<11} behaviour unchanged (fingerprint, "
                         "call failures, invariant counts)")
    return lines, passed


def main(a_path: Path, b_path: Path) -> int:
    a_doc = json.loads(a_path.read_text())
    b_doc = json.loads(b_path.read_text())
    lines, passed = compare(a_doc, b_doc, load_bounds())
    print("\n".join(lines))
    print("PASS: nothing got worse" if passed
          else "FAIL: a metric got worse or behaviour changed")
    return 0 if passed else 1

"""Exporters: JSONL traces, span trees, and mergeable metric snapshots.

The JSONL trace format is one JSON object per line:

* ``{"type": "run", ...}`` — one header per exported simulator;
* ``{"type": "span", "span": 3, "parent": 1, ...}`` — every span, in
  open order, before the events;
* ``{"type": "event", "span": 3, ...}`` — every trace entry in
  recording order, tagged with the span it was attached to (or
  ``null``).

Metric snapshots (:meth:`repro.sim.metrics.MetricsRegistry.snapshot`)
are plain dicts so sweep workers can ship them across process
boundaries; :func:`merge_snapshots` folds any number of them into one
aggregate, deterministic for a fixed input order (counters sum, gauge
integrals sum, histogram moments pool; float sums can differ in the
last bit when the order changes).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union


# ----------------------------------------------------------------------
# JSONL trace export
# ----------------------------------------------------------------------
def _dumps(obj: Any) -> str:
    # Rich info values (IMSI, E164Number, IPv4Address) stringify.
    return json.dumps(obj, default=str, sort_keys=True)


def export_trace_jsonl(
    sim: Any,
    out: Union[str, IO[str]],
    run: str = "main",
    append: bool = False,
) -> int:
    """Write *sim*'s spans and trace entries to *out* (path or stream).

    Returns the number of lines written.  Pass ``append=True`` (with a
    path) to concatenate several runs into one file; each starts with
    its own ``run`` header line.
    """
    if isinstance(out, str):
        with open(out, "a" if append else "w", encoding="utf-8") as fh:
            return export_trace_jsonl(sim, fh, run=run)
    spans = sim.spans.spans
    trace = sim.trace
    lines = 0
    header = {
        "type": "run",
        "run": run,
        "sim_time": sim.now,
        "n_spans": len(spans),
        "n_entries": len(trace.entries),
        "entries_dropped": trace.dropped,
        "spans_dropped": sim.spans.dropped,
    }
    out.write(_dumps(header) + "\n")
    lines += 1
    entry_span: Dict[int, int] = {}
    for span in spans:
        record = span.to_dict()
        record["type"] = "span"
        record["run"] = run
        out.write(_dumps(record) + "\n")
        lines += 1
        for entry in span.entries:
            entry_span[id(entry)] = span.span_id
    for index, entry in enumerate(trace.entries):
        record = entry.to_dict()
        record["type"] = "event"
        record["run"] = run
        record["seq"] = index
        record["span"] = entry_span.get(id(entry))
        out.write(_dumps(record) + "\n")
        lines += 1
    return lines


def render_span_tree(sim: Any, max_entries_per_span: int = 40) -> str:
    """Human-readable per-call tree: spans indented by parentage, trace
    entries as leaves — the Figures 4-6 steps grouped by procedure."""
    spans = sim.spans.spans
    children: Dict[Optional[int], List[Any]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    lines: List[str] = []

    def emit(span: Any, depth: int) -> None:
        pad = "  " * depth
        keys = " ".join(f"{k}={v}" for k, v in sorted(span.keys.items()))
        end = f"{span.end:.3f}" if span.end is not None else "open"
        status = span.status or "open"
        lines.append(
            f"{pad}[{span.name} #{span.span_id}] {keys} "
            f"{span.start:.3f}s..{end} {status} ({len(span.entries)} events)"
        )
        shown = span.entries[:max_entries_per_span]
        for entry in shown:
            if entry.kind == "msg":
                lines.append(
                    f"{pad}  {entry.time:.4f} {entry.message} "
                    f"{entry.src} -> {entry.dst}"
                )
            else:
                lines.append(f"{pad}  {entry.time:.4f} ({entry.message})")
        if len(span.entries) > len(shown):
            lines.append(f"{pad}  ... {len(span.entries) - len(shown)} more")
        for child in children.get(span.span_id, ()):
            emit(child, depth + 1)

    orphans = [s for s in spans if s.parent_id is not None
               and all(p.span_id != s.parent_id for p in spans)]
    for root in children.get(None, []) + orphans:
        emit(root, 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Metric snapshots
# ----------------------------------------------------------------------
def _merge_gauges(
    summaries: List[Tuple[Dict[str, float], float]]
) -> Dict[str, float]:
    total_integral = sum(s["integral"] for s, _ in summaries)
    total_time = sum(t for _, t in summaries)
    return {
        "value": sum(s["value"] for s, _ in summaries),
        "peak": max(s["peak"] for s, _ in summaries),
        "integral": total_integral,
        # Merged time-average weights each source by its own duration.
        "time_average": total_integral / total_time if total_time > 0 else 0.0,
    }


def _merge_histograms(summaries: List[Dict[str, float]]) -> Dict[str, float]:
    total = sum(int(s["count"]) for s in summaries)
    if total == 0:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "stdev": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    populated = [s for s in summaries if s["count"]]
    mean = sum(s["mean"] * s["count"] for s in populated) / total
    # Pool the variance from per-source (n, mean, sample stdev).
    sum_sq = 0.0
    for s in populated:
        n = int(s["count"])
        var = s["stdev"] ** 2
        sum_sq += (n - 1) * var + n * s["mean"] ** 2
    stdev = math.sqrt(max(0.0, (sum_sq - total * mean**2) / (total - 1))) if total > 1 else 0.0
    merged = {
        "count": total,
        "mean": mean,
        "min": min(s["min"] for s in populated),
        "max": max(s["max"] for s in populated),
        "stdev": stdev,
    }
    # Quantiles of pooled raw samples are gone; a count-weighted average
    # of per-source quantiles is the standard deterministic estimate.
    for q in ("p50", "p95", "p99"):
        merged[q] = sum(s[q] * s["count"] for s in populated) / total
    return merged


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold snapshots into one aggregate, deterministic for a fixed
    input order.

    Counters and gauge integrals sum; gauge peaks take the max; merged
    gauge time-averages re-divide total integral by total simulated
    time; histogram count/mean/min/max/stdev pool exactly, while merged
    quantiles are count-weighted averages of the per-source quantiles
    (an estimate — the raw samples are not shipped between processes).
    """
    snapshots = list(snapshots)
    merged: Dict[str, Any] = {
        "sim_time": sum(s["sim_time"] for s in snapshots),
        "sources": len(snapshots),
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    counter_names = sorted({n for s in snapshots for n in s["counters"]})
    for name in counter_names:
        merged["counters"][name] = sum(
            s["counters"].get(name, 0) for s in snapshots
        )
    gauge_names = sorted({n for s in snapshots for n in s["gauges"]})
    for name in gauge_names:
        merged["gauges"][name] = _merge_gauges(
            [(s["gauges"][name], s["sim_time"])
             for s in snapshots if name in s["gauges"]]
        )
    histogram_names = sorted({n for s in snapshots for n in s["histograms"]})
    for name in histogram_names:
        merged["histograms"][name] = _merge_histograms(
            [s["histograms"][name] for s in snapshots if name in s["histograms"]]
        )
    return merged

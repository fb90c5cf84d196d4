"""Prometheus text-exposition rendering of metric snapshots.

The registry renders in the standard text format both as a *final
snapshot* (diffable across runs, loadable by any Prometheus tooling)
and as a *live scrape target*: ``python -m repro serve`` publishes
registry snapshots each pacing slice and its ``/metrics`` endpoint
renders the latest one from the scrape thread (see
:mod:`repro.serve`)::

    # HELP repro_msgs_tx_VMSC Simulation counter msgs.tx.VMSC.
    # TYPE repro_msgs_tx_VMSC counter
    repro_msgs_tx_VMSC 42
    # HELP repro_SGSN_contexts Simulation gauge SGSN.contexts.
    # TYPE repro_SGSN_contexts gauge
    repro_SGSN_contexts 1
    # HELP repro_TERM1_mouth_to_ear Simulation histogram TERM1.mouth_to_ear.
    # TYPE repro_TERM1_mouth_to_ear summary
    repro_TERM1_mouth_to_ear{quantile="0.5"} 0.0801

Counters map to ``counter`` series, gauges to a ``gauge`` plus
``_time_avg``/``_peak`` companions (the time-weighted view is the whole
point of :class:`~repro.sim.metrics.Gauge`), histograms to ``summary``
series with ``quantile`` labels, plus ``_sum``/``_count`` companions
with their own ``HELP``/``TYPE`` headers.  Every emitted series carries
a ``# HELP`` line and a ``# TYPE`` line, as the exposition-format spec
expects, and output stays byte-stable for equal snapshots.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Dict, List, Tuple, Union

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: snapshot histogram key -> Prometheus quantile label
_QUANTILES = (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"))


def sanitize_name(name: str, prefix: str = "repro_") -> str:
    """Map a dotted metric name onto the Prometheus grammar."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return prefix + cleaned


def _fmt(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _escape_help(text: str) -> str:
    """HELP-line escaping per the exposition format: backslash and
    newline are the only escaped characters."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


@lru_cache(maxsize=1 << 14)
def _stems(name: str, prefix: str, kind: str) -> Tuple[str, ...]:
    """Everything before the value on each sample line of one metric
    family, its ``# HELP``/``# TYPE`` headers included.  Metric names do
    not change between scrapes, so each family's name is sanitized and
    its headers rendered once per process (bounded by the cache size).
    *kind* is ``counter``, ``gauge``, ``summary`` or ``clock`` (the
    run's final ``sim_time``)."""
    series = sanitize_name(name, prefix)

    def head(family: str, type_: str, help_text: str) -> str:
        return (f"# HELP {family} {_escape_help(help_text)}\n"
                f"# TYPE {family} {type_}\n{family}")

    if kind == "counter":
        return (head(series, "counter", f"Simulation counter {name}."),)
    if kind == "gauge":
        return (
            head(series, "gauge", f"Simulation gauge {name}."),
            head(f"{series}_time_avg", "gauge",
                 f"Time-weighted average of {name} over the run."),
            head(f"{series}_peak", "gauge", f"Peak value of {name} over the run."),
        )
    if kind == "summary":
        quantiles = [f'{{quantile="{label}"}}' for _, label in _QUANTILES]
        return (
            head(series, "summary", f"Simulation histogram {name}.") + quantiles[0],
            *(series + q for q in quantiles[1:]),
            head(f"{series}_sum", "counter", f"Sum of observed values of {name}."),
            head(f"{series}_count", "counter", f"Number of observations of {name}."),
        )
    return (head(series, "gauge", "Final simulated clock of the run, seconds."),)


def render_prometheus(source: Any, prefix: str = "repro_") -> str:
    """Render a metrics snapshot (or a live ``MetricsRegistry``) as
    Prometheus text exposition format.  Series are emitted in sorted
    name order, so equal metrics render byte-identically.

    Safe to call from a scrape thread against an in-progress run: a
    live registry is snapshot-copied before any line is rendered
    (:meth:`~repro.sim.metrics.MetricsRegistry.snapshot` copies each
    metric family atomically and never mutates gauge state), so the
    render never iterates a dict the simulation thread is growing."""
    # Snapshot-copy before render: after this call everything below
    # works on plain data owned by this thread alone.
    if hasattr(source, "snapshot"):
        source = source.snapshot()
    return render_snapshot(source, prefix)


def render_snapshot(snapshot: Dict[str, Any], prefix: str = "repro_") -> str:
    """:func:`render_prometheus` for a plain snapshot dict only — what
    the serve scrape thread renders, so it never reaches a live
    registry."""
    lines: List[str] = []
    for name, value in snapshot["counters"].items():
        (stem,) = _stems(name, prefix, "counter")
        lines.append(f"{stem} {_fmt(value)}")
    for name, summary in snapshot["gauges"].items():
        values = (summary["value"], summary["time_average"], summary["peak"])
        for stem, value in zip(_stems(name, prefix, "gauge"), values):
            lines.append(f"{stem} {_fmt(value)}")
    for name, summary in snapshot["histograms"].items():
        values = [summary[key] for key, _ in _QUANTILES] + [
            summary["mean"] * summary["count"],
            int(summary["count"]),
        ]
        for stem, value in zip(_stems(name, prefix, "summary"), values):
            lines.append(f"{stem} {_fmt(value)}")
    (stem,) = _stems("sim_time", prefix, "clock")
    lines.append(f"{stem} {_fmt(snapshot['sim_time'])}")
    return "\n".join(lines) + "\n"

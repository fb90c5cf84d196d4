"""End-to-end observability for simulation runs.

Layers on the :mod:`repro.sim` primitives (``TraceRecorder``,
``MetricsRegistry``):

* :mod:`repro.obs.spans` — correlated per-procedure spans keyed by
  IMSI/call-ref, attached to every trace entry;
* :mod:`repro.obs.profiler` — the ``--profile`` report: a cProfile run
  split into per-package self-time shares and the top functions;
* :mod:`repro.obs.heartbeat` — periodic progress lines for soak runs;
* :mod:`repro.obs.export` — JSONL traces, span trees, snapshot merging;
* :mod:`repro.obs.prom` — Prometheus text-format metric snapshots;
* :mod:`repro.obs.series` — sim-time-bucketed time series with bounded
  memory and deterministic cross-worker merging;
* :mod:`repro.obs.hops` — per-link latency attribution and per-procedure
  latency waterfalls over the Figure-3 protocol stack;
* :mod:`repro.obs.timeline` — Chrome-trace-event/Perfetto export of
  spans and link hops;
* :mod:`repro.obs.slo` — declarative rules evaluated over series
  windows: sticky ``--slo`` verdicts and the live ``--alert``
  pending/firing/resolved lifecycle, both on one watchdog that folds
  each bucket once;
* :mod:`repro.obs.recorder` — always-on bounded flight recorder,
  incident bundle capture and merging;
* :mod:`repro.obs.analyze` — ``python -m repro analyze``: post-mortem
  blast-radius reports over incident bundles;
* :mod:`repro.obs.session` — the flag plumbing both command lines
  share (one flag table, one ``@FILE`` reader, one session constructor):
  one :class:`WatchedRun` record per simulator, shipped as plain data by
  sweep workers.

Nothing here imports :mod:`repro.sim.kernel` (the kernel imports the
span tracker), so the dependency arrow stays one-way.
"""

from repro.obs.export import (
    export_trace_jsonl,
    merge_snapshots,
    render_span_tree,
)
from repro.obs.heartbeat import Heartbeat
from repro.obs.hops import HopRecorder, HopSegment, render_bar, render_waterfall
from repro.obs.profiler import render_profile
from repro.obs.prom import render_prometheus, sanitize_name
from repro.obs.recorder import (
    FlightRecorder,
    is_incident,
    merge_incidents,
    plain_value,
)
from repro.obs.series import SeriesSampler, merge_series
from repro.obs.session import ObsSession, WatchedRun
from repro.obs.slo import (
    SloError,
    SloRule,
    SloWatchdog,
    evaluate_series,
    parse_slo_rules,
    render_slo_report,
)
from repro.obs.spans import CORRELATION_FIELDS, Span, SpanTracker
from repro.obs.timeline import export_runs_timeline

__all__ = [
    "CORRELATION_FIELDS",
    "FlightRecorder",
    "Heartbeat",
    "HopRecorder",
    "HopSegment",
    "ObsSession",
    "SeriesSampler",
    "SloError",
    "SloRule",
    "SloWatchdog",
    "Span",
    "SpanTracker",
    "WatchedRun",
    "evaluate_series",
    "export_runs_timeline",
    "export_trace_jsonl",
    "is_incident",
    "merge_incidents",
    "merge_series",
    "merge_snapshots",
    "parse_slo_rules",
    "plain_value",
    "render_bar",
    "render_profile",
    "render_prometheus",
    "render_slo_report",
    "render_span_tree",
    "render_waterfall",
    "sanitize_name",
]

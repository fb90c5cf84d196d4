"""Chrome-trace-event timeline export.

Serialises a run's correlated spans (:mod:`repro.obs.spans`) and per-hop
link segments (:mod:`repro.obs.hops`) into the Trace Event Format that
``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_ load
directly, so a registration or tromboned call can be *seen* as a
timeline instead of read as a trace listing.

Mapping:

* every procedure span becomes an async ``"b"``/``"e"`` pair (grouped by
  ``id`` = span id), nested spans draw nested;
* every hop segment becomes a complete ``"X"`` slice on a per-interface
  track, so the Figure-3 links appear as parallel swim-lanes;
* sim-time seconds map to trace-event microseconds, keeping the numbers
  integral for typical millisecond-scale link latencies.

Output is deterministic: events are emitted in span-open order followed
by hop-record order, and written with sorted keys, so a seeded run
exports a byte-stable timeline.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.hops import FIGURE3_LINK_ORDER, HopRecorder, _link_sort_key

#: Process ids used in the exported trace: one lane group for
#: procedures, one for the Figure-3 links.
SPAN_PID = 1
LINK_PID = 2


def _us(t: float) -> float:
    """Sim-time seconds -> trace-event microseconds."""
    return round(t * 1e6, 3)


def timeline_events(
    sim: Any,
    hops: Optional[HopRecorder] = None,
    pid_base: int = 0,
    label: str = "",
) -> List[Dict[str, Any]]:
    """Trace-event dicts for *sim*'s spans plus *hops*' segments.

    ``pid_base``/``label`` namespace the lanes so several runs (e.g. the
    tromboning demo's classic-GSM and vGPRS networks) can share one
    timeline file without colliding."""
    span_pid = pid_base + SPAN_PID
    link_pid = pid_base + LINK_PID
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": span_pid, "tid": 0, "name": "process_name",
         "args": {"name": f"{label}procedures"}},
        {"ph": "M", "pid": link_pid, "tid": 0, "name": "process_name",
         "args": {"name": f"{label}links"}},
    ]
    for span in sim.spans.spans:
        end = span.end if span.end is not None else sim.now
        args: Dict[str, Any] = {"span": span.span_id}
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        if span.status is not None:
            args["status"] = span.status
        for field in sorted(span.keys):
            args[field] = span.keys[field]
        events.append({
            "ph": "b", "cat": "span", "name": span.name,
            "id": span.span_id, "pid": span_pid, "tid": 1,
            "ts": _us(span.start), "args": args,
        })
        events.append({
            "ph": "e", "cat": "span", "name": span.name,
            "id": span.span_id, "pid": span_pid, "tid": 1,
            "ts": _us(end), "args": {},
        })
    if hops is not None:
        # One thread lane per interface, in Figure-3 stack order.
        interfaces = sorted(
            {seg.interface for seg in hops.segments}, key=_link_sort_key
        )
        tids = {iface: i + 1 for i, iface in enumerate(interfaces)}
        for iface in interfaces:
            events.append({
                "ph": "M", "pid": link_pid, "tid": tids[iface],
                "name": "thread_name", "args": {"name": f"link {iface}"},
            })
        for seg in hops.segments:
            events.append({
                "ph": "X", "cat": "hop", "name": seg.message,
                "pid": link_pid, "tid": tids[seg.interface],
                "ts": _us(seg.start),
                "dur": _us(seg.end) - _us(seg.start),
                "args": {"src": seg.src, "dst": seg.dst,
                         "interface": seg.interface},
            })
    return events


def _document(events: List[Dict[str, Any]], sim_time: float) -> Dict[str, Any]:
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro vGPRS simulator",
            "sim_time_s": sim_time,
            "clock": "simulated (1 us = 1e-6 sim seconds)",
            "link_order": list(FIGURE3_LINK_ORDER),
        },
    }


def _write(doc: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def export_runs_timeline(
    runs: List[Any],
    path: Optional[str] = None,
) -> Dict[str, Any]:
    """Build (and optionally write) one Chrome-trace document covering
    ``(run_name, sim)`` pairs.  With several runs each run's lanes get
    their own pid range and a name prefix.  Uses whatever hop recorder
    hangs off each simulator (``sim.hops``).

    The returned dict is the JSON-object flavour of the format —
    ``{"traceEvents": [...], ...}`` — which both ``chrome://tracing``
    and Perfetto accept; extra top-level keys are ignored by viewers.
    """
    events: List[Dict[str, Any]] = []
    sim_time = 0.0
    many = len(runs) > 1
    for idx, (run, sim) in enumerate(runs):
        events.extend(timeline_events(
            sim,
            getattr(sim, "hops", None),
            pid_base=idx * 2,
            label=f"{run}: " if many else "",
        ))
        sim_time = max(sim_time, sim.now)
    doc = _document(events, sim_time)
    if path is not None:
        _write(doc, path)
    return doc

"""``python -m repro analyze`` — post-mortem blast-radius analysis.

Consumes the incident bundles the always-on flight recorder
(:mod:`repro.obs.recorder`) captured around faults, alert trips and
nonzero exits, and joins the three timelines a bundle carries — fault
events, alert transitions and call spans — on simulated time and the
span correlation keys (IMSI, call ref, link label).  The output is a
*blast-radius report* per incident:

* the fault intervals reconstructed from the ``FAULTS`` trace notes
  (down/up, crash/restart, impair on/off pairs);
* the alert lifecycle transitions that fell inside the window;
* an ASCII incident timeline (faults, alerts, affected calls) drawn
  with the same bar primitive as the PR-4 latency waterfalls;
* a per-fault affected-call table classifying every call whose span
  overlapped a fault interval: ``completed`` / ``blocked`` /
  ``pstn-fallback`` / ``retried``, with setup-delay deltas against the
  pre-fault baseline of the same bundle;
* the recovery (MTTR) histograms — every ``fault.mttr.*`` family in the
  bundle's metrics snapshot.

Everything is computed from the bundle alone: no simulator, no RNG, no
repo state, so analysis of a checked-in bundle is reproducible anywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.hops import render_bar
from repro.obs.recorder import is_incident
from repro.obs.spans import CORRELATION_FIELDS

__all__ = [
    "AnalyzeError",
    "analyze_bundle",
    "fault_intervals",
    "load_bundles",
    "render_report",
    "main",
]

#: Call-span close statuses that count as the call failing outright.
BAD_STATUSES = frozenset({"rejected", "dropped", "failed", "aborted"})

#: FAULTS notes opening a fault interval -> (element kind, info field).
_OPENERS = {
    "FAULT_LINK_DOWN": ("link", "link"),
    "FAULT_NODE_CRASH": ("node", "name"),
    "FAULT_IMPAIR_ON": ("impair", "link"),
}

#: FAULTS notes closing a fault interval -> (element kind, info field).
_CLOSERS = {
    "FAULT_LINK_UP": ("link", "link"),
    "FAULT_NODE_RESTART": ("node", "name"),
    "FAULT_IMPAIR_OFF": ("impair", "link"),
}

_TIMELINE_WIDTH = 40


class AnalyzeError(Exception):
    """A bundle path could not be loaded or is not an incident bundle."""


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_bundles(paths: List[str]) -> List[Dict[str, Any]]:
    """Load incident bundles from files and/or directories (directories
    contribute their ``incident-*.json`` files in name order, which is
    capture order by construction)."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            names = sorted(
                n for n in os.listdir(path)
                if n.startswith("incident-") and n.endswith(".json")
            )
            if not names:
                raise AnalyzeError(f"no incident-*.json bundles in {path!r}")
            files.extend(os.path.join(path, n) for n in names)
        elif os.path.exists(path):
            files.append(path)
        else:
            raise AnalyzeError(f"no such bundle file or directory: {path!r}")
    bundles: List[Dict[str, Any]] = []
    for file in files:
        try:
            with open(file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise AnalyzeError(f"cannot load bundle {file!r}: {exc}") from exc
        if not is_incident(doc):
            raise AnalyzeError(
                f"{file!r} is not an incident bundle (missing "
                "incident/triggers/window/entries)"
            )
        bundles.append(doc)
    return bundles


# ----------------------------------------------------------------------
# Fault intervals
# ----------------------------------------------------------------------
def fault_intervals(bundle: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Reconstruct fault intervals from the bundle's ``FAULTS`` notes.

    Down/up (crash/restart, impair on/off) pairs are matched per
    element label; a recovery with no recorded onset started before the
    window (interval opens at ``window.from``), an onset with no
    recovery is still open at the window's end (``open: true``)."""
    window = bundle["window"]
    intervals: List[Dict[str, Any]] = []
    open_by: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for entry in bundle["entries"]:
        if entry["kind"] != "note" or entry["src"] != "FAULTS":
            continue
        message = entry["message"]
        info = entry.get("info") or {}
        if message in _OPENERS:
            kind, field = _OPENERS[message]
            label = str(info.get(field, "?"))
            interval = {
                "kind": kind,
                "label": label,
                "start": float(entry["t"]),
                "end": None,
                "open": True,
            }
            intervals.append(interval)
            open_by.setdefault((kind, label), []).append(interval)
        elif message in _CLOSERS:
            kind, field = _CLOSERS[message]
            label = str(info.get(field, "?"))
            pending = open_by.get((kind, label))
            if pending:
                interval = pending.pop()
                interval["end"] = float(entry["t"])
                interval["open"] = False
            else:
                intervals.append({
                    "kind": kind,
                    "label": label,
                    "start": float(window["from"]),
                    "end": float(entry["t"]),
                    "open": False,
                })
    for interval in intervals:
        if interval["end"] is None:
            interval["end"] = float(window["until"])
    intervals.sort(key=lambda iv: (iv["start"], iv["label"]))
    return intervals


# ----------------------------------------------------------------------
# Call table
# ----------------------------------------------------------------------
def _call_spans(bundle: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every ``call`` span the bundle knows about, deduplicated by
    ``(span_id, start)`` with closures winning over the open-span
    snapshot (a span may appear in both when it closed inside the post
    window)."""
    calls: Dict[Tuple[int, float], Dict[str, Any]] = {}
    for span in bundle["span_closures"]:
        if span["name"] == "call":
            calls[(int(span["span"]), float(span["start"]))] = span
    for span in bundle["open_spans"]:
        if span["name"] == "call":
            calls.setdefault((int(span["span"]), float(span["start"])), span)
    return [calls[key] for key in sorted(calls)]


def _setup_delays(bundle: Dict[str, Any]) -> Dict[int, float]:
    """Parent call span id -> duration of its closed ``setup`` child."""
    delays: Dict[int, float] = {}
    for span in list(bundle["span_closures"]) + list(bundle["open_spans"]):
        if (span["name"] == "setup" and span.get("parent") is not None
                and span.get("end") is not None):
            delays[int(span["parent"])] = (
                float(span["end"]) - float(span["start"])
            )
    return delays


def _entries_for_call(
    call: Dict[str, Any],
    entries: List[Dict[str, Any]],
    until: float,
) -> List[Dict[str, Any]]:
    """Window entries correlated to *call* by any span key, restricted
    to the call's own interval (string comparison: bundle info values
    were stringified at capture and span keys are normalised strings)."""
    keys = call.get("keys") or {}
    start = float(call["start"])
    end = float(call["end"]) if call.get("end") is not None else until
    matched: List[Dict[str, Any]] = []
    for entry in entries:
        t = float(entry["t"])
        if t < start or t > end:
            continue
        info = entry.get("info") or {}
        for field in CORRELATION_FIELDS:
            value = info.get(field)
            if value is not None and keys.get(field) == str(value):
                matched.append(entry)
                break
    return matched


def _classify(
    call: Dict[str, Any], matched: List[Dict[str, Any]]
) -> Tuple[str, str]:
    """(mode, evidence) for one call: how the fault degraded it.

    Precedence: an explicit PSTN reroute beats a failure verdict beats
    retry evidence beats a clean completion."""
    notes = {e["message"] for e in matched if e["kind"] == "note"}
    if "PSTN_FALLBACK" in notes:
        return "pstn-fallback", "PSTN_FALLBACK note"
    if "ADMISSION_TIMEOUT" in notes:
        return "blocked", "ADMISSION_TIMEOUT note"
    status = call.get("status")
    if status in BAD_STATUSES:
        return "blocked", f"span status {status!r}"
    seen: Dict[Tuple[str, str, str], int] = {}
    for entry in matched:
        if entry["kind"] != "msg":
            continue
        triple = (entry["message"], entry["src"], entry["dst"])
        seen[triple] = seen.get(triple, 0) + 1
    repeats = [t for t, n in seen.items() if n > 1]
    if repeats:
        name = max(repeats, key=lambda t: seen[t])
        return "retried", f"{name[0]} x{seen[name]} {name[1]}->{name[2]}"
    if status == "ok":
        return "completed", "span status 'ok'"
    return "open", "span still open at capture"


def _overlaps(
    start: float, end: float, intervals: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    return [
        iv for iv in intervals
        if start <= float(iv["end"]) and end >= float(iv["start"])
    ]


# ----------------------------------------------------------------------
# Per-bundle analysis
# ----------------------------------------------------------------------
def analyze_bundle(bundle: Dict[str, Any]) -> Dict[str, Any]:
    """Join faults, alerts and calls into one plain-data analysis dict
    (the :func:`render_report` input; also handy for tests)."""
    window = bundle["window"]
    until = float(window["until"])
    faults = fault_intervals(bundle)
    entries = list(bundle["entries"])
    setup_delays = _setup_delays(bundle)

    first_fault = min(
        (float(iv["start"]) for iv in faults), default=None
    )
    calls: List[Dict[str, Any]] = []
    baseline_samples: List[float] = []
    for span in _call_spans(bundle):
        start = float(span["start"])
        end = float(span["end"]) if span.get("end") is not None else until
        matched = _entries_for_call(span, entries, until)
        mode, evidence = _classify(span, matched)
        hit = _overlaps(start, end, faults)
        setup = setup_delays.get(int(span["span"]))
        if (setup is not None and first_fault is not None
                and end < first_fault):
            baseline_samples.append(setup)
        calls.append({
            "span": int(span["span"]),
            "keys": dict(span.get("keys") or {}),
            "attrs": dict(span.get("attrs") or {}),
            "start": start,
            "end": end,
            "open": span.get("end") is None,
            "mode": mode,
            "evidence": evidence,
            "faults": [iv["label"] for iv in hit],
            "affected": bool(hit),
            "setup_delay": setup,
        })
    baseline = (
        sum(baseline_samples) / len(baseline_samples)
        if baseline_samples else None
    )
    for call in calls:
        delay = call["setup_delay"]
        call["setup_delta"] = (
            delay - baseline
            if delay is not None and baseline is not None else None
        )

    metrics = bundle.get("metrics") or {}
    histograms = metrics.get("histograms") or {}
    mttr = {
        name: summary
        for name, summary in sorted(histograms.items())
        if name.startswith("fault.mttr.")
    }
    return {
        "incident": bundle["incident"],
        "run": bundle.get("run", "?"),
        "window": dict(window),
        "triggers": list(bundle["triggers"]),
        "faults": faults,
        "alerts": list(bundle.get("alerts") or []),
        "calls": calls,
        "affected": [c for c in calls if c["affected"]],
        "setup_baseline": baseline,
        "baseline_calls": len(baseline_samples),
        "mttr": mttr,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _call_label(call: Dict[str, Any]) -> str:
    keys = call["keys"]
    for field in ("imsi", "call_ref", "alias", "ti"):
        if field in keys:
            return f"{field}={keys[field]}"
    return f"span#{call['span']}"


def _alert_intervals(
    alerts: List[Dict[str, Any]], until: float
) -> List[Dict[str, Any]]:
    """One interval per alert name, from its first departure from ``ok``
    to its resolution (or the window's end while still firing)."""
    spans: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for transition in alerts:
        name = str(transition.get("alert", "?"))
        t = float(transition["t"])
        to = transition.get("to")
        if name not in spans:
            spans[name] = {"label": name, "start": t, "end": None}
            order.append(name)
        if to in ("resolved", "ok"):
            spans[name]["end"] = t
        elif spans[name]["end"] is not None:
            # Re-trip after a resolve: stretch the interval.
            spans[name]["end"] = None
    out = []
    for name in order:
        interval = spans[name]
        if interval["end"] is None:
            interval["end"] = until
        out.append(interval)
    return out


def _timeline(analysis: Dict[str, Any], width: int = _TIMELINE_WIDTH) -> List[str]:
    window = analysis["window"]
    t0, t1 = float(window["from"]), float(window["until"])
    extent = max(t1 - t0, 1e-9)

    rows: List[Tuple[str, float, float]] = []
    for fault in analysis["faults"]:
        rows.append((
            f"fault {fault['kind']} {fault['label']}",
            float(fault["start"]), float(fault["end"]),
        ))
    for alert in _alert_intervals(analysis["alerts"], t1):
        rows.append((
            f"alert {alert['label']}",
            float(alert["start"]), float(alert["end"]),
        ))
    for call in analysis["affected"]:
        rows.append((
            f"call  {_call_label(call)} [{call['mode']}]",
            call["start"], call["end"],
        ))
    if not rows:
        return ["  (nothing to draw)"]
    name_w = max(len(name) for name, _, _ in rows)
    lines = []
    for name, start, end in rows:
        offset = (max(start, t0) - t0) / extent
        share = (min(end, t1) - max(start, t0)) / extent
        bar = render_bar(max(share, 0.0), width, offset=offset)
        lines.append(
            f"  {name:<{name_w}}  {bar}  {start:7.3f} .. {end:7.3f} s"
        )
    return lines


def render_report(analysis: Dict[str, Any]) -> str:
    """Human-readable blast-radius report for one analyzed bundle."""
    window = analysis["window"]
    t0, t1 = float(window["from"]), float(window["until"])
    first = analysis["triggers"][0] if analysis["triggers"] else None
    trigger = (
        f"{first['reason']} @ t={float(first['t']):.3f}" if first else "?"
    )
    lines = [
        "=" * 66,
        f"incident #{analysis['incident']}  [run {analysis['run']}]  "
        f"window {t0:.3f} .. {t1:.3f} s",
        f"trigger: {trigger}  "
        f"(+{len(analysis['triggers']) - 1} more)"
        if len(analysis["triggers"]) > 1 else f"trigger: {trigger}",
        "=" * 66,
        "",
        "faults",
    ]
    if analysis["faults"]:
        for fault in analysis["faults"]:
            start, end = float(fault["start"]), float(fault["end"])
            tail = "  (unrecovered at capture)" if fault["open"] else ""
            lines.append(
                f"  {fault['kind']:<6} {fault['label']:<14} "
                f"{start:7.3f} .. {end:7.3f} s  "
                f"({end - start:.3f} s){tail}"
            )
    else:
        lines.append("  (no fault events in window)")
    lines += ["", "alerts"]
    if analysis["alerts"]:
        for transition in analysis["alerts"]:
            lines.append(
                f"  t={float(transition['t']):7.3f}  "
                f"{transition.get('alert', '?')}: "
                f"{transition.get('from', '?')} -> {transition.get('to', '?')}"
            )
    else:
        lines.append("  (no alert transitions in window)")
    lines += ["", f"timeline  ({t0:.3f} .. {t1:.3f} s)"]
    lines += _timeline(analysis)

    affected = analysis["affected"]
    by_mode: Dict[str, int] = {}
    for call in affected:
        by_mode[call["mode"]] = by_mode.get(call["mode"], 0) + 1
    mode_text = ", ".join(
        f"{n} {mode}" for mode, n in sorted(by_mode.items())
    ) or "none"
    lines += [
        "",
        "blast radius",
        f"  affected calls: {len(affected)} ({mode_text}); "
        f"{len(analysis['calls'])} call(s) in window",
    ]
    baseline = analysis["setup_baseline"]
    if baseline is not None:
        lines.append(
            f"  setup-delay baseline (pre-fault): {baseline * 1000:.1f} ms "
            f"over {analysis['baseline_calls']} call(s)"
        )
    for call in affected:
        direction = call["attrs"].get("direction", "?")
        delay = call["setup_delay"]
        delta = call["setup_delta"]
        setup_text = ""
        if delay is not None:
            setup_text = f"  setup {delay * 1000:.1f} ms"
            if delta is not None:
                setup_text += f" ({delta * 1000:+.1f} ms vs baseline)"
        lines.append(
            f"  call#{call['span']:<4} {_call_label(call):<28} "
            f"{direction:<3} {call['start']:7.3f} .. {call['end']:7.3f} s  "
            f"{call['mode']:<13} via {', '.join(call['faults'])}"
            f"  [{call['evidence']}]{setup_text}"
        )
    lines += ["", "recovery (MTTR)"]
    if analysis["mttr"]:
        for name, summary in analysis["mttr"].items():
            count = int(summary.get("count", 0))
            if count:
                lines.append(
                    f"  {name}  count={count}  "
                    f"mean={float(summary.get('mean', 0.0)):.3f}s  "
                    f"max={float(summary.get('max', 0.0)):.3f}s"
                )
            else:
                lines.append(f"  {name}  count=0  (no recovery completed)")
    else:
        lines.append("  (no fault.mttr.* histograms in bundle)")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="post-mortem blast-radius analysis of flight-"
                    "recorder incident bundles (see --incident-dir on "
                    "the run/serve commands)",
    )
    parser.add_argument(
        "paths", nargs="+", metavar="BUNDLE",
        help="incident bundle file(s) or directory(ies) of "
             "incident-*.json bundles",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the analysis as JSON instead of the text report",
    )
    return parser


def main(
    argv: Optional[List[str]] = None,
    echo: Callable[[str], None] = print,
) -> int:
    args = make_parser().parse_args(argv)
    try:
        bundles = load_bundles(args.paths)
    except AnalyzeError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1
    analyses = [analyze_bundle(bundle) for bundle in bundles]
    if args.json:
        echo(json.dumps(analyses, indent=1, sort_keys=True))
    else:
        for analysis in analyses:
            echo(render_report(analysis))
        echo(
            f"analyzed {len(analyses)} incident bundle(s); "
            f"{sum(len(a['affected']) for a in analyses)} affected "
            f"call(s) total"
        )
    return 0 if analyses else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

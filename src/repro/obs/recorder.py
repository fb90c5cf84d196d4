"""Always-on incident flight recorder with bounded memory.

A live service cannot keep a full trace of everything that ever
happened, yet the moment an alert fires the operator needs exactly the
history that just scrolled away.  A :class:`FlightRecorder` subscribes
to the same passive hook lists the span tracker and SLO watchdog
already use — ``TraceRecorder.sinks``, ``SpanTracker.on_close``,
``SeriesSampler.on_bucket``, ``SloWatchdog.on_transition`` — and keeps
four bounded rings of recent history: trace entries, span closures,
series buckets and alert transitions.  Appends are O(1)
(``collections.deque`` with ``maxlen``), the recorder never schedules
events, draws RNG or records trace entries, so an armed recorder cannot
perturb a seeded run: traces stay byte-identical, exactly like the
span tracker and the series sampler.

When an incident *trigger* arrives — a :class:`~repro.faults.injector
.FaultInjector` event fires, an alert rule leaves ``ok``, or the CLI
reports a nonzero exit — the recorder snapshots the open spans and
starts a capture window.  Once sim time passes the post-trigger window
(later triggers extend it) the capture *finalizes* into a self-contained
**incident bundle**: a plain-JSON dict carrying the triggers, the
pre/post window of trace entries and series buckets, open spans, span
closures, the armed fault plan, the alert transition log and a metrics
snapshot.  Bundles are pure plain data (rich values are stringified at
capture time), so they pickle across sweep-worker process boundaries,
serve over HTTP, and serialize byte-identically for the same seed and
plan.  ``python -m repro analyze`` (:mod:`repro.obs.analyze`) joins a
bundle's faults, alerts and spans into a blast-radius report.

Sweep workers ship their bundles back explicitly, next to their
metrics snapshot and series (:meth:`repro.obs.session.WatchedRun.ship`);
:func:`merge_incidents` renumbers them in input order, so a parallel
sweep's bundle list is byte-identical to a serial one.
:func:`is_incident` checks the bundle shape of files read back from
disk (``python -m repro analyze``).
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.sim.trace import TraceEntry

__all__ = [
    "FlightRecorder",
    "is_incident",
    "merge_incidents",
    "plain_value",
]

#: Keys every incident bundle carries (:meth:`FlightRecorder._finalize`).
_INCIDENT_KEYS = frozenset({"incident", "triggers", "window", "entries"})

#: FAULTS notes that *open* (or extend) an incident capture, mapped to
#: the info field naming the faulted element.
_FAULT_OPENERS = {
    "FAULT_LINK_DOWN": "link",
    "FAULT_NODE_CRASH": "name",
    "FAULT_IMPAIR_ON": "link",
}

#: FAULTS notes that mark recovery: they extend an open capture's post
#: window (so the healing tail lands in the bundle) but never open one.
_FAULT_CLOSERS = frozenset(
    {"FAULT_LINK_UP", "FAULT_NODE_RESTART", "FAULT_IMPAIR_OFF"}
)

_PLAIN_TYPES = (str, int, float, bool, type(None))


def plain_value(value: Any) -> Any:
    """JSON-safe plain-data copy of *value*: rich leaf objects (IMSI,
    E164Number, IPv4Address, ...) stringify, containers copy.  Bundles
    built from plain data serialize byte-identically and pickle across
    process boundaries without dragging simulator types along."""
    if isinstance(value, _PLAIN_TYPES):
        return value
    if isinstance(value, dict):
        return {str(k): plain_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_value(v) for v in value]
    return str(value)


def _plain_entry(entry: TraceEntry) -> Dict[str, Any]:
    return {
        "t": entry.time,
        "kind": entry.kind,
        "src": entry.src,
        "dst": entry.dst,
        "interface": entry.interface,
        "message": entry.message,
        "info": plain_value(entry.info),
    }


class FlightRecorder:
    """Bounded in-memory history plus incident bundle capture.

    Parameters
    ----------
    sim:
        The simulator to record; :meth:`arm` subscribes to its trace
        recorder and span tracker.
    run:
        Run label stamped into every bundle (matches the ObsSession /
        trace-export run names).
    max_entries, max_closures, max_buckets, max_transitions:
        Ring bounds; the oldest element falls off on overflow (O(1)).
    pre_window, post_window:
        Simulated seconds of history kept before the first trigger and
        after the last one; later triggers extend an open capture.
    max_incidents:
        At most this many bundles are kept per recorder; further
        triggers are counted in :attr:`dropped_incidents`.
    """

    def __init__(
        self,
        sim: Any,
        run: str = "main",
        max_entries: int = 4096,
        max_closures: int = 512,
        max_buckets: int = 256,
        max_transitions: int = 128,
        pre_window: float = 10.0,
        post_window: float = 10.0,
        max_incidents: int = 16,
    ) -> None:
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries!r}")
        if pre_window < 0 or post_window < 0:
            raise ValueError(
                f"windows must be >= 0, got {pre_window!r}/{post_window!r}"
            )
        if max_incidents < 1:
            raise ValueError(
                f"max_incidents must be >= 1, got {max_incidents!r}"
            )
        self.sim = sim
        self.run = run
        self.pre_window = float(pre_window)
        self.post_window = float(post_window)
        self.max_incidents = max_incidents
        #: Recent trace entries, oldest first (ring).
        self.entries: Deque[TraceEntry] = deque(maxlen=max_entries)
        #: Recent span closures as plain dicts, close order (ring).
        self.closures: Deque[Dict[str, Any]] = deque(maxlen=max_closures)
        #: Recent closed series buckets (ring; refs, never mutated).
        self.buckets: Deque[Dict[str, Any]] = deque(maxlen=max_buckets)
        #: Recent alert transitions as plain dicts (ring).
        self.transitions: Deque[Dict[str, Any]] = deque(maxlen=max_transitions)
        #: The armed fault plan, as plain JSON-grammar event dicts.
        self.plan_events: List[Dict[str, Any]] = []
        #: Finalized incident bundles, capture order.
        self.bundles: List[Dict[str, Any]] = []
        #: Triggers refused because ``max_incidents`` was reached.
        self.dropped_incidents = 0
        self._armed = False
        self._pending: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Subscribing (appended, so earlier subscribers keep running first)
    # ------------------------------------------------------------------
    def arm(self) -> "FlightRecorder":
        """Subscribe to the trace sinks (after the span tracker) and to
        the span tracker's close hooks.  Idempotent."""
        if not self._armed:
            self._armed = True
            self.sim.trace.sinks.append(self._on_entry)
            self.sim.spans.on_close.append(self._on_span_close)
        return self

    def attach_sampler(self, sampler: Any) -> "FlightRecorder":
        """Ring every bucket *sampler* closes (after the subscribers
        already attached; attach before the SLO watchdog, so a bucket is
        ringed before any alert transition it triggers)."""
        sampler.on_bucket.append(self._on_bucket)
        return self

    def attach_alerts(self, watchdog: Any) -> "FlightRecorder":
        """Ring every alert transition *watchdog* records; a rule leaving
        ``ok`` (a ``pending`` transition) triggers an incident capture."""
        watchdog.on_transition.append(self._on_alert_transition)
        return self

    # ------------------------------------------------------------------
    # Subscribers (sim thread only; pure appends, no scheduling)
    # ------------------------------------------------------------------
    def _on_entry(self, entry: TraceEntry) -> None:
        self._maybe_finalize(entry.time)
        self.entries.append(entry)
        if entry.kind != "note" or entry.src != "FAULTS":
            return
        message = entry.message
        if message == "FAULT_PLAN_ARMED":
            events = entry.info.get("events")
            if isinstance(events, list):
                self.plan_events.extend(plain_value(events))
        elif message in _FAULT_OPENERS:
            label = entry.info.get(_FAULT_OPENERS[message], "?")
            self._trigger(entry.time, "fault", f"fault:{message}:{label}")
        elif message in _FAULT_CLOSERS and self._pending is not None:
            # Recovery events never open a capture, but the healing
            # tail of an open one belongs in the bundle.
            self._extend(entry.time)

    def _on_span_close(self, span: Any) -> None:
        end = span.end if span.end is not None else self.sim.now
        self._maybe_finalize(end)
        self.closures.append(plain_value(span.to_dict()))

    def _on_bucket(self, bucket: Dict[str, Any]) -> None:
        self._maybe_finalize(float(bucket["t"]))
        self.buckets.append(bucket)

    def _on_alert_transition(self, entry: Dict[str, Any]) -> None:
        t = float(entry["t"])
        self._maybe_finalize(t)
        self.transitions.append(dict(entry))
        if entry.get("to") == "pending":
            self._trigger(t, "alert", f"alert:{entry.get('alert')}")

    # ------------------------------------------------------------------
    # Capture lifecycle
    # ------------------------------------------------------------------
    @property
    def capturing(self) -> bool:
        return self._pending is not None

    def capture_now(self, reason: str) -> None:
        """Open (or extend) a capture at the current sim instant — the
        CLI calls this when a run is about to exit nonzero.  Finalize by
        calling :meth:`flush`."""
        self._trigger(self.sim.now, "manual", reason)

    def flush(self) -> None:
        """Finalize any in-flight capture (drain / end of run)."""
        if self._pending is not None:
            self._finalize()

    def _trigger(self, t: float, kind: str, reason: str) -> None:
        trig = {"t": t, "kind": kind, "reason": reason}
        if self._pending is not None:
            self._pending["triggers"].append(trig)
            self._extend(t)
            return
        if len(self.bundles) >= self.max_incidents:
            self.dropped_incidents += 1
            return
        self._pending = {
            "triggers": [trig],
            "start": t,
            "post_until": t + self.post_window,
            # Open spans are part of the blast radius and may never
            # close; snapshot them at trigger time.
            "open_spans": [
                plain_value(s.to_dict()) for s in self.sim.spans.open_spans()
            ],
        }

    def _extend(self, t: float) -> None:
        pending = self._pending
        if pending is not None:
            pending["post_until"] = max(
                pending["post_until"], t + self.post_window
            )

    def _maybe_finalize(self, t: float) -> None:
        pending = self._pending
        if pending is not None and t > pending["post_until"]:
            self._finalize()

    def _finalize(self) -> None:
        pending = self._pending
        assert pending is not None
        self._pending = None
        w_from = max(pending["start"] - self.pre_window, 0.0)
        w_until = pending["post_until"]
        bundle: Dict[str, Any] = {
            "incident": len(self.bundles) + 1,
            "run": self.run,
            "sim_time": self.sim.now,
            "triggers": pending["triggers"],
            "window": {
                "from": w_from,
                "until": w_until,
                "pre": self.pre_window,
                "post": self.post_window,
            },
            "entries": [
                _plain_entry(e)
                for e in self.entries
                if w_from <= e.time <= w_until
            ],
            "open_spans": pending["open_spans"],
            "span_closures": [
                c for c in self.closures
                if c["end"] is not None and w_from <= c["end"] <= w_until
            ],
            "series": [
                copy.deepcopy(b)
                for b in self.buckets
                if w_from <= float(b["t"]) <= w_until
            ],
            "alerts": [
                t for t in self.transitions
                if w_from <= float(t["t"]) <= w_until
            ],
            "fault_plan": list(self.plan_events),
            # snapshot() never mutates the registry (peek accessors),
            # so capturing it here is scrape-equivalent and safe.
            "metrics": self.sim.metrics.snapshot(),
        }
        self.bundles.append(bundle)

    # ------------------------------------------------------------------
    # Publication (plain data for /incidents and /status)
    # ------------------------------------------------------------------
    def last_trigger(self) -> Optional[str]:
        """Reason of the most recent capture's first trigger (captured
        bundles win over an in-flight capture), for ``/status``."""
        if self.bundles:
            triggers = self.bundles[-1]["triggers"]
            return str(triggers[0]["reason"]) if triggers else None
        if self._pending is not None and self._pending["triggers"]:
            return str(self._pending["triggers"][0]["reason"])
        return None

    def to_payload(self) -> Dict[str, Any]:
        """Plain data for the ``/incidents`` endpoint: per-bundle
        summaries, not the full bundles (those are written to disk via
        ``--incident-dir``)."""
        return {
            "captured": len(self.bundles),
            "dropped": self.dropped_incidents,
            "capturing": self._pending is not None,
            "incidents": [
                {
                    "incident": b["incident"],
                    "run": b["run"],
                    "sim_time": b["sim_time"],
                    "triggers": list(b["triggers"]),
                    "window": dict(b["window"]),
                    "entries": len(b["entries"]),
                    "open_spans": len(b["open_spans"]),
                    "span_closures": len(b["span_closures"]),
                    "series_buckets": len(b["series"]),
                    "alert_transitions": len(b["alerts"]),
                }
                for b in self.bundles
            ],
        }


# ----------------------------------------------------------------------
# Validation and merging
# ----------------------------------------------------------------------
def is_incident(value: Any) -> bool:
    """True when *value* has the shape of an incident bundle."""
    return isinstance(value, dict) and _INCIDENT_KEYS.issubset(value.keys())


def merge_incidents(
    bundles: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Merge bundle lists from several sources by renumbering in input
    order — the same order-stable contract snapshots and series have,
    so a parallel sweep's merged bundles are byte-identical to a serial
    run's.  Bundles are never folded together: each incident keeps its
    own window and trigger history."""
    merged: List[Dict[str, Any]] = []
    for number, bundle in enumerate(bundles, start=1):
        renumbered = dict(bundle)
        renumbered["incident"] = number
        merged.append(renumbered)
    return merged

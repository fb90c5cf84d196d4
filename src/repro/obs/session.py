"""Glue for the command-line surface: one object per observed run.

``python -m repro`` scenarios build one or more simulators; an
:class:`ObsSession` carries the ``--trace-out``/``--metrics-out``/
``--profile``/``--heartbeat``/``--series-out``/``--timeline-out``/
``--waterfall``/``--slo`` choices (and serve mode's ``--alert`` rules),
attaches them to each simulator as it is built, and writes every
artefact at the end.  Kept in the library (not ``__main__``) so tests
and notebooks can drive the same plumbing.

Both command lines declare the shared flags with :func:`add_obs_flags`
and build their session with :meth:`ObsSession.from_args`.  Rule sets,
fault plans and ``@FILE`` paths are checked while the arguments parse
(:func:`checked_text`), so bad input is a usage error before any
topology is built.

:meth:`ObsSession.watch` returns one :class:`WatchedRun` per simulator:
the run name, the simulator and the instrumentation armed on it.  Sweep
workers build their simulators in other processes; each arms its
network through the same ``watch()`` and sends back
:meth:`WatchedRun.ship`'s plain-data record, which the parent session
merges from :attr:`ObsSession.shipped`.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.obs.export import export_trace_jsonl, merge_snapshots
from repro.obs.heartbeat import Heartbeat
from repro.obs.hops import HopRecorder, render_waterfall
from repro.obs.profiler import render_profile
from repro.obs.prom import render_prometheus
from repro.obs.recorder import FlightRecorder, merge_incidents
from repro.obs.series import SeriesSampler, merge_series
from repro.obs.slo import (
    SloRule,
    SloWatchdog,
    evaluate_series,
    parse_slo_rules,
    render_slo_report,
)
from repro.obs.timeline import export_runs_timeline

#: At most this many root-span waterfalls are printed per run.
MAX_WATERFALLS = 12


def checked_text(parse: Callable[[str], Any]) -> Callable[[str], str]:
    """An argparse ``type=`` that reads ``@FILE`` (other text is used
    as given), checks the text with *parse* and keeps the text, so a
    missing file or a grammar error is a usage error."""
    def convert(text: str) -> str:
        try:
            if text.startswith("@"):
                with open(text[1:], "r", encoding="utf-8") as fh:
                    text = fh.read()
            parse(text)
        except (OSError, ValueError, ReproError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return convert


def positive_int(text: str) -> int:
    """An argparse ``type=`` for counts that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: The observability flags both command lines share, as ``(flag,
#: add_argument options)``; each ``dest`` names an ObsSession parameter.
OBS_FLAGS = (
    ("--trace-out", dict(
        metavar="FILE",
        help="write a JSONL trace (spans + events) to FILE; keeps the "
             "whole run's trace and spans in memory, which a served run "
             "otherwise does not")),
    ("--metrics-out", dict(
        metavar="FILE",
        help="write the final Prometheus metrics snapshot to FILE")),
    ("--profile", dict(
        action="store_true",
        help="profile the run with cProfile and print per-package "
             "self-time shares and the top functions")),
    ("--heartbeat", dict(
        type=float, default=None, metavar="SECS",
        help="print a progress line to stderr every SECS simulated seconds")),
    ("--series-out", dict(
        metavar="FILE",
        help="write a sim-time-bucketed metric time series (JSON) to FILE")),
    ("--series-interval", dict(
        type=float, default=1.0, metavar="SECS",
        help="series bucket width, also the SLO/alert evaluation cadence "
             "(default: 1.0)")),
    ("--timeline-out", dict(
        metavar="FILE",
        help="write a Chrome-trace-event timeline (spans + link hops) to "
             "FILE; open in chrome://tracing or ui.perfetto.dev; keeps the "
             "whole run's trace and spans in memory, which a served run "
             "otherwise does not")),
    ("--slo", dict(
        type=checked_text(parse_slo_rules), metavar="RULES",
        help="SLO rules ('name: func(glob) OP threshold', ';'-separated, "
             "or @FILE) judged with sticky-fail semantics at the end; a "
             "failed rule exits 1")),
    ("--incident-dir", dict(
        metavar="DIR",
        help="write flight-recorder incident bundles (captured around "
             "faults, alert trips and nonzero exits) to DIR for "
             "'python -m repro analyze'")),
)
_OBS_DESTS = tuple(flag[2:].replace("-", "_") for flag, _ in OBS_FLAGS)


def add_obs_flags(parser: Any) -> None:
    """Declare :data:`OBS_FLAGS` on *parser* (a parser or an argument
    group)."""
    for flag, options in OBS_FLAGS:
        parser.add_argument(flag, **options)


@dataclass(eq=False)
class WatchedRun:
    """One simulator an :class:`ObsSession` watches, with what
    :meth:`ObsSession.watch` armed on it."""

    name: str
    sim: Any
    #: Always armed: capture is free until something triggers.
    recorder: FlightRecorder
    sampler: Optional[SeriesSampler] = None
    watchdog: Optional[SloWatchdog] = None
    heartbeat: Optional[Heartbeat] = None

    def ship(self) -> Dict[str, Any]:
        """Stop sampling, finalize any in-flight capture and return the
        run's artefacts as plain data that pickles across process
        boundaries: ``{"metrics": snapshot, "series": series dict,
        "incidents": [bundle, ...]}``.  Needs a sampler (arm with
        ``force_series``)."""
        assert self.sampler is not None, "ship() needs a series sampler"
        metrics = self.sim.metrics.snapshot()
        self.sampler.stop(flush=True)
        self.recorder.flush()
        return {
            "metrics": metrics,
            "series": self.sampler.to_dict(),
            "incidents": list(self.recorder.bundles),
        }


class ObsSession:
    """Observability options applied across a scenario's simulators."""

    def __init__(
        self,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
        profile: bool = False,
        heartbeat: Optional[float] = None,
        series_out: Optional[str] = None,
        series_interval: float = 1.0,
        timeline_out: Optional[str] = None,
        waterfall: bool = False,
        slo: Optional[str] = None,
        force_series: bool = False,
        incident_dir: Optional[str] = None,
        alert: Optional[str] = None,
        alert_for: int = 2,
        alert_clear: int = 2,
    ) -> None:
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.profile = profile
        self.heartbeat = heartbeat
        self.series_out = series_out
        self.series_interval = series_interval
        self.timeline_out = timeline_out
        self.waterfall = waterfall
        #: Arm a series sampler even without --series-out/--slo; serve
        #: mode needs the bucket cadence for its alert lifecycle.
        self.force_series = force_series
        #: Directory incident bundles are written to at finish (the
        #: flight recorder itself is always on — capture is free until
        #: something triggers).
        self.incident_dir = incident_dir
        #: Appended to each heartbeat line (serve mode: workload stats).
        self.heartbeat_extra: Optional[Callable[[], str]] = None
        #: Parsed SLO rules (grammar errors surface before any sim runs).
        self.slo_rules: List[SloRule] = parse_slo_rules(slo) if slo else []
        #: Parsed alert rules, stepped through the live lifecycle by the
        #: same watchdog, with their for/clear hysteresis in buckets.
        self.alert_rules: List[SloRule] = (
            parse_slo_rules(alert) if alert else []
        )
        self.alert_for = alert_for
        self.alert_clear = alert_clear
        #: Exit status for the CLI: 1 once any SLO rule fails.
        self.exit_code = 0
        #: The ``--profile`` profiler: enabled at the first watch(),
        #: disabled and reported by finish().
        self.profiler: Optional[cProfile.Profile] = None
        #: Watched runs, watch() order.
        self.runs: List[WatchedRun] = []
        #: :meth:`WatchedRun.ship` records from sweep workers, merged
        #: after this session's own runs, in list order.
        self.shipped: List[Dict[str, Any]] = []

    @classmethod
    def from_args(
        cls, args: argparse.Namespace, **options: Any
    ) -> "ObsSession":
        """Build a session from arguments parsed with
        :func:`add_obs_flags`; *options* add the non-shared ones."""
        shared = {dest: getattr(args, dest) for dest in _OBS_DESTS}
        return cls(**shared, **options)

    @property
    def active(self) -> bool:
        return bool(
            self.trace_out or self.metrics_out or self.profile
            or self.heartbeat or self.series_out or self.timeline_out
            or self.waterfall or self.slo_rules or self.alert_rules
            or self.incident_dir
        )

    @property
    def needs_history(self) -> bool:
        """True when an artefact reads the whole run's trace entries and
        spans, so the watched simulators must retain their history."""
        return bool(self.trace_out or self.timeline_out)

    @property
    def _wants_series(self) -> bool:
        return bool(self.series_out or self.slo_rules or self.alert_rules
                    or self.force_series)

    @property
    def _wants_hops(self) -> bool:
        return bool(self.timeline_out or self.waterfall)

    def watch(self, sim: Any, run: str = "main") -> WatchedRun:
        """Register *sim*, arm the requested instrumentation on it and
        return its record.  Idempotent per simulator: watching a sim
        again returns its existing record."""
        for existing in self.runs:
            if existing.sim is sim:
                return existing
        # The flight recorder is always on: bounded rings, O(1) appends,
        # no events scheduled — capture costs nothing until triggered.
        record = WatchedRun(run, sim, FlightRecorder(sim, run=run).arm())
        self.runs.append(record)
        if self.profile and self.profiler is None:
            self.profiler = cProfile.Profile()
            self.profiler.enable()
        if self.heartbeat:
            record.heartbeat = Heartbeat(
                sim, period=self.heartbeat, label=run,
                extra=self.heartbeat_extra,
            ).start()
        if self._wants_series:
            sampler = SeriesSampler(sim, interval=self.series_interval)
            # The recorder rings each bucket before the watchdog judges
            # it, so a bundle opened by an alert already holds the
            # bucket that tripped it.
            record.recorder.attach_sampler(sampler)
            if self.slo_rules or self.alert_rules:
                record.watchdog = SloWatchdog(
                    self.slo_rules,
                    alert_rules=self.alert_rules,
                    for_windows=self.alert_for,
                    clear_windows=self.alert_clear,
                ).attach(sampler)
                record.recorder.attach_alerts(record.watchdog)
            record.sampler = sampler.start()
        if self._wants_hops and sim.hops is None:
            sim.hops = HopRecorder(sim)
        return record

    def finish(self, echo: Callable[[str], None] = print) -> int:
        """Stop instrumentation, write every requested artefact, print
        profiler/waterfall/SLO reports; returns the exit code (nonzero
        when an SLO rule failed)."""
        if self.profiler is not None:
            self.profiler.disable()
        samplers = [r.sampler for r in self.runs if r.sampler is not None]
        for r in self.runs:
            if r.heartbeat is not None:
                r.heartbeat.stop()
        for sampler in samplers:
            sampler.stop(flush=True)
        if self.trace_out:
            with open(self.trace_out, "w", encoding="utf-8") as fh:
                for r in self.runs:
                    export_trace_jsonl(r.sim, fh, run=r.name)
            echo(f"trace written to {self.trace_out}")
        if self.metrics_out:
            snapshots = [r.sim.metrics.snapshot() for r in self.runs]
            snapshots.extend(s["metrics"] for s in self.shipped)
            if len(snapshots) == 1:
                text = render_prometheus(snapshots[0])
            else:
                text = render_prometheus(merge_snapshots(snapshots))
            with open(self.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(text)
            echo(f"metrics snapshot written to {self.metrics_out}")
        if self.series_out:
            series = [sampler.to_dict() for sampler in samplers]
            series.extend(s["series"] for s in self.shipped)
            doc = series[0] if len(series) == 1 else merge_series(series)
            with open(self.series_out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            echo(
                f"time series written to {self.series_out} "
                f"({len(doc['buckets'])} bucket(s) from "
                f"{doc.get('sources', len(series))} source(s))"
            )
        if self.timeline_out:
            doc = export_runs_timeline(
                [(r.name, r.sim) for r in self.runs], path=self.timeline_out
            )
            echo(
                f"timeline written to {self.timeline_out} "
                f"({len(doc['traceEvents'])} events; open in "
                "chrome://tracing or ui.perfetto.dev)"
            )
        if self.waterfall:
            for r in self.runs:
                hops = r.sim.hops
                if hops is None:
                    continue
                roots = [s for s in r.sim.spans.roots() if not s.open]
                for span in roots[:MAX_WATERFALLS]:
                    echo(render_waterfall(span, hops))
                if len(roots) > MAX_WATERFALLS:
                    echo(f"... {len(roots) - MAX_WATERFALLS} more span(s) "
                         f"in run {r.name!r} not shown")
        for r in self.runs:
            if r.watchdog is None or not self.slo_rules:
                continue
            results = r.watchdog.finalize()
            echo(render_slo_report(results, title=f"SLO [{r.name}]"))
            if any(not res.ok for res in results):
                self.exit_code = 1
        if self.slo_rules and self.shipped:
            # Sweep workers ran in their own processes; replay their
            # merged series through a fresh watchdog.
            results = evaluate_series(
                self.slo_rules, merge_series([s["series"] for s in self.shipped])
            )
            echo(render_slo_report(results, title="SLO [sweep]"))
            if any(not r.ok for r in results):
                self.exit_code = 1
        if self.exit_code:
            # A nonzero exit is itself an incident: capture the tail of
            # every watched run so the failure is explainable post hoc.
            for r in self.runs:
                r.recorder.capture_now(f"exit:{self.exit_code}")
        for r in self.runs:
            r.recorder.flush()
        if self.incident_dir:
            bundles = merge_incidents(
                [b for r in self.runs for b in r.recorder.bundles]
                + [b for s in self.shipped for b in s["incidents"]]
            )
            os.makedirs(self.incident_dir, exist_ok=True)
            for bundle in bundles:
                path = os.path.join(
                    self.incident_dir,
                    f"incident-{bundle['incident']:03d}.json",
                )
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(bundle, fh, indent=1, sort_keys=True,
                              default=str)
                    fh.write("\n")
            echo(
                f"{len(bundles)} incident bundle(s) written to "
                f"{self.incident_dir} (analyze with "
                f"'python -m repro analyze {self.incident_dir}')"
                if bundles else
                f"no incidents captured; nothing written to "
                f"{self.incident_dir}"
            )
        if self.profiler is not None:
            echo(render_profile(self.profiler))
        return self.exit_code

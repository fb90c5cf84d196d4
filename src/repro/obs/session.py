"""Glue for the command-line surface: one object per observed run.

``python -m repro`` scenarios build one or more simulators; an
:class:`ObsSession` carries the ``--trace-out``/``--metrics-out``/
``--profile``/``--heartbeat``/``--series-out``/``--timeline-out``/
``--waterfall``/``--slo`` choices, attaches them to each simulator as it
is built, and writes every artefact at the end.  Kept in the library
(not ``__main__``) so tests and notebooks can drive the same plumbing.
"""

from __future__ import annotations

import cProfile
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

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
        #: Exit status for the CLI: 1 once any SLO rule fails.
        self.exit_code = 0
        #: The ``--profile`` profiler: enabled at the first watch(),
        #: disabled and reported by finish().
        self.profiler: Optional[cProfile.Profile] = None
        self._sims: List[Tuple[str, Any]] = []
        self._heartbeats: List[Heartbeat] = []
        self._samplers: List[Tuple[str, SeriesSampler]] = []
        self._watchdogs: List[Tuple[str, SloWatchdog]] = []
        self._recorders: List[Tuple[str, FlightRecorder]] = []
        #: Extra metric snapshots merged into --metrics-out (sweeps).
        self.extra_snapshots: List[Dict[str, Any]] = []
        #: Extra serialised series merged into --series-out (sweeps).
        self.extra_series: List[Dict[str, Any]] = []
        #: Extra incident bundles merged into --incident-dir (sweeps).
        self.extra_incidents: List[Dict[str, Any]] = []

    @property
    def active(self) -> bool:
        return bool(
            self.trace_out or self.metrics_out or self.profile
            or self.heartbeat or self.series_out or self.timeline_out
            or self.waterfall or self.slo_rules or self.incident_dir
        )

    @property
    def _wants_series(self) -> bool:
        return bool(self.series_out or self.slo_rules or self.force_series)

    @property
    def _wants_hops(self) -> bool:
        return bool(self.timeline_out or self.waterfall)

    def watch(self, sim: Any, run: str = "main") -> None:
        """Register *sim* (idempotent per run name) and arm the
        requested instrumentation on it."""
        if any(existing is sim for _, existing in self._sims):
            return
        self._sims.append((run, sim))
        # The flight recorder is always on: bounded rings, O(1) appends,
        # no events scheduled — capture costs nothing until triggered.
        recorder = FlightRecorder(sim, run=run).arm()
        self._recorders.append((run, recorder))
        if self.profile and self.profiler is None:
            self.profiler = cProfile.Profile()
            self.profiler.enable()
        if self.heartbeat:
            self._heartbeats.append(
                Heartbeat(
                    sim, period=self.heartbeat, label=run,
                    extra=self.heartbeat_extra,
                ).start()
            )
        if self._wants_series:
            sampler = SeriesSampler(sim, interval=self.series_interval)
            if self.slo_rules:
                dog = SloWatchdog(self.slo_rules).attach(sampler)
                self._watchdogs.append((run, dog))
            recorder.attach_sampler(sampler)
            sampler.start()
            self._samplers.append((run, sampler))
        if self._wants_hops and sim.hops is None:
            sim.hops = HopRecorder(sim)

    def sampler_for(self, sim: Any) -> Optional[SeriesSampler]:
        """The series sampler armed on *sim* by :meth:`watch`, if any —
        serve mode chains its alert manager onto its bucket hook."""
        for _, sampler in self._samplers:
            if sampler.sim is sim:
                return sampler
        return None

    def recorder_for(self, sim: Any) -> Optional[FlightRecorder]:
        """The flight recorder :meth:`watch` armed on *sim* — serve mode
        wires it to the alert manager and the run loop."""
        for _, recorder in self._recorders:
            if recorder.sim is sim:
                return recorder
        return None

    def finish(self, echo: Callable[[str], None] = print) -> int:
        """Stop instrumentation, write every requested artefact, print
        profiler/waterfall/SLO reports; returns the exit code (nonzero
        when an SLO rule failed)."""
        if self.profiler is not None:
            self.profiler.disable()
        for hb in self._heartbeats:
            hb.stop()
        self._heartbeats.clear()
        for _, sampler in self._samplers:
            sampler.stop(flush=True)
        if self.trace_out:
            with open(self.trace_out, "w", encoding="utf-8") as fh:
                for run, sim in self._sims:
                    export_trace_jsonl(sim, fh, run=run)
            echo(f"trace written to {self.trace_out}")
        if self.metrics_out:
            snapshots = [sim.metrics.snapshot() for _, sim in self._sims]
            snapshots.extend(self.extra_snapshots)
            if len(snapshots) == 1:
                text = render_prometheus(snapshots[0])
            else:
                text = render_prometheus(merge_snapshots(snapshots))
            with open(self.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(text)
            echo(f"metrics snapshot written to {self.metrics_out}")
        if self.series_out:
            series = [sampler.to_dict() for _, sampler in self._samplers]
            series.extend(self.extra_series)
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
            doc = export_runs_timeline(self._sims, path=self.timeline_out)
            echo(
                f"timeline written to {self.timeline_out} "
                f"({len(doc['traceEvents'])} events; open in "
                "chrome://tracing or ui.perfetto.dev)"
            )
        if self.waterfall:
            for run, sim in self._sims:
                hops = sim.hops
                if hops is None:
                    continue
                roots = [s for s in sim.spans.roots() if not s.open]
                for span in roots[:MAX_WATERFALLS]:
                    echo(render_waterfall(span, hops))
                if len(roots) > MAX_WATERFALLS:
                    echo(f"... {len(roots) - MAX_WATERFALLS} more span(s) "
                         f"in run {run!r} not shown")
        for run, dog in self._watchdogs:
            results = dog.finalize()
            echo(render_slo_report(results, title=f"SLO [{run}]"))
            if any(not r.ok for r in results):
                self.exit_code = 1
        if self.slo_rules and self.extra_series:
            # Sweep workers ran in their own processes; replay their
            # merged series through a fresh watchdog.
            results = evaluate_series(
                self.slo_rules, merge_series(self.extra_series)
            )
            echo(render_slo_report(results, title="SLO [sweep]"))
            if any(not r.ok for r in results):
                self.exit_code = 1
        if self.exit_code:
            # A nonzero exit is itself an incident: capture the tail of
            # every watched run so the failure is explainable post hoc.
            for _run, recorder in self._recorders:
                recorder.capture_now(f"exit:{self.exit_code}")
        for _run, recorder in self._recorders:
            recorder.flush()
        if self.incident_dir:
            bundles = merge_incidents(
                [b for _, rec in self._recorders for b in rec.bundles]
                + list(self.extra_incidents)
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

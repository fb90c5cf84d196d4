"""The serve run loop: paced slices, live publication, graceful drain.

:class:`ServeLoop` owns the sequencing of a live run:

1. **serving** — ``sim.run_paced`` executes quantum-sized sim-time
   slices at full speed; between slices the loop publishes a telemetry
   view (metrics snapshot + status + alerts) to the scrape endpoint and
   lets the :class:`~repro.serve.pacer.Pacer` sleep the wall clock into
   step.  Pacing lives entirely outside the kernel, so the event
   sequence is byte-identical to a batch run of the same seed/workload.
2. **draining** — on duration expiry or :meth:`request_stop` (SIGINT/
   SIGTERM), the workload stops admitting and the loop keeps pacing
   until every in-flight call completes (bounded by ``drain_timeout``).
   A second stop request skips the drain.
3. **stopped** — a final view is published; artefact flushing and exit
   codes are the CLI's job.

Because the drain is the same code under every rate, a paced serve run
and an unpaced (``rate=0``) comparator run with the same quantum finish
with identical final metrics — the property the integration tests pin.
(The quantum is part of the run's definition: the drain completes on a
quantum boundary, so comparator runs must share it; the *rate* is what
never leaks into the simulation.)
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.recorder import FlightRecorder
from repro.obs.session import WatchedRun
from repro.serve.pacer import Pacer
from repro.serve.state import ServeState


class ServeLoop:
    """Drives one simulator + open-loop workload as a live service."""

    def __init__(
        self,
        sim: Any,
        workload: Any,
        pacer: Pacer,
        state: Optional[ServeState] = None,
        watched: Optional[WatchedRun] = None,
        duration: Optional[float] = None,
        quantum: float = 0.25,
        drain_timeout: float = 60.0,
    ) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be > 0, got {quantum!r}")
        if duration is None and not pacer.realtime:
            raise ValueError(
                "an unpaced (rate=0) serve loop needs a duration: with "
                "no wall clock to wait on it would spin the sim forever"
            )
        self.sim = sim
        self.workload = workload
        self.pacer = pacer
        self.state = state if state is not None else ServeState()
        #: ``sim``'s :class:`~repro.obs.session.WatchedRun`: its flight
        #: recorder feeds ``/incidents``, its watchdog ``/alerts``.
        self.watched = watched
        self.duration = duration
        self.quantum = quantum
        self.drain_timeout = drain_timeout
        self.phase = "starting"
        #: True once the drain completed with no in-flight calls left.
        self.drained = False
        self._stop_requested = False
        self._hard_stop = False
        self._last_wall = 0.0
        self._last_events = 0

    @property
    def recorder(self) -> Optional[FlightRecorder]:
        return self.watched.recorder if self.watched is not None else None

    # ------------------------------------------------------------------
    # Control (signal-handler safe: only sets flags)
    # ------------------------------------------------------------------
    def request_stop(self, *_args: Any) -> None:
        """First call: drain gracefully.  Second call: stop hard."""
        if self._stop_requested:
            self._hard_stop = True
        self._stop_requested = True
        # Breaks out of the current slice after the in-flight event.
        self.sim.stop()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> "ServeLoop":
        sim = self.sim
        self.phase = "serving"
        self.pacer.start(sim.now)
        self.workload.start()
        end = None if self.duration is None else sim.now + self.duration
        sim.run_paced(end, self.quantum, self._serve_hook)
        self.phase = "draining"
        self.workload.stop_admitting()
        if not self._hard_stop and self.workload.active > 0:
            drain_end = sim.now + self.drain_timeout
            sim.run_paced(drain_end, self.quantum, self._drain_hook)
        self.workload.stop()
        self.drained = self.workload.active == 0
        self.phase = "stopped"
        if self.recorder is not None:
            # Drain is over: finalize any in-flight incident capture so
            # the final published view (and /incidents) includes it.
            self.recorder.flush()
        self._publish()
        return self

    def _serve_hook(self, sim: Any) -> Any:
        self._publish()
        if self._stop_requested:
            return False
        self.pacer.pace(sim.now)
        return None

    def _drain_hook(self, sim: Any) -> Any:
        self._publish()
        if self._hard_stop or self.workload.active == 0:
            return False
        self.pacer.pace(sim.now)
        return None

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def _publish(self) -> None:
        """Build and atomically publish a complete telemetry view."""
        sim = self.sim
        wall = self.pacer.wall_elapsed()
        events = sim.events_executed
        wall_delta = wall - self._last_wall
        event_rate = (
            (events - self._last_events) / wall_delta
            if wall_delta > 0 else 0.0
        )
        self._last_wall = wall
        self._last_events = events
        status = {
            "phase": self.phase,
            "sim_time": sim.now,
            "wall_runtime": wall,
            "wall_lag": self.pacer.lag,
            "rate": self.pacer.rate,
            "events_executed": events,
            "event_rate": event_rate,
            "pending_events": sim.pending_events,
            "active_calls": self.workload.active,
            "open_spans": sim.spans.open_count,
            "workload": self.workload.progress_line(),
        }
        incidents: Optional[Dict[str, Any]] = None
        alerts: Optional[Dict[str, Any]] = None
        if self.watched is not None:
            recorder = self.watched.recorder
            status["incidents_captured"] = len(recorder.bundles)
            status["last_incident"] = recorder.last_trigger()
            incidents = recorder.to_payload()
            dog = self.watched.watchdog
            if dog is not None and dog.alerts:
                alerts = dog.alert_payload()
        self.state.publish(sim.metrics.snapshot(), status, alerts, incidents)

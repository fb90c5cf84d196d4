"""Live service mode: wall-clock pacing, scrape endpoint, alerting.

``python -m repro serve`` runs the deterministic simulator as a
long-lived service: the :class:`~repro.serve.loop.ServeLoop` executes
quantum-sized sim-time slices at full speed and the
:class:`~repro.serve.pacer.Pacer` sleeps the wall clock into step
*between* slices, so pacing never enters the kernel and a seeded run
stays byte-identical to its batch twin.  Each slice publishes an atomic
telemetry view that :class:`~repro.serve.httpd.TelemetryServer` serves
over ``/metrics``, ``/status``, ``/alerts`` and ``/incidents``.  The
run's one :class:`~repro.obs.slo.SloWatchdog` folds each series bucket
once: it judges the ``--slo`` rules at shutdown and steps the
``--alert`` rules through a live pending/firing/resolved lifecycle.
"""

from repro.serve.httpd import TelemetryServer
from repro.serve.loop import ServeLoop
from repro.serve.pacer import Pacer
from repro.serve.state import ServeState

__all__ = [
    "Pacer",
    "ServeLoop",
    "ServeState",
    "TelemetryServer",
]

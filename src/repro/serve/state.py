"""The shared view between the simulation thread and the scrape thread.

Serve mode runs the simulation on the main thread and the HTTP endpoint
on daemon threads; :class:`ServeState` is the only object both sides
touch.  The simulation thread *publishes* a complete view — metrics
snapshot, status heartbeat, alert payload — as one plain-data dict per
pacing slice; publication is a single attribute store, which is atomic
under the GIL, so a scrape thread always reads either the previous view
or the new one, never a half-built mixture.  Scrape handlers render
exclusively from the published view and never reach into live
simulator state.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.obs.prom import render_snapshot


class ServeState:
    """Atomically published telemetry view of an in-progress run."""

    def __init__(self) -> None:
        # One dict, swapped wholesale on publish.  Never mutate in
        # place: handlers on other threads hold references to it.
        self._view: Dict[str, Any] = {
            "snapshot": None,
            "status": {"phase": "starting"},
            # The shape SloWatchdog.alert_payload() publishes, so a run
            # without --alert serves the same keys.
            "alerts": {"alerts": [], "transitions": [], "transition_count": 0},
            "incidents": {"captured": 0, "dropped": 0,
                          "capturing": False, "incidents": []},
        }

    def publish(
        self,
        snapshot: Dict[str, Any],
        status: Dict[str, Any],
        alerts: Optional[Dict[str, Any]] = None,
        incidents: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Swap in a freshly built view (simulation thread only)."""
        view = {
            "snapshot": snapshot,
            "status": status,
            "alerts": alerts if alerts is not None
            else self._view["alerts"],
            "incidents": incidents if incidents is not None
            else self._view["incidents"],
        }
        self._view = view

    @property
    def view(self) -> Dict[str, Any]:
        """The latest published view (safe from any thread)."""
        return self._view

    # -- renderings used by the HTTP handler ---------------------------
    def render_metrics(self) -> str:
        """Prometheus text exposition of the latest published snapshot."""
        snapshot = self._view["snapshot"]
        if snapshot is None:
            return "# no snapshot published yet\n"
        return render_snapshot(snapshot)

    def status_json(self) -> str:
        return json.dumps(self._view["status"], sort_keys=True) + "\n"

    def alerts_json(self) -> str:
        return json.dumps(self._view["alerts"], sort_keys=True) + "\n"

    def incidents_json(self) -> str:
        return json.dumps(self._view["incidents"], sort_keys=True) + "\n"

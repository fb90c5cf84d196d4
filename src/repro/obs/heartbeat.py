"""Soak heartbeat: periodic one-line progress for long runs.

A :class:`Heartbeat` schedules itself every *period* simulated seconds
and prints one line with the simulated clock, events executed since the
last beat (and the wall-clock event rate), and the live event count::

    [hb soak] t=300.0s events=1204233 (+24084, 80561/s wall) live=412

``events=`` is :attr:`Simulator.events_executed
<repro.sim.kernel.Simulator.events_executed>` at the beat (the beat
itself included), which the event queue's accounting keeps exact under
every driver, so a heartbeat changes nothing about how the simulator
runs.  Beat events ride the normal event queue; they read wall time but
never feed it back into simulation state, so the trace stays
deterministic.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional


class Heartbeat:
    """Periodic progress reporter bound to one simulator."""

    def __init__(
        self,
        sim: Any,
        period: float = 5.0,
        sink: Optional[Callable[[str], None]] = None,
        label: str = "run",
        extra: Optional[Callable[[], str]] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"heartbeat period must be > 0, got {period!r}")
        self.sim = sim
        self.period = period
        self.label = label
        self.extra = extra
        self._sink = sink if sink is not None else self._print
        self._event = None
        self._last_events = 0
        self._last_wall = 0.0
        self.beats = 0

    @staticmethod
    def _print(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def start(self) -> "Heartbeat":
        """Arm the heartbeat; the first line appears one period from now."""
        if self._event is not None:
            return self
        self._last_events = self.sim.events_executed
        self._last_wall = time.perf_counter()
        self._event = self.sim.schedule(self.period, self._beat)
        return self

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _beat(self) -> None:
        self.beats += 1
        now_wall = time.perf_counter()
        executed = self.sim.events_executed
        delta = executed - self._last_events
        wall = now_wall - self._last_wall
        rate = delta / wall if wall > 0 else 0.0
        line = (
            f"[hb {self.label}] t={self.sim.now:.1f}s events={executed}"
            f" (+{delta}, {rate:.0f}/s wall) live={self.sim.pending_events}"
        )
        if self.extra is not None:
            line += " " + self.extra()
        self._sink(line)
        self._last_events = executed
        self._last_wall = now_wall
        self._event = self.sim.schedule(self.period, self._beat)

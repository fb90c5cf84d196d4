"""Discrete-event simulation kernel.

This package provides the substrate every network element runs on:

* :class:`~repro.sim.kernel.Simulator` — the event loop and virtual clock;
* :class:`~repro.sim.events.EventQueue` — deterministic priority queue;
* :class:`~repro.sim.timers.Timer` — restartable protocol timers;
* :class:`~repro.sim.rng.RandomStreams` — named deterministic RNG streams;
* :class:`~repro.sim.process.Signal` / :func:`~repro.sim.process.wait_for`
  — event-driven waits for generator processes (no polling loops);
* :class:`~repro.sim.trace.TraceRecorder` — message-sequence capture used
  to validate the paper's figures;
* :mod:`~repro.sim.metrics` — counters, histograms and time-weighted
  gauges for the experiments;
* :mod:`~repro.sim.sweep` — parameter sweeps fanned across worker
  processes with deterministic, input-order result merging.

All timestamps are floats in **seconds** of simulated time.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.process import Process, Signal, spawn, wait_for
from repro.sim.rng import RandomStreams
from repro.sim.sweep import SweepPoint, SweepResult, run_sweep, sweep_grid
from repro.sim.timers import Timer
from repro.sim.trace import TraceEntry, TraceRecorder

__all__ = [
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "sweep_grid",
    "Event",
    "EventQueue",
    "Simulator",
    "Timer",
    "RandomStreams",
    "TraceEntry",
    "TraceRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Process",
    "Signal",
    "wait_for",
    "spawn",
]

"""The discrete-event simulator.

A :class:`Simulator` owns the virtual clock, the event queue, a
deterministic random-stream factory, a trace recorder and a metrics
registry.  Network elements never read wall-clock time; everything is
driven through :meth:`Simulator.schedule`.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1.5, fired.append, "hello")
>>> sim.run()
>>> (sim.now, fired)
(1.5, ['hello'])
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.spans import SpanTracker
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hops import HopRecorder


class _Allocator:
    """Simulation-wide monotonically increasing id source.

    H.225 call references must be unique per gatekeeper; deriving them
    per endpoint invites collisions, so every endpoint draws from this
    shared allocator instead."""

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named random streams.  Two simulators built
        with the same seed and workload produce byte-identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.rng = RandomStreams(seed)
        self.trace = TraceRecorder(clock=lambda: self._now)
        self.metrics = MetricsRegistry(clock=lambda: self._now)
        #: Correlated procedure spans; the trace recorder's first sink.
        self.spans = SpanTracker(clock=lambda: self._now)
        self.trace.sinks.append(self.spans.on_entry)
        #: Globally unique H.225 call references for this simulation.
        self.call_refs = _Allocator(start=1001)
        #: Per-link hop recorder (``None`` when latency attribution is
        #: off; the link layer pays one attribute load for the check).
        self.hops: Optional["HopRecorder"] = None
        #: Fluid media session (``None`` = event-per-frame media; see
        #: :mod:`repro.media.fluid`).  Media endpoints pay one attribute
        #: load per received frame for the check.
        self.media = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def retain_history(self) -> bool:
        """Whether the trace keeps its entries and the span tracker its
        closed spans (default ``True``).  Off, every entry still reaches
        every sink and every span its close hooks, but nothing is kept
        after that, so memory stays flat in run length; trace queries
        and exporters then raise :class:`~repro.errors.TraceWindowError`.
        Switch it before anything is recorded."""
        return self.trace.retain

    @retain_history.setter
    def retain_history(self, retain: bool) -> None:
        trace, spans = self.trace, self.spans
        if retain != trace.retain and (
            trace.entries or trace.dropped or spans.spans or spans.dropped
        ):
            raise SimulationError(
                "retain_history must be set before the run records "
                "anything; switching it mid-run would leave a partial "
                "history"
            )
        trace.retain = spans.retain = retain

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> Event:
        """Schedule *callback(\\*args, \\*\\*kwargs)* after *delay* seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        # Inlined EventQueue.push — this is the hottest call in the
        # simulator and the extra frame is measurable in soak runs.
        time = self._now + delay
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        event = Event(time, priority, seq, callback, args, kwargs, queue)
        heapq.heappush(queue._heap, (time, priority, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> Event:
        """Schedule *callback* at absolute simulated *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._now!r}"
            )
        return self._queue.push(time, callback, args, kwargs, priority)

    def call_soon(self, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule *callback* at the current instant (after pending events
        already scheduled for this instant)."""
        return self._queue.push(self._now, callback, args, kwargs, 0)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a scheduled event.  Cancelling ``None``, an already
        cancelled event or one that has already fired is a no-op, which
        simplifies timer handling."""
        if event is None:
            return
        event.cancel()

    @property
    def events_executed(self) -> int:
        """Events executed so far by any driver (:meth:`run`,
        :meth:`step`, :meth:`run_until_true`), counting the one running
        now when read from inside a callback.  Derived from the queue's
        push/discard accounting, so no loop pays a per-event counter."""
        return self._queue.executed

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if none remain."""
        if not self._queue:
            return False
        event = self._queue.pop()
        if event.time < self._now:
            raise SimulationError("event queue produced an event in the past")
        self._now = event.time
        event.callback(*event.args, **event.kwargs)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Run until the queue drains, *until* is reached, or :meth:`stop`.

        Returns the number of events executed.  ``max_events`` is a guard
        against runaway feedback loops in protocol state machines.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue
        heap = queue._heap
        pop = heapq.heappop
        limit = float("inf") if until is None else until
        try:
            # The scheduler's innermost loop, inlined: one peek plus one
            # C-level heappop of a plain tuple per executed event.
            while not self._stopped:
                if not heap:
                    break
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    pop(heap)
                    queue._dead -= 1
                    queue._discarded += 1
                    continue
                if entry[0] > limit:
                    break
                pop(heap)
                event._queue = None
                now = entry[0]
                self._now = now
                event.callback(*event.args, **event.kwargs)
                executed += 1
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "probable protocol message loop"
                    )
                # Batch the run of events sharing this timestamp: the
                # clock cannot move, so the limit check and the clock
                # store are redundant until the timestamp changes.
                # Ordering is untouched — the heap pops the same total
                # (time, priority, seq) order either way — and stop()
                # still takes effect after the current event.
                while heap:
                    entry = heap[0]
                    event = entry[3]
                    if event.cancelled:
                        pop(heap)
                        queue._dead -= 1
                        queue._discarded += 1
                        continue
                    if entry[0] != now or self._stopped:
                        break
                    pop(heap)
                    event._queue = None
                    event.callback(*event.args, **event.kwargs)
                    executed += 1
                    if executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "probable protocol message loop"
                        )
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        return executed

    def run_paced(
        self,
        until: Optional[float],
        quantum: float,
        hook: Callable[["Simulator"], Any],
        max_events: int = 10_000_000,
    ) -> int:
        """Run in *quantum*-sized sim-time slices, yielding to *hook*
        between slices — the kernel half of live service mode.

        Event order and clock behaviour are identical to a single
        ``run(until=...)`` call: slicing only decides how often control
        returns to the caller, never which event runs next, so a seeded
        run stays byte-identical whether it is paced or batch.  The hook
        runs *outside* the event loop (it may sleep against the wall
        clock, publish snapshots, or request a stop by returning
        ``False``) and must not schedule events in the past.

        With ``until=None`` the loop runs until the hook stops it or
        :meth:`stop` is called; the clock still advances through idle
        quanta (``run(until=...)`` settles the clock forward even when
        the queue is empty), so a drained queue idles forward at pace
        instead of spinning.  Returns the number of events executed.
        """
        if quantum <= 0:
            raise SimulationError(
                f"pacing quantum must be > 0, got {quantum!r}"
            )
        executed = 0
        while True:
            target = self._now + quantum
            if until is not None and target > until:
                target = until
            executed += self.run(until=target, max_events=max_events)
            if hook(self) is False or self._stopped:
                break
            if until is not None and self._now >= until:
                break
        return executed

    def stop(self) -> None:
        """Stop :meth:`run` after the current event finishes."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next scheduled event, or ``None``."""
        return self._queue.peek_time()

    def run_until_true(
        self, predicate: Callable[[], bool], timeout: float = 30.0
    ) -> bool:
        """Run events until *predicate* holds or *timeout* simulated
        seconds elapse; returns the predicate's final value.  The main
        driver loop for scenario code and tests."""
        deadline = self._now + timeout
        pop_due = self._queue.pop_due
        while not predicate():
            event = pop_due(deadline)
            if event is None:
                if self._queue.peek_time() is not None:
                    self._now = deadline
                break
            self._now = event.time
            event.callback(*event.args, **event.kwargs)
        return predicate()

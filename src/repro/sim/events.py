"""Event objects and the deterministic event queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering total and deterministic: two events scheduled for the same
instant fire in the order they were scheduled, independent of callback
identity.  Determinism matters here because the integration tests compare
simulated message traces against the paper's figures step by step.

The heap stores plain ``(time, priority, seq, event)`` tuples rather than
:class:`Event` objects, so sift comparisons run as C-level tuple
comparisons instead of Python ``__lt__`` calls — the single hottest
operation in soak runs.  The unique sequence number guarantees the
``event`` element is never compared.

Accounting needs no per-event counter.  The queue counts events pushed
(``_seq``), cancelled events still in the heap (``_dead``) and events
removed without running (``_discarded``: cancelled, or cleared).  Every
other pushed event has run, so ``len(queue) == len(heap) - _dead`` and
``executed == _seq - len(heap) - _discarded``.  Whoever pops a live
event to run it sets its ``_queue`` to ``None``; a later
:meth:`Event.cancel` on the fired event then changes no count.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Simulator.schedule`;
    user code normally only keeps a reference in order to :meth:`cancel`.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "args",
        "kwargs",
        "cancelled",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        queue: "Optional[EventQueue]" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it is popped.

        The owning queue counts the event dead exactly once however the
        cancellation is reached (directly, or via
        :meth:`repro.sim.kernel.Simulator.cancel`), and not at all once
        the event has fired or the queue was cleared."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._dead += 1

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        # Flattened tuple comparison — no property call on the hot path.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} #{self.seq} {name}{state}>"


class EventQueue:
    """A binary-heap event queue with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        #: Events ever pushed; also the next sequence number.
        self._seq = 0
        #: Cancelled events still in the heap.
        self._dead = 0
        #: Events removed without running (cancelled or cleared).
        self._discarded = 0

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead

    @property
    def executed(self) -> int:
        """Events popped to run (including one running right now)."""
        return self._seq - len(self._heap) - self._discarded

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        priority: int = 0,
    ) -> Event:
        """Schedule *callback* at absolute *time* and return the event."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, kwargs or {}, self)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def _drop_dead(self) -> None:
        """Account for one cancelled event just popped off the heap."""
        self._dead -= 1
        self._discarded += 1

    def pop(self) -> Event:
        """Remove and return the next non-cancelled event, marked fired.

        Raises :class:`SimulationError` when the queue is empty.
        """
        event = self.pop_next()
        if event is None:
            raise SimulationError("pop from empty event queue")
        return event

    def pop_next(self) -> Optional[Event]:
        """Remove and return the next live event (marked fired), or
        ``None`` when empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._drop_dead()
                continue
            event._queue = None
            return event
        return None

    def pop_due(self, limit: float) -> Optional[Event]:
        """Remove and return the next live event with ``time <= limit``,
        marked fired.

        Returns ``None`` without popping when the queue is empty or the
        next live event lies beyond *limit*.  This fuses the kernel's
        peek-then-pop sequence into one heap access per executed event.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heapq.heappop(heap)
                self._drop_dead()
                continue
            if entry[0] > limit:
                return None
            heapq.heappop(heap)
            event._queue = None
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None``."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._drop_dead()
        return heap[0][0] if heap else None

    def note_cancelled(self) -> None:
        """Deprecated compatibility shim.

        Live-count accounting now happens inside :meth:`Event.cancel`
        itself, so every cancellation path (direct or via the simulator)
        is counted exactly once; calling this is a no-op."""

    def clear(self) -> None:
        """Discard every queued event without running it."""
        for entry in self._heap:
            entry[3]._queue = None
        self._discarded += len(self._heap)
        self._heap.clear()
        self._dead = 0

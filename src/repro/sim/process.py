"""Generator-based simulation processes.

Workload generators (call arrival processes, talkspurt models) are easier
to read as sequential code than as callback chains.  :func:`spawn` runs a
generator as a process: every ``yield <float>`` suspends it for that many
simulated seconds.

Processes can also block on *state changes* instead of polling: a
:class:`Signal` is a zero-cost pulse that state machines fire whenever
something observable happens, and ``yield wait_for(signal, predicate,
timeout)`` suspends the process until the predicate holds (re-checked on
every pulse) or the timeout elapses.  This removes the wake-up-and-poll
events that otherwise dominate soak-run event counts.

Example
-------
>>> from repro.sim import Simulator, spawn
>>> sim = Simulator()
>>> ticks = []
>>> def proc():
...     for i in range(3):
...         ticks.append((sim.now, i))
...         yield 1.0
>>> _ = spawn(sim, proc())
>>> sim.run()
>>> ticks
[(0.0, 0), (1.0, 1), (2.0, 2)]
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class Signal:
    """A broadcast pulse that processes can wait on.

    State machines create one per observable aspect (e.g. an MS's
    ``state_changed``) and call :meth:`fire` after every transition.
    Firing with no subscribers costs one truth test, so instrumenting a
    state machine is free until somebody actually waits.

    Subscribers are notified in subscription order, and woken processes
    are rescheduled through the simulator's event queue, so wake-up
    ordering is deterministic for a given seed.
    """

    __slots__ = ("name", "_subscribers", "fires")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._subscribers: List[Callable[[], None]] = []
        self.fires = 0

    def subscribe(self, callback: Callable[[], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[], None]) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def fire(self) -> None:
        """Notify every subscriber that the guarded state changed."""
        if not self._subscribers:
            return
        self.fires += 1
        # Snapshot: waking a process may re-subscribe or unsubscribe.
        for callback in tuple(self._subscribers):
            if callback in self._subscribers:
                callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name or id(self)} subs={len(self._subscribers)}>"


class Wait:
    """Yieldable wait request: suspend until *predicate* holds (checked
    at each *signal* pulse) or *timeout* simulated seconds elapse.

    Built by :func:`wait_for`; processes yield the instance."""

    __slots__ = ("signal", "predicate", "timeout")

    def __init__(
        self,
        signal: Signal,
        predicate: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.signal = signal
        self.predicate = predicate
        self.timeout = timeout


def wait_for(
    signal: Signal,
    predicate: Optional[Callable[[], bool]] = None,
    timeout: Optional[float] = None,
) -> Wait:
    """Build a wait request for ``yield`` inside a process: wake once a
    *signal* pulse finds *predicate* true (without a predicate, on the
    next pulse), or after *timeout* simulated seconds."""
    return Wait(signal, predicate, timeout)


class Process:
    """Handle to a spawned generator process."""

    def __init__(self, sim: Simulator, gen: Generator) -> None:
        self.sim = sim
        self.gen = gen
        self.finished = False
        self._event = None
        self._wait: Optional[Wait] = None

    def _advance(self) -> None:
        if self.finished:
            return
        self._event = None
        try:
            item = next(self.gen)
        except StopIteration:
            self.finished = True
            return
        if isinstance(item, Wait):
            self._begin_wait(item)
        elif isinstance(item, (int, float)):
            self._event = self.sim.schedule(float(item), self._advance)
        else:
            raise SimulationError(
                f"process yielded {item!r}; processes must yield delays in "
                "seconds or wait_for(...) requests"
            )

    def _begin_wait(self, wait: Wait) -> None:
        predicate = wait.predicate
        if predicate is not None and predicate():
            # Already satisfied: resume via the event queue (never
            # synchronously) so execution order stays deterministic.
            self._event = self.sim.call_soon(self._advance)
            return
        self._wait = wait
        wait.signal.subscribe(self._on_signal)
        if wait.timeout is not None:
            self._event = self.sim.schedule(wait.timeout, self._on_wait_timeout)

    def _on_signal(self) -> None:
        wait = self._wait
        if wait is None:
            return
        predicate = wait.predicate
        if predicate is not None and not predicate():
            return  # spurious pulse: keep waiting
        self._end_wait()
        self._event = self.sim.call_soon(self._advance)

    def _on_wait_timeout(self) -> None:
        # The timeout event itself is the resumption; the process
        # re-checks its predicate and handles the timeout case.
        wait = self._wait
        if wait is None:
            return
        self._wait = None
        wait.signal.unsubscribe(self._on_signal)
        self._event = None
        self._advance()

    def _end_wait(self) -> None:
        wait = self._wait
        if wait is None:
            return
        self._wait = None
        wait.signal.unsubscribe(self._on_signal)
        self.sim.cancel(self._event)  # pending timeout, if any
        self._event = None

    def interrupt(self) -> None:
        """Stop the process; its generator is closed."""
        if self.finished:
            return
        self.finished = True
        self._end_wait()
        self.sim.cancel(self._event)
        self._event = None
        self.gen.close()


def spawn(sim: Simulator, gen: Generator, delay: float = 0.0) -> Process:
    """Start *gen* as a process after *delay* seconds; returns its handle."""
    proc = Process(sim, gen)
    proc._event = sim.schedule(delay, proc._advance)
    return proc

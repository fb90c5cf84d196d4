"""Unit tests for event-driven process synchronisation (Signal/wait_for)."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.process import Signal, spawn, wait_for


class TestSignal:
    def test_fire_notifies_subscribers(self):
        sig = Signal("s")
        hits = []
        sig.subscribe(lambda: hits.append(1))
        sig.fire()
        sig.fire()
        assert hits == [1, 1]
        assert sig.fires == 2

    def test_fire_without_subscribers_is_free(self):
        sig = Signal("s")
        sig.fire()
        assert sig.fires == 0  # not even counted: nobody listened

    def test_unsubscribe_during_fire(self):
        sig = Signal("s")
        hits = []

        def once():
            hits.append("once")
            sig.unsubscribe(once)

        sig.subscribe(once)
        sig.subscribe(lambda: hits.append("always"))
        sig.fire()
        sig.fire()
        assert hits == ["once", "always", "always"]

    def test_unsubscribe_unknown_is_noop(self):
        Signal("s").unsubscribe(lambda: None)


class TestWaitFor:
    def test_wakes_on_pulse(self):
        sim = Simulator()
        sig = Signal("s")
        log = []

        def proc():
            yield wait_for(sig)
            log.append(sim.now)

        spawn(sim, proc())
        sim.schedule(3.0, sig.fire)
        sim.run()
        assert log == [3.0]

    def test_predicate_rechecked_per_pulse(self):
        sim = Simulator()
        sig = Signal("s")
        state = {"n": 0}
        log = []

        def bump():
            state["n"] += 1
            sig.fire()

        def proc():
            yield wait_for(sig, lambda: state["n"] >= 3)
            log.append((sim.now, state["n"]))

        spawn(sim, proc())
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, bump)
        sim.run()
        assert log == [(3.0, 3)]

    def test_already_true_predicate_resumes_immediately(self):
        sim = Simulator()
        sig = Signal("s")
        log = []

        def proc():
            yield wait_for(sig, lambda: True)
            log.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert log == [0.0]
        assert not sig._subscribers

    def test_timeout_resumes_without_pulse(self):
        sim = Simulator()
        sig = Signal("s")
        log = []

        def proc():
            yield wait_for(sig, lambda: False, timeout=5.0)
            log.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert log == [5.0]
        assert not sig._subscribers  # timeout cleaned the subscription up

    def test_pulse_cancels_pending_timeout(self):
        sim = Simulator()
        sig = Signal("s")
        log = []

        def proc():
            yield wait_for(sig, timeout=10.0)
            log.append(sim.now)

        spawn(sim, proc())
        sim.schedule(2.0, sig.fire)
        sim.run()
        assert log == [2.0]
        assert sim.now == 2.0  # timeout event was cancelled, clock stopped

    def test_interrupt_while_waiting_unsubscribes(self):
        sim = Simulator()
        sig = Signal("s")

        def proc():
            yield wait_for(sig)

        p = spawn(sim, proc())
        sim.run(until=0.0)
        assert sig._subscribers
        p.interrupt()
        assert not sig._subscribers
        sig.fire()  # must not resurrect the process
        sim.run()
        assert p.finished

    def test_bad_yield_type_rejected(self):
        sim = Simulator()

        def proc():
            yield "not a wait"

        spawn(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_deterministic_wakeup_order(self):
        def run():
            sim = Simulator(seed=3)
            sig = Signal("s")
            order = []

            def waiter(tag):
                yield wait_for(sig)
                order.append(tag)

            for tag in ("a", "b", "c"):
                spawn(sim, waiter(tag))
            sim.schedule(1.0, sig.fire)
            sim.run()
            return order

        assert run() == run() == ["a", "b", "c"]

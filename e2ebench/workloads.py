"""The four benchmark workloads, driven through repro's public API only.

A workload is a ``setup(seed, scale)`` that builds a fresh network and a
``run(ctx, profiler)`` that drives it and returns a :class:`Round`.
Set-up and run are timed separately.  Rounds with the same seed are the
same simulation, so every round of a run must end with the same metrics
snapshot (its ``fingerprint``); the harness checks that.

``scale`` multiplies the amount of simulated work (sim-seconds, or
lifecycles) and exists for the ``--quick`` smoke mode and the warm-up
round; the shape of each workload is otherwise fixed.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.core.workload import CallWorkload, build_population
from repro.obs.prom import render_prometheus
from repro.serve.cli import build_serve_run, finish_serve_run, make_parser

#: Entry points timed from outside, in host milliseconds per call.
TIMED = ("core.register_ms", "core.mo_call_ms", "core.mt_call_ms",
         "core.release_ms", "obs.snapshot_ms", "serve.scrape_ms")


@dataclass
class Round:
    """What one round of a workload measured and produced."""

    #: Wall seconds of the measured part (set-up excluded).
    run_s: float
    #: Simulated seconds the measured part advanced the clock.
    sim_s: float
    #: Host milliseconds of each step of each operation (the workload's
    #: unit of work); one step per operation except in lifecycle.
    op_steps: List[List[float]]
    #: ``sim.pending_events``, sampled once per simulated second (soaks),
    #: after each procedure (lifecycle) or at each publish (served).
    queue_depth: List[int]
    #: Operations that raised before completing.
    ops_failed: int
    calls_attempted: int
    calls_failed: int
    #: Invariant -> whether it held this round.
    checks: Dict[str, bool]
    timings: Dict[str, List[float]]
    setup_s: float = 0.0
    fingerprint: str = ""
    #: Deterministic per-layer counts read from the simulator.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.ops_failed == 0 and all(self.checks.values())


@dataclass
class Workload:
    name: str
    why: str
    #: What one operation (one ``op_ms`` sample) is.
    op: str
    #: Seed used when none is given on the command line.
    seed: int
    #: ``scale`` of a ``--quick`` round and of the warm-up round.
    quick_scale: float
    setup: Callable[[int, float], Dict[str, Any]]
    run: Callable[[Dict[str, Any], Optional[cProfile.Profile]], Round]

    def round(self, seed: int, scale: float = 1.0,
              profiler: Optional[cProfile.Profile] = None) -> Round:
        t0 = perf_counter()
        ctx = self.setup(seed, scale)
        setup_s = perf_counter() - t0
        rnd = self.run(ctx, profiler)
        rnd.setup_s = setup_s
        return _finish(rnd, ctx["nw"])


def _timed(samples: List[float], fn: Callable[..., Any], *args: Any) -> Any:
    t0 = perf_counter()
    result = fn(*args)
    samples.append((perf_counter() - t0) * 1e3)
    return result


@contextmanager
def _profiled(profiler: Optional[cProfile.Profile]) -> Iterator[None]:
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def sim_counts(nw: Any, calls_attempted: int) -> Dict[str, float]:
    """Deterministic per-layer counts read from the simulator after a
    round.  A change that only makes the program faster leaves every
    one of these unchanged."""
    sim = nw.sim
    counters = sim.metrics.counters()

    def total(match: Callable[[str], bool]) -> int:
        return sum(v for k, v in counters.items() if match(k))

    messages = total(lambda k: k.startswith("msgs.iface."))
    closed = sum(1 for span in sim.spans.spans if span.end is not None)
    return {
        "net.messages": messages,
        "net.messages_per_call": messages / max(calls_attempted, 1),
        "net.dropped": total(lambda k: k.startswith("link.") and ".dropped_" in k),
        "net.retries": total(lambda k: k.endswith(".retries")),
        "net.giveups": total(lambda k: k.endswith(".giveups")),
        # Packets no node handler accepted (Node.on_unhandled).
        "net.unhandled": total(lambda k: k.startswith("unhandled.")),
        "packets.wire_bytes": sum(link.tx_bytes for link in nw.net.links),
        "media.frames": _media_frames(sim),
        "obs.trace_entries": len(sim.trace.entries) + sim.trace.dropped,
        "obs.spans_closed": closed + sim.spans.dropped,
        "faults.fired": total(lambda k: k in FAULT_EVENTS),
    }


def _media_frames(sim: Any) -> int:
    return sum(h.count for h in sim.metrics.histogram_items()
               if h.name.endswith(".mouth_to_ear"))


FAULT_EVENTS = frozenset(f"fault.{kind}" for kind in (
    "link_down", "link_up", "node_crash", "node_restart",
    "impair_on", "impair_off",
))
#: Units of the :func:`sim_counts` entries that are not plain counts.
COUNT_UNITS = {"net.messages_per_call": "msg/call", "packets.wire_bytes": "bytes"}


def fingerprint(snapshot: Dict[str, Any]) -> str:
    """sha256 of the sorted final metrics snapshot."""
    text = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _finish(rnd: Round, nw: Any) -> Round:
    """The post-round reads: counts, fingerprint and the shared checks.
    The final snapshot and its Prometheus rendering are timed too, so
    the obs/serve timings have a sample on every workload."""
    rnd.counts = sim_counts(nw, rnd.calls_attempted)
    snapshot = _timed(rnd.timings["obs.snapshot_ms"], nw.sim.metrics.snapshot)
    _timed(rnd.timings["serve.scrape_ms"], render_prometheus, snapshot)
    rnd.fingerprint = fingerprint(snapshot)
    rnd.checks["net.unhandled == 0"] = rnd.counts["net.unhandled"] == 0
    rnd.checks["calls attempted > 0"] = rnd.calls_attempted > 0
    return rnd


def _new_timings() -> Dict[str, List[float]]:
    return {name: [] for name in TIMED}


# ----------------------------------------------------------------------
# signalling / voice: closed-loop CallWorkload soaks, throughput mode
# ----------------------------------------------------------------------
def _soak_setup(seed: int, scale: float, *, pairs: int, call_rate: float,
                hold_range: tuple, talk: bool,
                sim_seconds: float) -> Dict[str, Any]:
    timings = _new_timings()
    nw = build_vgprs_network(seed=seed, wire_fidelity=False)
    nw.sim.trace.enabled = False
    population = build_population(nw, size=pairs, answer_delay=1.5)
    nw.sim.run(until=0.5)
    for ms, _ in population:
        _timed(timings["core.register_ms"], scenarios.register_ms, nw, ms)
    workload = CallWorkload(nw, population, call_rate=call_rate,
                            hold_range=hold_range, talk=talk)
    return {"nw": nw, "workload": workload, "timings": timings,
            "sim_seconds": sim_seconds * scale}


def _soak_run(ctx: Dict[str, Any],
              profiler: Optional[cProfile.Profile]) -> Round:
    sim = ctx["nw"].sim
    workload = ctx["workload"]
    op_steps: List[List[float]] = []
    depth: List[int] = []
    last = 0.0

    # One operation is one simulated second: the wall time a run paced
    # at real time would spend on each one-second tick.
    def tick(sim: Any) -> None:
        nonlocal last
        now = perf_counter()
        op_steps.append([(now - last) * 1e3])
        last = now
        depth.append(sim.pending_events)

    start = sim.now
    with _profiled(profiler):
        t0 = last = perf_counter()
        workload.start()
        sim.run_paced(start + ctx["sim_seconds"], 1.0, tick)
        run_s = perf_counter() - t0
    workload.stop()
    stats = workload.stats
    # Calls still setting up when the round stops count as attempted but
    # neither connected nor failed; judge the finished ones.
    checks = {"failed calls <= 1%": stats.failed <= 0.01 * stats.attempted}
    if workload.talk:
        checks["media.frames > 0"] = _media_frames(sim) > 0
    return Round(
        run_s=run_s, sim_s=sim.now - start, op_steps=op_steps,
        queue_depth=depth, ops_failed=0, calls_attempted=stats.attempted,
        calls_failed=stats.failed, checks=checks, timings=ctx["timings"],
    )


# ----------------------------------------------------------------------
# lifecycle: one procedure chain at a time, default configuration
# ----------------------------------------------------------------------
LIFECYCLE_PAIRS = 20
LIFECYCLES = 200


def lifecycle_setup(seed: int, scale: float) -> Dict[str, Any]:
    # The default build: wire fidelity on, unbounded trace and spans --
    # what every test, example and ``repro call`` runs.
    nw = build_vgprs_network(seed=seed)
    population = build_population(nw, size=LIFECYCLE_PAIRS)
    nw.sim.run(until=0.5)
    # The seed picks each lifecycle's pair and which call goes first.
    rng = random.Random(seed)
    plan = [(population[rng.randrange(len(population))], rng.random() < 0.5)
            for _ in range(max(1, round(LIFECYCLES * scale)))]
    return {"nw": nw, "plan": plan, "timings": _new_timings()}


def lifecycle_run(ctx: Dict[str, Any],
                  profiler: Optional[cProfile.Profile]) -> Round:
    nw = ctx["nw"]
    sim = nw.sim
    plan = ctx["plan"]
    timings = ctx["timings"]

    op_steps: List[List[float]] = []
    depth: List[int] = []

    # Each procedure is one step of the current lifecycle.
    def step(timing: Optional[str], procedure: Callable[..., Any],
             *args: Any) -> None:
        t0 = perf_counter()
        procedure(*args)
        ms = (perf_counter() - t0) * 1e3
        op_steps[-1].append(ms)
        if timing is not None:
            timings[timing].append(ms)
        depth.append(sim.pending_events)

    def mo_call(ms: Any, term: Any) -> None:
        step("core.mo_call_ms", scenarios.call_ms_to_terminal, nw, ms, term)
        step("core.release_ms", scenarios.hangup_from_ms, nw, ms)

    def mt_call(ms: Any, term: Any) -> None:
        step("core.mt_call_ms", scenarios.call_terminal_to_ms, nw, term, ms)
        step("core.release_ms", scenarios.hangup_from_ms, nw, ms)

    def detach(ms: Any) -> None:
        ms.power_off()
        scenarios.settle(nw, 1.0)

    failed = 0
    start = sim.now
    with _profiled(profiler):
        t0 = perf_counter()
        try:
            for (ms, term), mo_first in plan:
                op_steps.append([])
                step("core.register_ms", scenarios.register_ms, nw, ms)
                for call in ((mo_call, mt_call) if mo_first
                             else (mt_call, mo_call)):
                    call(ms, term)
                step(None, detach, ms)
        except Exception:  # a failed procedure fails the round, not the run
            failed = 1
            op_steps.pop()
        run_s = perf_counter() - t0
    return Round(
        run_s=run_s, sim_s=sim.now - start, op_steps=op_steps,
        queue_depth=depth, ops_failed=failed,
        calls_attempted=2 * len(op_steps) + failed, calls_failed=failed,
        checks={"every lifecycle completed": len(op_steps) == len(plan)},
        timings=timings,
    )


# ----------------------------------------------------------------------
# served: the ``repro serve`` pipeline, open loop, unpaced
# ----------------------------------------------------------------------
SERVED_PAIRS = 40
SERVED_SECONDS = 300.0
SERVED_ALERT = "gkout: delta(VMSC.admission_timeouts) <= 0"
#: Every 4th publish is followed by an in-process scrape.
SCRAPE_EVERY = 4


def served_args(seed: int, duration: float) -> Any:
    """The ``python -m repro serve`` command line this workload runs.

    At 300 s: GK outage at 60, avalanche at 150, loss window 200-230,
    busy-hour period 120.  All but the outage scale with *duration*, so
    a shorter run still crosses every phase.  The 4 s outage at 60 s is
    fixed: at that point of the run it reliably leaves admission
    requests unanswered across two or more 1 s buckets, which is what
    fires the alert; earlier outages on some seeds time out a single
    bucket's worth and the alert never leaves pending.
    """
    def at(frac: float) -> str:
        return f"{duration * frac:g}"

    faults = ("at 60 link GK--IPNET down for 4; "
              f"from {at(2 / 3)} until {at(2 / 3 + 0.1)} "
              "link BSC--VMSC loss 0.02 jitter 0.002")
    return make_parser().parse_args([
        "--no-http", "--rate", "0", "--quantum", "0.25",
        "--duration", at(1.0), "--pairs", str(SERVED_PAIRS),
        "--seed", str(seed),
        "--profile-shape", "busy-hour", "--calls-per-hour", "7200",
        "--peak-calls-per-hour", "21600", "--profile-period", at(0.4),
        "--avalanche-at", at(0.5), "--avalanche-spread", "2",
        "--faults", faults, "--alert", SERVED_ALERT,
    ])


def _quiet(line: str) -> None:
    pass


def served_setup(seed: int, scale: float) -> Dict[str, Any]:
    run = build_serve_run(served_args(seed, SERVED_SECONDS * scale),
                          echo=_quiet)
    return {"nw": run.nw, "run": run, "timings": _new_timings()}


def served_run(ctx: Dict[str, Any],
               profiler: Optional[cProfile.Profile]) -> Round:
    run = ctx["run"]
    timings = ctx["timings"]
    sim = run.sim
    state = run.state
    op_steps: List[List[float]] = []
    depth: List[int] = []
    publishes = 0
    last = 0.0
    snapshot = sim.metrics.snapshot
    publish = state.publish

    # Instance-level wrappers around the loop's two public calls.  Each
    # publish ends one slice -- one "request" -- and its wall time is
    # the stall that slice would impose on a paced run.
    def timed_snapshot() -> Dict[str, Any]:
        return _timed(timings["obs.snapshot_ms"], snapshot)

    def timed_publish(*args: Any, **kwargs: Any) -> None:
        nonlocal last, publishes
        publish(*args, **kwargs)
        publishes += 1
        if publishes % SCRAPE_EVERY == 0:
            _timed(timings["serve.scrape_ms"], state.render_metrics)
        now = perf_counter()
        op_steps.append([(now - last) * 1e3])
        last = now
        depth.append(sim.pending_events)

    sim.metrics.snapshot = timed_snapshot
    state.publish = timed_publish
    start = sim.now
    try:
        with _profiled(profiler):
            t0 = last = perf_counter()
            run.loop.run()
            run_s = perf_counter() - t0
    finally:
        del sim.metrics.snapshot
        del state.publish
    code = finish_serve_run(run, echo=_quiet)
    stats = run.workload.stats
    return Round(
        run_s=run_s, sim_s=sim.now - start, op_steps=op_steps,
        queue_depth=depth, ops_failed=0, calls_attempted=stats.attempted,
        calls_failed=stats.failed,
        checks={
            "loop drained": run.loop.drained,
            # Handsets wedged mid-call by the outage are never cycled, so
            # the storm is judged by its end state: it ran, and every
            # handset it powered off attached again.
            "avalanche re-registered": stats.reregistrations > 0 and all(
                ms.registered for ms, _ in run.workload.pairs
            ),
            "alert exit code == 2": code == 2,
            "incident captured": bool(run.loop.recorder.bundles),
        },
        timings=timings,
    )


#: The ``why`` strings are copied verbatim into BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "signalling",
        "closed-loop call soak with codec and trace off: kernel, links and "
        "protocol handlers do the work; media and obs are bypassed",
        "one simulated second", 7, 0.1,
        partial(_soak_setup, pairs=20, call_rate=0.5, hold_range=(2.0, 6.0),
                talk=False, sim_seconds=600.0),
        _soak_run),
    Workload(
        "voice",
        "closed-loop soak with talk on and fluid media: the voice path, the "
        "only workload where the media layer runs",
        "one simulated second", 7, 0.1,
        partial(_soak_setup, pairs=100, call_rate=0.005,
                hold_range=(20.0, 40.0), talk=True, sim_seconds=2400.0),
        _soak_run),
    Workload(
        "lifecycle",
        "register, MO and MT call, release, power off, one at a time on the "
        "default build: the codec, trace and spans every test and example "
        "runs",
        "one full lifecycle", 7, 0.1, lifecycle_setup, lifecycle_run),
    Workload(
        "served",
        "the repro serve pipeline under open-loop load with a GK outage, a "
        "loss window, a re-registration storm and an alert: obs, serve and "
        "faults run here",
        "one serve slice (publish to publish)", 29, 1 / 3,
        served_setup, served_run),
)}

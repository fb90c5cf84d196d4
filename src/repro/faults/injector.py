"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live topology.

Everything the injector does is scheduled on the simulator at arm time,
so a fault plan is just more seeded events in the same deterministic
event loop: the same seed + plan produce byte-identical traces whether
the run is batch, paced, or a sweep worker.  Random loss/jitter draws
come from a dedicated per-link RNG stream (``fault.link.A--B``), so
arming a plan never perturbs any other consumer's draws.

Events whose time is already in the past when :meth:`FaultInjector.arm`
runs (topologies do some build-time simulation) fire immediately, in
plan order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import FaultPlanError, TopologyError
from repro.faults.plan import (
    FaultPlan,
    LinkStateFault,
    NodeCrashFault,
)
from repro.net.link import Link, LinkImpairment
from repro.net.node import Network, Node
from repro.sim.kernel import Simulator


#: Counter families every armed injector pre-registers, so scrapes and
#: alert rules see stable names from t=0 instead of counters popping
#: into existence at the first fault.
FAULT_COUNTERS = (
    "fault.link_down",
    "fault.link_up",
    "fault.node_crash",
    "fault.node_restart",
    "fault.impair_on",
    "fault.impair_off",
    "fault.unresolved",
)

#: Recovery-latency histogram families pre-registered at arm time; the
#: MTTR names SLO rules and ``repro analyze`` report on must exist (at
#: count 0) before the first recovery completes.
FAULT_HISTOGRAMS = ("fault.mttr.gk_registration",)


class FaultInjector:
    """Schedules a plan's link flips, crashes and impairments.

    ``strict=False`` skips events whose link/node the topology lacks
    (counted as ``fault.unresolved``) instead of raising — useful when
    one plan drives several sweep topologies.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        plan: FaultPlan,
        strict: bool = True,
    ) -> None:
        self.sim = sim
        self.net = net
        self.plan = plan
        self.strict = strict
        self.armed = False
        # Links a crash took down, so restart restores exactly those and
        # leaves links downed by other plan events alone.
        self._crashed_links: Dict[str, List[Link]] = {}

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _link(self, a: str, b: str) -> Link:
        return self.net.node(a).link_to(self.net.node(b))

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Resolve every event against the topology and schedule it."""
        if self.armed:
            raise FaultPlanError("fault injector already armed")
        self.armed = True
        for name in FAULT_COUNTERS:
            self.sim.metrics.counter(name)
        for name in FAULT_HISTOGRAMS:
            self.sim.metrics.histogram(name)
        # The armed plan rides the trace so passive observers (the
        # flight recorder) can embed it in incident bundles without a
        # side channel to the injector.
        self.sim.trace.note(
            "FAULTS",
            "FAULT_PLAN_ARMED",
            events=self.plan.to_json_events(),
            n_events=len(self.plan),
        )
        now = self.sim.now
        for event in self.plan.events:
            try:
                if isinstance(event, LinkStateFault):
                    link = self._link(event.a, event.b)
                    label = f"{event.a}--{event.b}"
                    if event.action == "down":
                        self.sim.schedule_at(
                            max(event.at, now), self._link_down, link, label
                        )
                        if event.duration is not None:
                            self.sim.schedule_at(
                                max(event.at + event.duration, now),
                                self._link_up, link, label,
                            )
                    else:
                        self.sim.schedule_at(
                            max(event.at, now), self._link_up, link, label
                        )
                elif isinstance(event, NodeCrashFault):
                    node = self.net.node(event.node)
                    self.sim.schedule_at(max(event.at, now), self._crash, node)
                    if event.restart_after is not None:
                        self.sim.schedule_at(
                            max(event.at + event.restart_after, now),
                            self._restart, node,
                        )
                else:
                    link = self._link(event.a, event.b)
                    label = f"{event.a}--{event.b}"
                    self.sim.schedule_at(
                        max(event.start, now),
                        self._impair, link, label, event.loss, event.jitter,
                    )
                    if event.until is not None:
                        self.sim.schedule_at(
                            max(event.until, now), self._unimpair, link, label
                        )
            except TopologyError as exc:
                if self.strict:
                    raise FaultPlanError(
                        f"fault plan does not match topology: {exc}"
                    ) from exc
                self.sim.metrics.counter("fault.unresolved").inc()
        return self

    # ------------------------------------------------------------------
    # Fault actions (all run as simulator events)
    # ------------------------------------------------------------------
    def _link_down(self, link: Link, label: str) -> None:
        if not link.up:
            return
        link.up = False
        self.sim.metrics.counter("fault.link_down").inc()
        self.sim.trace.note(
            "FAULTS", "FAULT_LINK_DOWN", link=label, interface=link.interface
        )

    def _link_up(self, link: Link, label: str) -> None:
        if link.up:
            return
        link.up = True
        self.sim.metrics.counter("fault.link_up").inc()
        self.sim.trace.note(
            "FAULTS", "FAULT_LINK_UP", link=label, interface=link.interface
        )

    def _crash(self, node: Node) -> None:
        was_up: List[Link] = []
        for link in node.all_links():
            if link.up:
                link.up = False
                was_up.append(link)
        self._crashed_links[node.name] = was_up
        self.sim.metrics.counter("fault.node_crash").inc()
        self.sim.trace.note("FAULTS", "FAULT_NODE_CRASH", name=node.name)
        node.on_crash()

    def _restart(self, node: Node) -> None:
        for link in self._crashed_links.pop(node.name, []):
            link.up = True
        self.sim.metrics.counter("fault.node_restart").inc()
        self.sim.trace.note("FAULTS", "FAULT_NODE_RESTART", name=node.name)
        node.on_restart()

    def _impair(self, link: Link, label: str, loss: float, jitter: float) -> None:
        link.impairment = LinkImpairment(
            loss=loss,
            jitter=jitter,
            rng=self.sim.rng.stream(f"fault.link.{label}"),
            drops=self.sim.metrics.counter(
                f"link.{link.interface}.dropped_loss"
            ),
        )
        self.sim.metrics.counter("fault.impair_on").inc()
        self.sim.trace.note(
            "FAULTS", "FAULT_IMPAIR_ON", link=label, loss=loss, jitter=jitter
        )

    def _unimpair(self, link: Link, label: str) -> None:
        if link.impairment is None:
            return
        link.impairment = None
        self.sim.metrics.counter("fault.impair_off").inc()
        self.sim.trace.note("FAULTS", "FAULT_IMPAIR_OFF", link=label)


def apply_faults(
    nw: object, faults: object, strict: bool = True
) -> Tuple[FaultInjector, ...]:
    """Convenience for CLI/sweep wiring: parse *faults* (a plan, plan
    text, or ``None``) and arm it on a built network object exposing
    ``sim`` and ``net``.  Returns the armed injectors (empty for no
    plan)."""
    if not faults:
        return ()
    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.parse(str(faults))
    if not plan:
        return ()
    sim = getattr(nw, "sim")
    net = getattr(nw, "net")
    injector = FaultInjector(sim, net, plan, strict=strict).arm()
    return (injector,)

"""Point-to-point links.

A :class:`Link` joins two nodes over a named interface with a one-way
latency.  Delivery is scheduled on the simulator; at delivery time the
message is recorded in the trace (so trace order equals arrival order,
matching how the paper's message-sequence figures read) and handed to the
receiver's dispatch method.

With ``wire_fidelity`` enabled the receiver gets what re-parsing the
serialised packet would give (:meth:`Packet.wire_copy`), so encode/decode
bugs surface in every integration test rather than only in codec unit
tests.  The round trip's snapshot (bytes and correlation items) travels
with the delivery to the trace (:meth:`TraceRecorder.record_wire`),
which keeps the bytes instead of building the info dict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.packets.base import Packet, WireSnapshot


class LinkImpairment:
    """Seeded random loss/jitter installed on a link by the fault
    injector (``repro.faults``).

    Draws come from a dedicated per-link RNG stream so impairing one
    link never perturbs any other consumer's randomness; lost frames are
    counted (``link.<iface>.dropped_loss``) but not traced — loss under
    load would otherwise swamp the trace.
    """

    __slots__ = ("loss", "jitter", "rng", "drops")

    def __init__(self, loss: float, jitter: float, rng, drops) -> None:
        self.loss = loss
        self.jitter = jitter
        self.rng = rng
        self.drops = drops


class Link:
    """A bidirectional link between nodes *a* and *b*.

    Parameters
    ----------
    latency:
        One-way propagation plus processing delay, seconds.
    bit_rate:
        Optional serialisation rate in bits/second; when set, the built
        packet length adds transmission delay.
    wire_fidelity:
        Deliver the packet's wire round trip instead of the object sent.
    """

    def __init__(
        self,
        sim,
        a: "Node",
        b: "Node",
        interface: str,
        latency: float,
        bit_rate: Optional[float] = None,
        wire_fidelity: bool = False,
    ) -> None:
        if a is b:
            raise TopologyError(f"cannot link node {a.name!r} to itself")
        if latency < 0:
            raise TopologyError(f"negative latency {latency!r}")
        self.sim = sim
        self.a = a
        self.b = b
        self.interface = interface
        self.latency = latency
        self.bit_rate = bit_rate
        self.wire_fidelity = wire_fidelity
        self.up = True
        #: Optional :class:`LinkImpairment`; ``None`` keeps the hot path
        #: at a single attribute load (same pattern as ``sim.hops``).
        self.impairment: Optional[LinkImpairment] = None
        self.tx_count = 0
        self.tx_bytes = 0
        # Per-transmit counters, resolved once: three registry lookups
        # per message otherwise show up in soak profiles.
        metrics = sim.metrics
        self._ctr_iface = metrics.counter(f"msgs.iface.{interface}")
        self._ctr_drop_down = metrics.counter(f"link.{interface}.dropped_down")
        self._ctr_tx = {
            a.name: metrics.counter(f"msgs.tx.{a.name}"),
            b.name: metrics.counter(f"msgs.tx.{b.name}"),
        }
        self._ctr_rx = {
            a.name: metrics.counter(f"msgs.rx.{a.name}"),
            b.name: metrics.counter(f"msgs.rx.{b.name}"),
        }

    def peer_of(self, node: "Node") -> "Node":
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise TopologyError(f"{node.name!r} is not an endpoint of {self!r}")

    def transmit(self, src: "Node", packet: "Packet") -> None:
        """Send *packet* from *src* to the other endpoint."""
        # Inlined peer_of: one branch instead of a call per message.
        if src is self.a:
            dst = self.b
        elif src is self.b:
            dst = self.a
        else:
            raise TopologyError(f"{src.name!r} is not an endpoint of {self!r}")
        if not self.up:
            # A downed link must not vanish packets silently: count the
            # drop and leave a trace entry so failure tests can assert on
            # exactly what was lost.
            self._ctr_drop_down.inc()
            trace = self.sim.trace
            if trace.enabled:
                name = packet.flow_name()
                if name not in trace.quiet_names:
                    trace.record(
                        "drop", src.name, dst.name, self.interface, name,
                        reason="link_down",
                    )
            return
        imp = self.impairment
        if imp is not None and imp.loss > 0.0 and imp.rng.random() < imp.loss:
            imp.drops.inc()
            return
        delay = self.latency
        payload = packet
        snapshot: Optional["WireSnapshot"] = None
        if self.wire_fidelity or self.bit_rate:
            if self.wire_fidelity:
                # Every layer is encoded or re-emitted, as build() does;
                # each distinct encoding is decoded once per process.
                payload, snapshot = packet.wire_copy()
                size = len(snapshot[0])
            else:
                size = len(packet.build())
            self.tx_bytes += size
            if self.bit_rate:
                delay += size * 8.0 / self.bit_rate
        if imp is not None and imp.jitter > 0.0:
            delay += imp.rng.random() * imp.jitter
        self.tx_count += 1
        self._ctr_iface.inc()
        self._ctr_tx[src.name].inc()
        self._ctr_rx[dst.name].inc()
        hops = self.sim.hops
        if hops is not None:
            hops.on_transmit(src, dst, self.interface, packet, delay)
        self.sim.schedule(delay, self._deliver, payload, src, dst, snapshot)

    def _deliver(
        self,
        packet: "Packet",
        src: "Node",
        dst: "Node",
        snapshot: Optional["WireSnapshot"],
    ) -> None:
        trace = self.sim.trace
        if trace.enabled:
            # Resolve the flow name before building the (comparatively
            # expensive) info dict, so quiet messages pay almost nothing.
            name = packet.flow_name()
            if name not in trace.quiet_names:
                if snapshot is None:
                    trace.record(
                        "msg",
                        src.name,
                        dst.name,
                        self.interface,
                        name,
                        **packet.trace_info(),
                    )
                else:
                    trace.record_wire(
                        src.name, dst.name, self.interface, name, snapshot
                    )
        dst.receive(packet, src, self.interface)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Link {self.a.name}<->{self.b.name} iface={self.interface} "
            f"latency={self.latency}>"
        )

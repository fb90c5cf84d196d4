"""Node base class, handler dispatch and the network container.

Every network element (MS, BTS, BSC, VMSC, SGSN, GGSN, gatekeeper, ...)
subclasses :class:`Node` and declares message handlers with the
:func:`handles` decorator::

    class Vlr(Node):
        @handles(MapUpdateLocationArea)
        def on_update_location_area(self, msg, src, iface):
            ...

Dispatch walks the packet class's MRO, so a handler registered for a base
message class catches subclasses as well.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.errors import TopologyError
from repro.net.link import Link
from repro.sim.kernel import Simulator


def handles(*packet_types: type) -> Callable:
    """Mark a method as the handler for the given packet classes."""

    def decorate(fn: Callable) -> Callable:
        existing = list(getattr(fn, "_handles_types", ()))
        existing.extend(packet_types)
        fn._handles_types = tuple(existing)
        return fn

    return decorate


class Node:
    """A network element: owns links and dispatches received messages."""

    _handler_cache: Dict[type, Dict[type, str]] = {}

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        # interface -> list of links (a BSC has one A link but a PSTN
        # switch may have several trunks on the same interface name)
        self._links: Dict[str, List[Link]] = {}
        self.network: Optional["Network"] = None
        # (peer name, interface) -> Link, filled on first send; cleared
        # whenever topology changes.  Route resolution is per-message on
        # the hot path.
        self._route_cache: Dict[Tuple[str, Optional[str]], Link] = {}
        # interface -> its single peer, filled by peer(); cleared with
        # the route cache.  Links are never detached (a crash only takes
        # them down), so an entry stays valid until the next attach.
        self._peer_cache: Dict[str, "Node"] = {}
        # packet type -> bound handler (or None for unhandled), filled on
        # first receive of each type; avoids the MRO walk per message.
        self._dispatch_cache: Dict[type, Optional[Callable]] = {}

    # ------------------------------------------------------------------
    # Handler registry
    # ------------------------------------------------------------------
    @classmethod
    def _handlers(cls) -> Dict[type, str]:
        table = Node._handler_cache.get(cls)
        if table is None:
            table = {}
            for klass in reversed(cls.__mro__):
                for attr_name, attr in vars(klass).items():
                    for ptype in getattr(attr, "_handles_types", ()):
                        table[ptype] = attr_name
            Node._handler_cache[cls] = table
        return table

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        self._links.setdefault(link.interface, []).append(link)
        self._route_cache.clear()
        self._peer_cache.clear()

    def links_on(self, interface: str) -> List[Link]:
        return self._links.get(interface, [])

    def all_links(self) -> List[Link]:
        """Every link attached to this node, in attach order."""
        return [link for links in self._links.values() for link in links]

    def link_to(self, peer: Union["Node", str], interface: Optional[str] = None) -> Link:
        """Find the link toward *peer*, optionally constrained to an
        interface name.  Raises :class:`TopologyError` if absent."""
        peer_name = peer if isinstance(peer, str) else peer.name
        link = self._route_cache.get((peer_name, interface))
        if link is not None:
            return link
        candidates = (
            self._links.get(interface, [])
            if interface is not None
            else [l for links in self._links.values() for l in links]
        )
        for link in candidates:
            if link.peer_of(self).name == peer_name:
                self._route_cache[(peer_name, interface)] = link
                return link
        raise TopologyError(
            f"{self.name!r} has no link to {peer_name!r}"
            + (f" on interface {interface!r}" if interface else "")
        )

    def peer(self, interface: str) -> "Node":
        """The single peer on *interface*; raises if none or ambiguous."""
        peer = self._peer_cache.get(interface)
        if peer is not None:
            return peer
        links = self.links_on(interface)
        if len(links) != 1:
            raise TopologyError(
                f"{self.name!r} has {len(links)} links on {interface!r}, expected 1"
            )
        peer = self._peer_cache[interface] = links[0].peer_of(self)
        return peer

    def peers(self, interface: str) -> List["Node"]:
        return [l.peer_of(self) for l in self.links_on(interface)]

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        dst: Union["Node", str],
        packet,
        interface: Optional[str] = None,
    ) -> None:
        """Transmit *packet* to the directly connected node *dst*."""
        self.link_to(dst, interface).transmit(self, packet)

    def receive(self, packet, src: "Node", interface: str) -> None:
        """Dispatch an arriving packet to the registered handler."""
        ptype = type(packet)
        cache = self._dispatch_cache
        if ptype in cache:
            handler = cache[ptype]
            if handler is None:
                self.on_unhandled(packet, src, interface)
            else:
                handler(packet, src, interface)
            return
        table = type(self)._handlers()
        for klass in ptype.__mro__:
            attr_name = table.get(klass)
            if attr_name is not None:
                handler = getattr(self, attr_name)
                cache[ptype] = handler
                handler(packet, src, interface)
                return
        cache[ptype] = None
        self.on_unhandled(packet, src, interface)

    def on_crash(self) -> None:
        """Fault-injection hook: the node lost power.  The injector has
        already flipped the node's links down; subclasses discard the
        volatile state a real restart would lose (the SGSN drops its
        MM/PDP contexts, for example).  Default: stateless node."""

    def on_restart(self) -> None:
        """Fault-injection hook: the node came back (links restored by
        the injector just before this call).  Default: nothing —
        recovery is the *peers'* job (retransmission, re-registration),
        which is exactly what the fault scenarios measure."""

    def on_unhandled(self, packet, src: "Node", interface: str) -> None:
        """Default: count and trace-note unhandled packets.

        Procedures that *must not* lose messages assert on this counter in
        tests; silently dropping would hide protocol wiring bugs.
        """
        self.sim.metrics.counter(f"unhandled.{self.name}").inc()
        self.sim.trace.note(
            self.name,
            f"UNHANDLED {packet.flow_name()}",
            src=src.name,
            interface=interface,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


NodeT = TypeVar("NodeT", bound=Node)


class Network:
    """Container of nodes and links; the topology factory."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []

    def add(self, node: NodeT) -> NodeT:
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.network = self
        return node

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def connect(
        self,
        a: Union[Node, str],
        b: Union[Node, str],
        interface: str,
        latency: float,
        bit_rate: Optional[float] = None,
        wire_fidelity: bool = False,
    ) -> Link:
        """Create a bidirectional link and register it on both endpoints."""
        node_a = self.node(a) if isinstance(a, str) else a
        node_b = self.node(b) if isinstance(b, str) else b
        link = Link(
            self.sim,
            node_a,
            node_b,
            interface,
            latency,
            bit_rate=bit_rate,
            wire_fidelity=wire_fidelity,
        )
        node_a.attach_link(link)
        node_b.attach_link(link)
        self.links.append(link)
        return link

    def inventory(self) -> List[Tuple[str, str]]:
        """``(name, type)`` for every node — used by experiment E1."""
        return [(name, type(node).__name__) for name, node in sorted(self.nodes.items())]

    def link_table(self) -> List[Tuple[str, str, str, float]]:
        """``(a, b, interface, latency)`` for every link."""
        return [(l.a.name, l.b.name, l.interface, l.latency) for l in self.links]

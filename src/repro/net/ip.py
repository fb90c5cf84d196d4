"""The IP backbone.

:class:`IPCloud` models the packet data network of Figure 1 (PSDN) and the
H.323 network of Figure 2(b): hosts (GGSN, gatekeeper, H.323 terminals,
the H.323/PSTN gateway) connect to the cloud and register the IPv4
addresses they answer for; the cloud forwards IPv4 packets to the owner
of the destination address.

The GGSN registers every PDP address it allocates so that downlink
packets for mobile subscribers (e.g. the Q.931 Setup of paper step 4.2)
are routed back into the GPRS network.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import RoutingError
from repro.identities import IPv4Address
from repro.net.node import Node, handles
from repro.packets.ip import IPv4


class IPCloud(Node):
    """A one-hop abstraction of an IP backbone with a fixed transit
    latency (the latency lives on the attached links)."""

    def __init__(self, sim, name: str = "IPNET") -> None:
        super().__init__(sim, name)
        self._owners: Dict[IPv4Address, str] = {}

    def register(self, address: IPv4Address, owner: Node) -> None:
        """Declare that packets for *address* go to *owner* (which must be
        directly attached to the cloud)."""
        self._owners[address] = owner.name

    def unregister(self, address: IPv4Address) -> None:
        self._owners.pop(address, None)

    def owner_of(self, address: IPv4Address) -> str:
        try:
            return self._owners[address]
        except KeyError:
            raise RoutingError(f"no host owns {address}") from None

    @handles(IPv4)
    def on_ip(self, packet: IPv4, src: Node, interface: str) -> None:
        owner = self._owners.get(packet.dst)
        if owner is None:
            self.sim.metrics.counter("ip.no_route").inc()
            self.sim.trace.note(self.name, "IP_NO_ROUTE", dst=str(packet.dst))
            return
        if packet.ttl <= 1:
            self.sim.metrics.counter("ip.ttl_expired").inc()
            return
        # Re-header without deep-copying the payload chain (packets are
        # treated as immutable by receivers; wire-fidelity links deliver
        # copies anyway).  Media-heavy simulations cross here per RTP frame.
        fwd = IPv4(
            src=packet.src, dst=packet.dst,
            ttl=packet.ttl - 1, protocol=packet.protocol,
        )
        fwd.payload = packet.payload
        self.send(owner, fwd)

"""IP endpoints: the receive step every IP-speaking node shares, and hosts.

:class:`IpReceiver` strips the transport layers off an arriving IP packet
and re-dispatches the application message through the node's normal
handler table, keeping the source address/port available through
:attr:`rx_ip` / :meth:`rx_reply_addr` for the duration of the handler.
Nodes that receive IP inside a GPRS tunnel (the VMSC, the 3G TR handset)
unwrap through this same step.  :class:`IpHost` adds an address and a
send path (the gatekeeper and every H.323 endpoint).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.identities import IPv4Address
from repro.net.interfaces import Interface
from repro.net.node import Node, handles
from repro.packets.base import Packet
from repro.packets.ip import IPv4, TCPLite, UDP


def ip_datagram(
    src: IPv4Address,
    dst: IPv4Address,
    message: Packet,
    dport: int,
    sport: int,
    tcp: bool = False,
) -> IPv4:
    """``IPv4 / (TCP|UDP) / message`` from *src* to *dst*."""
    transport = (
        TCPLite(sport=sport, dport=dport) if tcp else UDP(sport=sport, dport=dport)
    )
    return IPv4(src=src, dst=dst) / transport / message


class IpReceiver(Node):
    """A node that receives application messages carried in IP."""

    rx_ip: Optional[IPv4] = None
    rx_sport: int = 0

    def deliver_ip(self, packet: IPv4, src: Node, interface: str) -> None:
        """Strip UDP/TCP from *packet* and dispatch what it carries."""
        inner: Optional[Packet] = packet.payload
        sport = 0
        while isinstance(inner, (UDP, TCPLite)):
            sport = inner.sport
            inner = inner.payload
        if inner is None:
            self.sim.metrics.counter(f"{self.name}.empty_ip").inc()
            return
        prev_ip, prev_sport = self.rx_ip, self.rx_sport
        self.rx_ip, self.rx_sport = packet, sport
        try:
            self.receive(inner, src, interface)
        finally:
            self.rx_ip, self.rx_sport = prev_ip, prev_sport

    def rx_reply_addr(self) -> Tuple[IPv4Address, int]:
        """Source address/port of the message currently being handled."""
        assert self.rx_ip is not None, "rx_reply_addr outside a handler"
        return self.rx_ip.src, self.rx_sport


class IpHost(IpReceiver):
    """A host with one IPv4 address.

    By default the host sits on the IP cloud and sends bare datagrams;
    a host reached another way (the 3G TR handset, over the GPRS radio)
    overrides :meth:`_uplink` and :meth:`_frame`.
    """

    def __init__(self, sim, name: str, ip: IPv4Address) -> None:
        super().__init__(sim, name)
        self.ip = ip

    def attach_to_cloud(self) -> None:
        """Register this host's address with the cloud (idempotent)."""
        self.peer(Interface.IP).register(self.ip, self)

    @handles(IPv4)
    def on_ip(self, packet: IPv4, src: Node, interface: str) -> None:
        self.deliver_ip(packet, src, interface)

    def _uplink(self) -> Union[Node, str]:
        """The first hop every datagram this host sends takes."""
        return self.peer(Interface.IP)

    def _frame(self, datagram: IPv4) -> Packet:
        """The link-layer frame that carries *datagram* to :meth:`_uplink`."""
        return datagram

    def send_ip(
        self,
        dst: IPv4Address,
        message: Packet,
        dport: int,
        sport: int = 0,
        tcp: bool = False,
    ) -> None:
        self.send(
            self._uplink(),
            self._frame(ip_datagram(self.ip, dst, message, dport, sport or dport, tcp)),
        )

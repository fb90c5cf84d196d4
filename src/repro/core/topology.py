"""Topology as data: the one wiring path of the five networks.

Each link of Figures 1-3, 7, 8, 9 and the §6 3G TR baseline is one row
``(a, b, interface, LatencyProfile field)`` handed to :func:`wire`, with
the codec mode (``wire_fidelity``) fixed once per network.  Row order is
link order, which sets route and trunk choice.  The sub-assemblies the
builders share are built here, once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.gprs.ggsn import Ggsn
from repro.gprs.sgsn import Sgsn
from repro.gsm.bsc import Bsc
from repro.gsm.bts import Bts
from repro.gsm.hlr import Hlr
from repro.gsm.ms import MobileStation
from repro.gsm.subscriber import SubscriberProfile, SubscriberRecord
from repro.h323.gatekeeper import Gatekeeper
from repro.h323.terminal import H323Terminal
from repro.identities import IMSI, E164Number, IPv4Address
from repro.net.interfaces import Interface
from repro.net.ip import IPCloud
from repro.net.node import Network, Node
from repro.pstn.phone import PstnPhone
from repro.pstn.switch import PstnSwitch


@dataclass(frozen=True)
class LatencyProfile:
    """One-way link latencies in seconds.

    Defaults approximate a year-2000 deployment: a slow radio interface,
    E1-connected BSS, SS7 signalling links, frame-relay Gb and a regional
    IP backbone.  Experiments sweep individual entries (E8 sweeps the
    core/IP latencies; E9 loads the radio interface).
    """

    um: float = 0.010
    abis: float = 0.002
    a: float = 0.002
    ss7: float = 0.004          # B, C, D, E, Gr MAP links
    gb: float = 0.003
    gn: float = 0.004
    gi: float = 0.004
    ip: float = 0.008           # cloud <-> host
    isup: float = 0.006
    international: float = 0.070

    def scaled_core(self, factor: float) -> "LatencyProfile":
        """A copy with the packet-core latencies (Gb/Gn/Gi/IP) scaled —
        the E8 sweep axis."""
        return replace(
            self, gb=self.gb * factor, gn=self.gn * factor,
            gi=self.gi * factor, ip=self.ip * factor,
        )


#: Default IP addressing for the H.323 side.
GK_IP = IPv4Address.parse("192.0.2.1")
GATEWAY_IP = IPv4Address.parse("192.0.2.5")
TERMINAL_IP_BASE = IPv4Address.parse("192.0.2.10")

#: One link: endpoints, interface and the :class:`LatencyProfile` field
#: that gives its delay.
Row = Tuple[Node, Node, str, str]


def wire(
    net: Network,
    latencies: LatencyProfile,
    links: Sequence[Row],
    wire_fidelity: bool,
) -> None:
    """Create one link per row, in row order."""
    for a, b, interface, latency in links:
        net.connect(
            a, b, interface, getattr(latencies, latency),
            wire_fidelity=wire_fidelity,
        )


def packet_core(
    net: Network,
    latencies: LatencyProfile,
    wire_fidelity: bool,
    gk_max_calls: Optional[int] = None,
    remember_released: bool = False,
    ready_timeout: Optional[float] = None,
) -> Tuple[IPCloud, Gatekeeper, Ggsn, Sgsn]:
    """The IP cloud with its gatekeeper, and the GGSN/SGSN pair behind
    it on Gi/Gn: the part of Figure 2(b) the vGPRS and 3G TR networks
    share."""
    sim = net.sim
    cloud = net.add(IPCloud(sim, "IPNET"))
    gk = net.add(Gatekeeper(sim, "GK", ip=GK_IP,
                            max_concurrent_calls=gk_max_calls))
    ggsn = net.add(Ggsn(sim, "GGSN", remember_released=remember_released))
    sgsn = net.add(Sgsn(sim, "SGSN", ready_timeout=ready_timeout))
    wire(net, latencies, [
        (gk, cloud, Interface.IP, "ip"),
        (ggsn, cloud, Interface.GI, "gi"),
        (sgsn, ggsn, Interface.GN, "gn"),
    ], wire_fidelity)
    gk.attach_to_cloud()
    return cloud, gk, ggsn, sgsn


def bss(
    net: Network,
    bsc: Bsc,
    bts_names: Sequence[str],
    packet_channel_bps: Optional[float] = 4 * 13_400.0,
) -> Tuple[List[Bts], List[Row]]:
    """Add *bsc* and one BTS per name; returns the cells and their Abis
    rows (the caller places the BSC's uplink row)."""
    net.add(bsc)
    btss = [net.add(Bts(net.sim, name, packet_channel_bps=packet_channel_bps))
            for name in bts_names]
    return btss, [(bts, bsc, Interface.ABIS, "abis") for bts in btss]


def cover(nw: Any, ms: Node, bts: Node) -> None:
    """Give *ms* radio visibility of *bts* (one Um link)."""
    wire(nw.net, nw.latencies, [(ms, bts, Interface.UM, "um")],
         nw.wire_fidelity)


def provision_ms(
    nw: Any,
    hlr: Hlr,
    name: str,
    imsi: str,
    msisdn: str,
    bts: Bts,
    lai: str,
    answer_delay: float,
    international_allowed: bool = True,
    use_tmsi_for_updates: bool = False,
) -> MobileStation:
    """Provision a subscriber in *hlr* and camp its handset on *bts*."""
    subscriber = SubscriberRecord(
        imsi=IMSI(imsi),
        msisdn=E164Number.parse(msisdn),
        profile=SubscriberProfile(international_allowed=international_allowed),
    )
    hlr.add_subscriber(subscriber)
    ms = nw.net.add(MobileStation(
        nw.sim,
        name,
        imsi=subscriber.imsi,
        msisdn=subscriber.msisdn,
        ki=subscriber.ki,
        serving_bts=bts.name,
        lai=lai,
        answer_delay=answer_delay,
        use_tmsi_for_updates=use_tmsi_for_updates,
    ))
    cover(nw, ms, bts)
    return ms


def attach_terminal(
    nw: Any, name: str, alias: str, answer_delay: float = 1.0
) -> H323Terminal:
    """Attach an H.323 terminal to *nw*'s IP cloud and register it with
    the gatekeeper: the ``add_terminal`` of the vGPRS and 3G TR
    networks."""
    nw._terminal_count += 1
    ip = IPv4Address(TERMINAL_IP_BASE.value + nw._terminal_count)
    terminal = nw.net.add(H323Terminal(
        nw.sim,
        name,
        ip=ip,
        alias=E164Number.parse(alias),
        gk_ip=nw.gk.ip,
        answer_delay=answer_delay,
    ))
    wire(nw.net, nw.latencies, [(terminal, nw.cloud, Interface.IP, "ip")],
         nw.wire_fidelity)
    terminal.register()
    nw.terminals[name] = terminal
    return terminal


def attach_phone(
    nw: Any,
    exchange: PstnSwitch,
    name: str,
    number: str,
    answer_delay: float,
    latency: float,
) -> PstnPhone:
    """A fixed-line subscriber on *exchange*, over the one link that
    :func:`wire` does not build: the subscriber loop has always run with
    wire fidelity off, and ``link.tx_bytes`` (the benchmark's
    ``packets.wire_bytes``) depends on it staying off."""
    phone = nw.net.add(PstnPhone(
        nw.sim, name, E164Number.parse(number), answer_delay=answer_delay
    ))
    nw.net.connect(phone, exchange, Interface.ISUP, latency)
    exchange.add_local(phone.number, phone.name)
    return phone

"""vGPRS network builder (Figures 1-3).

Constructs the full topology — MS/BTS/BSC on the radio side, VMSC, VLR,
HLR, SGSN, GGSN, the IP cloud, a standard gatekeeper and H.323 terminals
— with one :class:`LatencyProfile` controlling every link delay, so the
experiments can sweep network conditions reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import TopologyError
from repro.identities import IMSI, E164Number, IPv4Address
from repro.core.vmsc import Vmsc
from repro.gprs.ggsn import Ggsn
from repro.gprs.sgsn import Sgsn
from repro.gsm.bsc import Bsc
from repro.gsm.bts import Bts
from repro.gsm.hlr import Hlr
from repro.gsm.ms import MobileStation
from repro.gsm.subscriber import SubscriberProfile, SubscriberRecord
from repro.gsm.vlr import Vlr
from repro.h323.gatekeeper import Gatekeeper
from repro.h323.terminal import H323Terminal
from repro.net.interfaces import Interface
from repro.net.ip import IPCloud
from repro.net.node import Network
from repro.pstn.phone import PstnPhone
from repro.pstn.switch import PstnSwitch
from repro.sim.kernel import Simulator


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
        return LatencyProfile(
            um=self.um,
            abis=self.abis,
            a=self.a,
            ss7=self.ss7,
            gb=self.gb * factor,
            gn=self.gn * factor,
            gi=self.gi * factor,
            ip=self.ip * factor,
            isup=self.isup,
            international=self.international,
        )


#: Default IP addressing for the H.323 side.
GK_IP = IPv4Address.parse("192.0.2.1")
GATEWAY_IP = IPv4Address.parse("192.0.2.5")
TERMINAL_IP_BASE = IPv4Address.parse("192.0.2.10")


def attach_terminal(
    nw: Any, name: str, alias: str, answer_delay: float, wire_fidelity: bool
) -> H323Terminal:
    """Attach an H.323 terminal to *nw*'s IP cloud and register it with
    the gatekeeper: the ``add_terminal`` of the vGPRS and 3G TR
    networks."""
    nw._terminal_count += 1
    ip = IPv4Address(TERMINAL_IP_BASE.value + nw._terminal_count)
    terminal = H323Terminal(
        nw.sim,
        name,
        ip=ip,
        alias=E164Number.parse(alias),
        gk_ip=nw.gk.ip,
        answer_delay=answer_delay,
    )
    nw.net.add(terminal)
    nw.net.connect(
        terminal, nw.cloud, Interface.IP, nw.latencies.ip,
        wire_fidelity=wire_fidelity,
    )
    terminal.register()
    nw.terminals[name] = terminal
    return terminal


@dataclass
class VgprsNetwork:
    """A constructed vGPRS network plus handles to every element."""

    sim: Simulator
    net: Network
    latencies: LatencyProfile
    country_code: str
    cloud: IPCloud
    gk: Gatekeeper
    ggsn: Ggsn
    sgsn: Sgsn
    vmsc: Vmsc
    vlr: Vlr
    hlr: Hlr
    wire_fidelity: bool = True
    bscs: List[Bsc] = field(default_factory=list)
    btss: List[Bts] = field(default_factory=list)
    mss: Dict[str, MobileStation] = field(default_factory=dict)
    terminals: Dict[str, H323Terminal] = field(default_factory=dict)
    #: Local exchange wired to the VMSC's ISUP trunk when the network is
    #: built with ``with_pstn=True`` — the fallback path for calls the
    #: H.323 side cannot carry during a gatekeeper outage.
    pstn: Optional[PstnSwitch] = None
    phones: Dict[str, PstnPhone] = field(default_factory=dict)
    _terminal_count: int = 0

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_ms(
        self,
        name: str,
        imsi: str,
        msisdn: str,
        bts: Optional[Bts] = None,
        answer_delay: float = 1.0,
        international_allowed: bool = True,
        use_tmsi_for_updates: bool = False,
    ) -> MobileStation:
        """Provision a subscriber in the HLR and attach a handset to a
        cell."""
        bts = bts if bts is not None else self.btss[0]
        subscriber = SubscriberRecord(
            imsi=IMSI(imsi),
            msisdn=E164Number.parse(msisdn),
            profile=SubscriberProfile(international_allowed=international_allowed),
        )
        self.hlr.add_subscriber(subscriber)
        ms = MobileStation(
            self.sim,
            name,
            imsi=subscriber.imsi,
            msisdn=subscriber.msisdn,
            ki=subscriber.ki,
            serving_bts=bts.name,
            lai=f"LAI-{self.country_code}-1",
            answer_delay=answer_delay,
            use_tmsi_for_updates=use_tmsi_for_updates,
        )
        self.net.add(ms)
        self.net.connect(
            ms, bts, Interface.UM, self.latencies.um,
            wire_fidelity=self.wire_fidelity,
        )
        self.mss[name] = ms
        return ms

    def add_coverage(self, ms: MobileStation, bts: Bts) -> None:
        """Give *ms* radio visibility of an additional cell (needed
        before :meth:`MobileStation.move_to` or handoff into it)."""
        self.net.connect(
            ms, bts, Interface.UM, self.latencies.um,
            wire_fidelity=self.wire_fidelity,
        )

    def add_terminal(
        self, name: str, alias: str, answer_delay: float = 1.0
    ) -> H323Terminal:
        """Attach an H.323 terminal to the IP cloud."""
        return attach_terminal(
            self, name, alias, answer_delay, self.wire_fidelity
        )

    def add_phone(
        self, name: str, number: str, answer_delay: float = 1.0
    ) -> PstnPhone:
        """A fixed-line subscriber on the local exchange (requires
        ``with_pstn=True``) — the far end of the GK-outage fallback
        scenarios."""
        if self.pstn is None:
            raise TopologyError(
                "add_phone needs build_vgprs_network(with_pstn=True)"
            )
        phone = PstnPhone(
            self.sim, name, E164Number.parse(number), answer_delay=answer_delay
        )
        self.net.add(phone)
        self.net.connect(phone, self.pstn, Interface.ISUP, self.latencies.isup)
        self.pstn.add_local(phone.number, phone.name)
        self.phones[name] = phone
        return phone


def build_vgprs_network(
    seed: int = 0,
    latencies: Optional[LatencyProfile] = None,
    wire_fidelity: bool = True,
    num_bts: int = 1,
    country_code: str = "886",
    name_prefix: str = "",
    sim: Optional[Simulator] = None,
    net: Optional[Network] = None,
    hlr: Optional[Hlr] = None,
    gk_max_calls: Optional[int] = None,
    tch_capacity: int = 32,
    idle_deactivate_after: Optional[float] = None,
    with_pstn: bool = False,
) -> VgprsNetwork:
    """Build the Figure 2(b) network.

    ``name_prefix`` namespaces node names so two vGPRS networks (e.g.
    home and visited PLMNs in the roaming scenarios) can share one
    simulator; pass the same ``sim``/``net``/``hlr`` to share the clock,
    trace and home subscriber base.  ``with_pstn=True`` additionally
    wires a local exchange to the VMSC over an ISUP trunk so calls can
    fall back to the circuit network during gatekeeper outages
    (:meth:`VgprsNetwork.add_phone` provisions the far-end subscribers).
    """
    lat = latencies if latencies is not None else LatencyProfile()
    sim = sim if sim is not None else Simulator(seed=seed)
    net = net if net is not None else Network(sim)
    p = name_prefix

    cloud_name = f"{p}IPNET"
    cloud = net.nodes.get(cloud_name)
    if cloud is None:
        cloud = net.add(IPCloud(sim, cloud_name))

    prefix_offset = sum(ord(c) for c in p) % 64
    gk = Gatekeeper(
        sim,
        f"{p}GK",
        ip=GK_IP if not p else IPv4Address(GK_IP.value + prefix_offset + 1),
        max_concurrent_calls=gk_max_calls,
    )
    net.add(gk)
    net.connect(gk, cloud, Interface.IP, lat.ip, wire_fidelity=wire_fidelity)
    gk.attach_to_cloud()

    # The idle-deactivation variant needs the GGSN to keep released
    # address bindings so network-requested activation can find the MS
    # (the static-addressing requirement of GSM 03.60).
    ggsn = Ggsn(sim, f"{p}GGSN",
                remember_released=idle_deactivate_after is not None)
    sgsn = Sgsn(sim, f"{p}SGSN")
    net.add(ggsn)
    net.add(sgsn)
    net.connect(ggsn, cloud, Interface.GI, lat.gi, wire_fidelity=wire_fidelity)
    net.connect(sgsn, ggsn, Interface.GN, lat.gn, wire_fidelity=wire_fidelity)

    vmsc = Vmsc(
        sim,
        f"{p}VMSC",
        gk_ip=gk.ip,
        country_code=country_code,
        idle_deactivate_after=idle_deactivate_after,
    )
    vlr = Vlr(sim, f"{p}VLR", country_code=country_code)
    net.add(vmsc)
    net.add(vlr)
    if hlr is None:
        hlr = net.add(Hlr(sim, f"{p}HLR"))
    elif hlr.name not in net:
        net.add(hlr)

    net.connect(vmsc, vlr, Interface.B, lat.ss7, wire_fidelity=wire_fidelity)
    net.connect(vlr, hlr, Interface.D, lat.ss7, wire_fidelity=wire_fidelity)
    net.connect(vmsc, hlr, Interface.C, lat.ss7, wire_fidelity=wire_fidelity)
    net.connect(vmsc, sgsn, Interface.GB, lat.gb, wire_fidelity=wire_fidelity)

    network = VgprsNetwork(
        sim=sim,
        net=net,
        latencies=lat,
        country_code=country_code,
        cloud=cloud,
        gk=gk,
        ggsn=ggsn,
        sgsn=sgsn,
        vmsc=vmsc,
        vlr=vlr,
        hlr=hlr,
        wire_fidelity=wire_fidelity,
    )

    if with_pstn:
        pstn = PstnSwitch(sim, f"{p}PSTN", country_code=country_code)
        net.add(pstn)
        net.connect(
            vmsc, pstn, Interface.ISUP, lat.isup, wire_fidelity=wire_fidelity
        )
        network.pstn = pstn

    bsc = Bsc(sim, f"{p}BSC", tch_capacity=tch_capacity)
    net.add(bsc)
    net.connect(bsc, vmsc, Interface.A, lat.a, wire_fidelity=wire_fidelity)
    network.bscs.append(bsc)
    for i in range(num_bts):
        bts = Bts(sim, f"{p}BTS{i + 1}")
        net.add(bts)
        net.connect(bts, bsc, Interface.ABIS, lat.abis, wire_fidelity=wire_fidelity)
        network.btss.append(bts)
        vmsc.cells[f"{p}cell-{i + 1}"] = bsc.name

    return network

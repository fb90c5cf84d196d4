"""vGPRS network builder (Figures 1-3).

Constructs the full topology — MS/BTS/BSC on the radio side, VMSC, VLR,
HLR, SGSN, GGSN, the IP cloud, a standard gatekeeper and H.323 terminals
— with one :class:`LatencyProfile` controlling every link delay, so the
experiments can sweep network conditions reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.topology import (
    LatencyProfile,
    Row,
    attach_phone,
    attach_terminal,
    bss,
    cover,
    packet_core,
    provision_ms,
    wire,
)
from repro.core.vmsc import Vmsc
from repro.errors import TopologyError
from repro.gprs.ggsn import Ggsn
from repro.gprs.sgsn import Sgsn
from repro.gsm.bsc import Bsc
from repro.gsm.bts import Bts
from repro.gsm.hlr import Hlr
from repro.gsm.ms import MobileStation
from repro.gsm.vlr import Vlr
from repro.h323.gatekeeper import Gatekeeper
from repro.h323.terminal import H323Terminal
from repro.net.interfaces import Interface
from repro.net.ip import IPCloud
from repro.net.node import Network
from repro.pstn.phone import PstnPhone
from repro.pstn.switch import PstnSwitch
from repro.sim.kernel import Simulator


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
        ms = provision_ms(
            self, self.hlr, name, imsi, msisdn,
            bts if bts is not None else self.btss[0],
            lai=f"LAI-{self.country_code}-1",
            answer_delay=answer_delay,
            international_allowed=international_allowed,
            use_tmsi_for_updates=use_tmsi_for_updates,
        )
        self.mss[name] = ms
        return ms

    #: Give an MS radio visibility of an additional cell (needed before
    #: :meth:`MobileStation.move_to` or handoff into it).
    add_coverage = cover
    add_terminal = attach_terminal

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
        phone = attach_phone(
            self, self.pstn, name, number, answer_delay, self.latencies.isup
        )
        self.phones[name] = phone
        return phone


def build_vgprs_network(
    seed: int = 0,
    latencies: Optional[LatencyProfile] = None,
    wire_fidelity: bool = True,
    num_bts: int = 1,
    country_code: str = "886",
    sim: Optional[Simulator] = None,
    hlr: Optional[Hlr] = None,
    gk_max_calls: Optional[int] = None,
    tch_capacity: int = 32,
    idle_deactivate_after: Optional[float] = None,
    with_pstn: bool = False,
) -> VgprsNetwork:
    """Build the Figure 2(b) network.

    Pass ``sim``/``hlr`` to share a clock and a home subscriber base
    (the Figure 8 roaming network's VLR reaches the UK HLR).
    ``with_pstn=True`` additionally wires a local exchange to the VMSC
    over an ISUP trunk so calls can fall back to the circuit network
    during gatekeeper outages (:meth:`VgprsNetwork.add_phone` provisions
    the far-end subscribers).
    """
    lat = latencies if latencies is not None else LatencyProfile()
    sim = sim if sim is not None else Simulator(seed=seed)
    net = Network(sim)
    # The idle-deactivation variant needs the GGSN to keep released
    # address bindings so network-requested activation can find the MS
    # (the static-addressing requirement of GSM 03.60).
    cloud, gk, ggsn, sgsn = packet_core(
        net, lat, wire_fidelity, gk_max_calls=gk_max_calls,
        remember_released=idle_deactivate_after is not None,
    )
    vmsc = net.add(Vmsc(
        sim,
        "VMSC",
        gk_ip=gk.ip,
        country_code=country_code,
        idle_deactivate_after=idle_deactivate_after,
    ))
    vlr = net.add(Vlr(sim, "VLR", country_code=country_code))
    hlr = net.add(hlr if hlr is not None else Hlr(sim, "HLR"))
    pstn: Optional[PstnSwitch] = None
    trunk: List[Row] = []
    if with_pstn:
        pstn = net.add(PstnSwitch(sim, "PSTN", country_code=country_code))
        trunk = [(vmsc, pstn, Interface.ISUP, "isup")]
    bsc = Bsc(sim, "BSC", tch_capacity=tch_capacity)
    btss, abis = bss(net, bsc, [f"BTS{i + 1}" for i in range(num_bts)])
    wire(net, lat, [
        (vmsc, vlr, Interface.B, "ss7"),
        (vlr, hlr, Interface.D, "ss7"),
        (vmsc, hlr, Interface.C, "ss7"),
        (vmsc, sgsn, Interface.GB, "gb"),
        *trunk,
        (bsc, vmsc, Interface.A, "a"),
        *abis,
    ], wire_fidelity)
    for i in range(num_bts):
        vmsc.cells[f"cell-{i + 1}"] = bsc.name

    return VgprsNetwork(
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
        bscs=[bsc],
        btss=btss,
        pstn=pstn,
    )

"""Classic GSM baseline network — the Figure 7 world.

A home PLMN (UK: HLR + GMSC) and a visited PLMN (Hong Kong: classic
circuit-switched MSC + VLR + BSS), joined by international SS7 and ISUP
trunks.  Call delivery to a roamer goes dialled-number -> GMSC ->
HLR/VLR interrogation -> MSRN -> re-dial, producing the two
international circuits the paper's tromboning discussion counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.topology import (
    LatencyProfile,
    attach_phone,
    bss,
    provision_ms,
    wire,
)
from repro.gsm.bsc import Bsc
from repro.gsm.bts import Bts
from repro.gsm.gmsc import Gmsc
from repro.gsm.hlr import Hlr
from repro.gsm.ms import MobileStation
from repro.gsm.msc import GsmMsc
from repro.gsm.vlr import Vlr
from repro.net.interfaces import Interface
from repro.net.node import Network
from repro.pstn.numbering import HONG_KONG, UK
from repro.pstn.phone import PstnPhone
from repro.pstn.switch import PstnSwitch
from repro.pstn.trunks import TrunkLedger
from repro.sim.kernel import Simulator

#: The UK mobile prefix owned by the home PLMN in the shipped scenarios.
UK_MOBILE_PREFIX = "+447"
#: The visited VLR's roaming-number prefix (Hong Kong numbers).
HK_MSRN_PREFIX = "+85293600"


#: One-way delay of a fixed subscriber's loop to its local exchange.
LOCAL_LOOP = 0.002


@dataclass
class ClassicRoamingNetwork:
    """Figure 7 topology, fully wired."""

    sim: Simulator
    net: Network
    latencies: LatencyProfile
    ledger: TrunkLedger
    hlr_uk: Hlr
    gmsc_uk: Gmsc
    msc_hk: GsmMsc
    vlr_hk: Vlr
    bsc_hk: Bsc
    bts_hk: Bts
    exchange_hk: PstnSwitch
    phones: Dict[str, PstnPhone] = field(default_factory=dict)
    roamers: Dict[str, MobileStation] = field(default_factory=dict)
    #: Every Figure 7 link except the subscriber loops carries the wire
    #: round trip.
    wire_fidelity = True

    def add_roamer(
        self, name: str, imsi: str, msisdn: str, answer_delay: float = 1.0
    ) -> MobileStation:
        """A UK subscriber currently camped on the Hong Kong cell."""
        ms = provision_ms(
            self, self.hlr_uk, name, imsi, msisdn, self.bts_hk,
            lai="LAI-852-1", answer_delay=answer_delay,
        )
        self.roamers[name] = ms
        return ms

    def add_phone(self, name: str, number: str, answer_delay: float = 1.0) -> PstnPhone:
        """A fixed-line subscriber on the Hong Kong exchange."""
        phone = attach_phone(
            self, self.exchange_hk, name, number, answer_delay, LOCAL_LOOP
        )
        self.phones[name] = phone
        return phone


def build_classic_roaming_network(
    seed: int = 0,
    latencies: LatencyProfile = LatencyProfile(),
) -> ClassicRoamingNetwork:
    """Wire the Figure 7 topology."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    ledger = TrunkLedger()

    hlr_uk = net.add(Hlr(sim, "HLR-UK"))
    gmsc_uk = net.add(Gmsc(sim, "GMSC-UK", country_code=UK, ledger=ledger))
    gmsc_uk.add_home_prefix(UK_MOBILE_PREFIX)

    exchange_hk = net.add(
        PstnSwitch(sim, "EX-HK", country_code=HONG_KONG, ledger=ledger,
                   cic_start=100000)
    )
    msc_hk = net.add(GsmMsc(sim, "MSC-HK"))
    vlr_hk = net.add(
        Vlr(sim, "VLR-HK", country_code=HONG_KONG, msrn_prefix="93600")
    )
    bsc_hk = Bsc(sim, "BSC-HK")
    (bts_hk,), abis = bss(net, bsc_hk, ["BTS-HK"])

    wire(net, latencies, [
        # SS7 signalling.
        (gmsc_uk, hlr_uk, Interface.C, "ss7"),
        (msc_hk, vlr_hk, Interface.B, "ss7"),
        (vlr_hk, hlr_uk, Interface.D, "international"),
        # Radio access.
        (bsc_hk, msc_hk, Interface.A, "a"),
        *abis,
        # Trunks: the single international route between Hong Kong and
        # the UK, and the local trunk from the exchange to the visited
        # MSC.
        (exchange_hk, gmsc_uk, Interface.ISUP, "international"),
        (exchange_hk, msc_hk, Interface.ISUP, "isup"),
    ], ClassicRoamingNetwork.wire_fidelity)

    # Routing tables.
    exchange_hk.add_route("+44", gmsc_uk.name, international=True)
    exchange_hk.add_route(HK_MSRN_PREFIX, msc_hk.name, international=False)
    gmsc_uk.add_route("+852", exchange_hk.name, international=True)

    return ClassicRoamingNetwork(
        sim=sim,
        net=net,
        latencies=latencies,
        ledger=ledger,
        hlr_uk=hlr_uk,
        gmsc_uk=gmsc_uk,
        msc_hk=msc_hk,
        vlr_hk=vlr_hk,
        bsc_hk=bsc_hk,
        bts_hk=bts_hk,
        exchange_hk=exchange_hk,
    )

"""vGPRS roaming / tromboning elimination — the Figure 8 world.

The visited country (Hong Kong) runs a full vGPRS network whose local
telephone company connects to the VoIP network: the exchange's *first*
route for UK numbers is the H.323 gateway; the international PSTN trunk
to the UK GMSC is only the *fallback*.  When the UK roamer x is
registered at the Hong Kong gatekeeper, a call from the local phone y
terminates locally (zero international trunks); when x is not
registered, the gateway's admission is rejected and the exchange falls
back to the Figure 7 path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.baseline_gsm import LOCAL_LOOP, UK_MOBILE_PREFIX
from repro.core.network import VgprsNetwork, build_vgprs_network
from repro.core.topology import GATEWAY_IP, LatencyProfile, attach_phone, wire
from repro.gsm.gmsc import Gmsc
from repro.gsm.hlr import Hlr
from repro.gsm.ms import MobileStation
from repro.h323.gateway import H323PstnGateway
from repro.identities import E164Number
from repro.net.interfaces import Interface
from repro.pstn.numbering import HONG_KONG, UK
from repro.pstn.phone import PstnPhone
from repro.pstn.switch import PstnSwitch
from repro.pstn.trunks import TrunkLedger
from repro.sim.kernel import Simulator


@dataclass
class VgprsRoamingNetwork:
    """Figure 8 topology: visited vGPRS PLMN + local PSTN + home GMSC."""

    vgprs: VgprsNetwork
    ledger: TrunkLedger
    exchange_hk: PstnSwitch
    gateway: H323PstnGateway
    gmsc_uk: Gmsc
    hlr_uk: Hlr
    phone_y: PstnPhone
    roamer: Optional[MobileStation] = None

    @property
    def sim(self) -> Simulator:
        return self.vgprs.sim

    def add_roamer(
        self, name: str, imsi: str, msisdn: str, answer_delay: float = 1.0
    ) -> MobileStation:
        """The UK subscriber x, camped on the Hong Kong vGPRS cell."""
        self.roamer = self.vgprs.add_ms(
            name, imsi, msisdn, answer_delay=answer_delay
        )
        return self.roamer


def build_vgprs_roaming_network(
    seed: int = 0,
    latencies: LatencyProfile = LatencyProfile(),
) -> VgprsRoamingNetwork:
    """Wire the Figure 8 topology."""
    sim = Simulator(seed=seed)
    ledger = TrunkLedger()

    # The home HLR lives in the UK; the visited vGPRS network's VLR
    # reaches it over an international D link (handled inside the
    # builder by passing the HLR in).
    hlr_uk = Hlr(sim, "HLR-UK")
    vgprs = build_vgprs_network(
        latencies=latencies,
        country_code=HONG_KONG,
        sim=sim,
        hlr=hlr_uk,
    )

    net = vgprs.net
    exchange_hk = net.add(
        PstnSwitch(sim, "EX-HK", country_code=HONG_KONG, ledger=ledger,
                   cic_start=100000)
    )
    gmsc_uk = net.add(Gmsc(sim, "GMSC-UK", country_code=UK, ledger=ledger))
    gmsc_uk.add_home_prefix(UK_MOBILE_PREFIX)

    gateway = net.add(
        H323PstnGateway(
            sim,
            "GW-HK",
            ip=GATEWAY_IP,
            alias=E164Number(HONG_KONG, "29999999"),
            gk_ip=vgprs.gk.ip,
        )
    )
    wire(net, latencies, [
        (gmsc_uk, hlr_uk, Interface.C, "ss7"),
        (gateway, vgprs.cloud, Interface.IP, "ip"),
        (gateway, exchange_hk, Interface.ISUP, "isup"),
        (exchange_hk, gmsc_uk, Interface.ISUP, "international"),
    ], vgprs.wire_fidelity)
    gateway.register()

    # Figure 8 routing: VoIP gateway first, international trunk fallback.
    exchange_hk.add_route("+44", gateway.name, international=False)
    exchange_hk.add_route("+44", gmsc_uk.name, international=True)

    phone_y = attach_phone(vgprs, exchange_hk, "PHONE-Y", "+85221234567",
                           1.0, LOCAL_LOOP)

    return VgprsRoamingNetwork(
        vgprs=vgprs,
        ledger=ledger,
        exchange_hk=exchange_hk,
        gateway=gateway,
        gmsc_uk=gmsc_uk,
        hlr_uk=hlr_uk,
        phone_y=phone_y,
    )

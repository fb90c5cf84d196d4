"""The 3G TR 23.923 baseline — VoIP over GPRS *without* a VMSC.

The comparison system of the paper's §6: the handset itself is an H.323
terminal with a vocoder, speaking RAS/Q.931/RTP over the GPRS packet
radio.  Faithful to the paper's description of the approach:

* after gatekeeper registration the PDP context is **deactivated** "due
  to the network resource consideration" (3G TR 23.923 fig. 7 step 6),
  so every call first re-activates a context;
* MT calls need **network-requested PDP context activation**, which
  requires a *static* PDP address provisioned at the GGSN;
* all signalling and voice cross the shared packet channel on the air
  interface — the "non-real-time packet switching nature in the radio
  interface" the paper blames for degraded voice quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import CallSetupError, ProtocolError
from repro.identities import IMSI, E164Number, IPv4Address, as_e164
from repro.core.topology import (
    LatencyProfile,
    attach_terminal,
    bss,
    cover,
    packet_core,
    wire,
)
from repro.gprs.gb import GbUnitdata
from repro.gprs.ggsn import Ggsn
from repro.gprs.pdp import NSAPI_SIGNALLING
from repro.gprs.sgsn import Sgsn
from repro.gsm.bsc import Bsc
from repro.gsm.bts import Bts
from repro.h323.codec import GSM_FR
from repro.h323.endpoint import H323Call, H323Endpoint
from repro.h323.gatekeeper import Gatekeeper
from repro.h323.terminal import H323Terminal
from repro.net.interfaces import Interface
from repro.net.ip import IPCloud
from repro.net.node import Network, Node, handles
from repro.sim.kernel import Simulator
from repro.packets.base import Packet
from repro.packets.gmm import (
    ActivatePdpContextAccept,
    ActivatePdpContextReject,
    ActivatePdpContextRequest,
    DeactivatePdpContextAccept,
    DeactivatePdpContextRequest,
    GprsAttachAccept,
    GprsAttachRequest,
    GprsPaging,
    GprsPagingResponse,
    RequestPdpContextActivation,
    RoutingAreaUpdateAccept,
    RoutingAreaUpdateRequest,
)
from repro.packets.ip import IPv4
from repro.packets.ras import RasRcf

#: Static PDP address pool for 3G TR handsets.
STATIC_IP_BASE = IPv4Address.parse("10.2.0.0")


class H323MobileStation(H323Endpoint):
    """An H.323-terminal-capable GPRS handset (the MS 3G TR requires).

    Its H.323 side is the shared :class:`~repro.h323.endpoint.H323Endpoint`
    with the GSM-FR vocoder; its link to the IP world is the GPRS packet
    radio, so every datagram rides a GbUnitdata frame on the signalling
    context and the voice talker queues on the serving cell's shared
    packet channel.
    """

    endpoint_type = "3gtr-ms"
    codec = GSM_FR
    reports_duration = False

    def __init__(
        self,
        sim,
        name: str,
        imsi: IMSI,
        msisdn: E164Number,
        static_ip: IPv4Address,
        serving_bts: str,
        gk_ip: IPv4Address,
        answer_delay: float = 1.0,
    ) -> None:
        super().__init__(sim, name, static_ip, msisdn, gk_ip, answer_delay)
        self.imsi = imsi
        self.serving_bts = serving_bts
        self.attached = False
        self.pdp_active = False
        self._pdp_deactivating = False
        self.routing_area = "RA-1"
        self.state = "off"
        self._pdp_waiters: List[Callable[[], None]] = []

    @property
    def msisdn(self) -> E164Number:
        return self.alias

    @property
    def static_ip(self) -> IPv4Address:
        return self.ip

    # ------------------------------------------------------------------
    # GPRS plumbing (everything rides the shared packet channel)
    # ------------------------------------------------------------------
    def _tx(self, packet: Packet) -> None:
        self.send(self.serving_bts, packet)

    def _uplink(self) -> str:
        return self.serving_bts

    def _frame(self, datagram: IPv4) -> Packet:
        frame = GbUnitdata(imsi=self.imsi, nsapi=NSAPI_SIGNALLING)
        frame.payload = datagram
        return frame

    def attach_to_cloud(self) -> None:
        """Nothing to attach: the GGSN routes the static PDP address,
        provisioned when the handset joined the network."""

    @handles(GbUnitdata)
    def on_gb(self, frame: GbUnitdata, src: Node, interface: str) -> None:
        packet = frame.payload
        if isinstance(packet, IPv4):
            self.deliver_ip(packet, src, interface)

    # ------------------------------------------------------------------
    # Attach + registration (3G TR: deactivate the context afterwards)
    # ------------------------------------------------------------------
    def power_on(self) -> None:
        if self.state != "off":
            raise ProtocolError(f"{self.name}: power_on in state {self.state}")
        self.state = "attaching"
        self._tx(GprsAttachRequest(imsi=self.imsi))

    @handles(GprsAttachAccept)
    def on_attach_accept(self, msg: GprsAttachAccept, src: Node, interface: str) -> None:
        self.attached = True
        self.state = "registering"
        self._with_pdp(self.register)

    def on_rcf(self, msg: RasRcf, src: Node, interface: str) -> None:
        if self.registered:
            return
        self.state = "idle"
        # 3G TR fig. 7 step 6: deactivate after registration.
        self._deactivate_pdp()
        super().on_rcf(msg, src, interface)

    # ------------------------------------------------------------------
    # PDP context lifecycle (activated per use, 3G TR style)
    # ------------------------------------------------------------------
    def _with_pdp(self, action: Callable[[], None]) -> None:
        """Run *action* once a PDP context is active, activating one if
        needed — the per-call activation step the paper criticises.  A
        deactivation still in flight defers the action until it settles
        (then reactivates), so call attempts never race the teardown."""
        if self.pdp_active and not self._pdp_deactivating:
            action()
            return
        self._pdp_waiters.append(action)
        if not self._pdp_deactivating and len(self._pdp_waiters) == 1:
            self._request_activation()

    def _request_activation(self) -> None:
        self._tx(
            ActivatePdpContextRequest(
                imsi=self.imsi,
                nsapi=NSAPI_SIGNALLING,
                static_pdp_address=self.static_ip,
            )
        )

    @handles(ActivatePdpContextAccept)
    def on_pdp_accept(self, msg: ActivatePdpContextAccept, src: Node, interface: str) -> None:
        self.pdp_active = True
        waiters, self._pdp_waiters = self._pdp_waiters, []
        for action in waiters:
            action()

    @handles(ActivatePdpContextReject)
    def on_pdp_reject(self, msg: ActivatePdpContextReject, src: Node, interface: str) -> None:
        self._pdp_waiters.clear()
        self.sim.metrics.counter(f"{self.name}.pdp_rejects").inc()

    def _deactivate_pdp(self) -> None:
        if not self.pdp_active or self._pdp_deactivating:
            return
        self._pdp_deactivating = True
        self._tx(DeactivatePdpContextRequest(imsi=self.imsi, nsapi=NSAPI_SIGNALLING))

    @handles(DeactivatePdpContextAccept)
    def on_pdp_deactivated(self, msg: DeactivatePdpContextAccept, src: Node, interface: str) -> None:
        self.pdp_active = False
        self._pdp_deactivating = False
        if self._pdp_waiters:
            # Something queued while the teardown was in flight.
            self._request_activation()

    def move_to(self, bts_name: str, routing_area: str) -> None:
        """Camp on a new cell; if it belongs to a different routing
        area, run a routing-area update through the new SGSN (which pulls
        the contexts from the old one when necessary)."""
        old_ra = self.routing_area
        self.serving_bts = bts_name
        self.routing_area = routing_area
        self._tx(
            RoutingAreaUpdateRequest(
                imsi=self.imsi,
                routing_area=routing_area,
                old_routing_area=old_ra,
            )
        )

    @handles(RoutingAreaUpdateAccept)
    def on_rau_accept(self, msg: RoutingAreaUpdateAccept, src: Node, interface: str) -> None:
        self.sim.metrics.counter(f"{self.name}.rau_accepted").inc()

    @handles(GprsPaging)
    def on_gprs_paging(self, msg: GprsPaging, src: Node, interface: str) -> None:
        """Answer GPRS paging so the SGSN can deliver buffered downlink
        traffic (part of the 3G TR MT-call latency)."""
        if msg.imsi == self.imsi:
            self._tx(GprsPagingResponse(imsi=self.imsi))

    @handles(RequestPdpContextActivation)
    def on_network_requested_activation(
        self, msg: RequestPdpContextActivation, src: Node, interface: str
    ) -> None:
        """Network-requested activation: a downlink PDU (the incoming
        call's Setup) is waiting at the GGSN."""
        self.sim.metrics.counter(f"{self.name}.network_requested_pdp").inc()
        self._with_pdp(lambda: None)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def place_call(self, called: Union[E164Number, str]) -> None:
        called = as_e164(called)
        if self.state != "idle" or self.calls:
            raise CallSetupError(f"{self.name}: busy ({self.state})")
        call = self._place(called)
        self.state = "calling"
        # 3G TR MO: PDP activation precedes admission.
        self._with_pdp(lambda: self._admit(call))

    def _busy(self) -> bool:
        return bool(self.calls)

    def _opened(self, call: H323Call) -> None:
        if call.direction == "in":
            self.state = "ringing"

    def _connected(self, call: H323Call) -> None:
        self.state = "in-call"
        super()._connected(call)

    def _rejected(self, call: H323Call) -> None:
        self.sim.metrics.counter(f"{self.name}.call_rejects").inc()
        self._disengage(call)

    def _cleared(self, call: H323Call) -> None:
        self.state = "idle"
        # 3G TR: the context is torn down again after the call.  A short
        # grace period lets the release signalling drain through the
        # still-active context first.
        self.sim.schedule(0.5, self._deactivate_if_idle)

    def _deactivate_if_idle(self) -> None:
        if not self.calls and self.state == "idle":
            self._deactivate_pdp()


@dataclass
class Tgtr3Network:
    """A constructed 3G TR 23.923 network."""

    sim: Simulator
    net: Network
    latencies: LatencyProfile
    cloud: IPCloud
    gk: Gatekeeper
    ggsn: Ggsn
    sgsn: Sgsn
    bsc: Bsc
    btss: List[Bts] = field(default_factory=list)
    mss: Dict[str, H323MobileStation] = field(default_factory=dict)
    terminals: Dict[str, H323Terminal] = field(default_factory=dict)
    #: routing-area name -> its SGSN (the default area is "RA-1").
    areas: Dict[str, Sgsn] = field(default_factory=dict)
    _terminal_count: int = 0
    _static_count: int = 0
    #: Every 3G TR link carries the wire round trip.
    wire_fidelity = True

    def add_ms(
        self,
        name: str,
        imsi: str,
        msisdn: str,
        bts: Optional[Bts] = None,
        answer_delay: float = 1.0,
    ) -> H323MobileStation:
        """An H.323-capable GPRS handset with a static PDP address
        provisioned at the GGSN (required for MT calls)."""
        bts = bts if bts is not None else self.btss[0]
        self._static_count += 1
        static_ip = IPv4Address(STATIC_IP_BASE.value + self._static_count)
        ms = H323MobileStation(
            self.sim,
            name,
            imsi=IMSI(imsi),
            msisdn=E164Number.parse(msisdn),
            static_ip=static_ip,
            serving_bts=bts.name,
            gk_ip=self.gk.ip,
            answer_delay=answer_delay,
        )
        self.net.add(ms)
        cover(self, ms, bts)
        self.ggsn.provision_static(ms.imsi, static_ip, self.sgsn.name)
        self.mss[name] = ms
        return ms

    def add_routing_area(
        self, name: str, packet_channel_bps: Optional[float] = 4 * 13_400.0
    ) -> Tuple[Sgsn, Bsc, Bts]:
        """Add a routing area: its own SGSN/BSC/BTS, wired to the GGSN
        and cross-wired to every existing SGSN so inter-SGSN routing-area
        updates can pull contexts over Gn."""
        sgsn = self.net.add(Sgsn(self.sim, f"SGSN-{name}", ready_timeout=5.0))
        bsc = Bsc(self.sim, f"BSC-{name}")
        (bts,), abis = bss(self.net, bsc, [f"BTS-{name}"],
                           packet_channel_bps=packet_channel_bps)
        wire(self.net, self.latencies, [
            *abis,
            (bsc, sgsn, Interface.GB, "gb"),
            (sgsn, self.ggsn, Interface.GN, "gn"),
            *((sgsn, other, Interface.GN, "gn") for other in self.areas.values()),
        ], self.wire_fidelity)
        for other_name, other in self.areas.items():
            other.rai_map[name] = sgsn.name
            sgsn.rai_map[other_name] = other.name
        self.areas[name] = sgsn
        return sgsn, bsc, bts

    add_terminal = attach_terminal


def build_3gtr_network(
    seed: int = 0,
    latencies: Optional[LatencyProfile] = None,
    num_bts: int = 1,
    packet_channel_bps: Optional[float] = 4 * 13_400.0,
) -> Tgtr3Network:
    """Build the 3G TR 23.923 comparison network (no VMSC; the BSC's PCU
    connects straight to the SGSN)."""
    lat = latencies if latencies is not None else LatencyProfile()
    sim = Simulator(seed=seed)
    net = Network(sim)
    # Radio-served subscribers fall back to STANDBY and must be paged
    # for downlink traffic (GSM 03.60); the vGPRS builder leaves the
    # timeout off because its Gb peer is the always-reachable VMSC.
    cloud, gk, ggsn, sgsn = packet_core(
        net, lat, Tgtr3Network.wire_fidelity, ready_timeout=5.0
    )
    bsc = Bsc(sim, "BSC")
    btss, abis = bss(net, bsc, [f"BTS{i + 1}" for i in range(num_bts)],
                     packet_channel_bps=packet_channel_bps)
    wire(net, lat, [(bsc, sgsn, Interface.GB, "gb"), *abis],
         Tgtr3Network.wire_fidelity)
    return Tgtr3Network(
        sim=sim, net=net, latencies=lat, cloud=cloud, gk=gk,
        ggsn=ggsn, sgsn=sgsn, bsc=bsc, btss=btss, areas={"RA-1": sgsn},
    )

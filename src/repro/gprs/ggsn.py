"""Gateway GPRS Support Node.

The GGSN "interworks with the PSDN using connectionless network
protocols" (paper §2).  It terminates GTP tunnels from SGSNs on Gn and
attaches to the IP backbone on Gi:

* creates PDP contexts, allocating dynamic PDP addresses from its pool
  (the paper's step 1.3 assumes dynamic allocation) or honouring static
  assignments (required by the 3G TR baseline for MT calls);
* registers PDP addresses with the IP cloud so downlink packets for
  mobile subscribers route back here;
* forwards T-PDUs in both directions, selecting the downlink context by
  destination address plus a TFT-style classifier (RTP -> voice context);
* on a downlink packet for a provisioned-but-inactive static address,
  buffers it and raises a GTP PDU Notification toward the subscriber's
  SGSN (network-requested activation, GSM 03.60) — the slow MT-call path
  the paper criticises in §6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.identities import IMSI, IPv4Address, TunnelId
from repro.gprs.pdp import NSAPI_VOICE, PdpContext, QosProfile
from repro.net.interfaces import Interface
from repro.net.ip import IPCloud
from repro.net.node import Node, handles
from repro.net.transactions import Sequencer
from repro.packets.gtp import (
    CAUSE_ACCEPTED,
    CAUSE_NO_RESOURCES,
    GtpCreatePdpContextRequest,
    GtpCreatePdpContextResponse,
    GtpDeletePdpContextRequest,
    GtpDeletePdpContextResponse,
    GtpHeader,
    GtpPduNotificationRequest,
    GtpPduNotificationResponse,
    GtpUpdatePdpContextRequest,
    GtpUpdatePdpContextResponse,
    MSG_CREATE_PDP_RSP,
    MSG_DELETE_PDP_RSP,
    MSG_PDU_NOTIFY_REQ,
    MSG_T_PDU,
    MSG_UPDATE_PDP_RSP,
)
from repro.packets.ip import IPv4
from repro.packets.rtp import RtpPacket


@dataclass
class StaticSubscriber:
    """Provisioning record for a subscriber with a static PDP address
    (needed for network-requested activation, 3G TR baseline)."""

    imsi: IMSI
    address: IPv4Address
    sgsn_name: str


@dataclass
class _AddressState:
    """All contexts sharing one PDP address, plus any buffered downlink
    packets awaiting network-requested activation."""

    contexts: Dict[int, PdpContext] = field(default_factory=dict)  # nsapi -> ctx
    buffered: List[IPv4] = field(default_factory=list)
    notified: bool = False


class Ggsn(Node):
    """The gateway GPRS support node."""

    def __init__(
        self,
        sim,
        name: str = "GGSN",
        pool_prefix: Tuple[int, int] = (10, 1),
        max_dynamic: int = 65000,
        remember_released: bool = False,
    ) -> None:
        """``remember_released`` keeps the IMSI->address binding (and the
        cloud route) after the last context for an address is deleted, so
        network-requested activation can later reach the subscriber.
        This is the functional equivalent of the static PDP addressing
        GSM 03.60 requires for that feature — used by the
        idle-deactivation vGPRS variant the paper sketches in §6."""
        super().__init__(sim, name)
        self.remember_released = remember_released
        self.pdp_contexts: Dict[Tuple[IMSI, int], PdpContext] = {}
        self._addresses: Dict[IPv4Address, _AddressState] = {}
        self._pool_prefix = pool_prefix
        self._pool_seq = Sequencer(start=2)
        self._max_dynamic = max_dynamic
        self._allocated_dynamic = 0
        self.static_subscribers: Dict[IMSI, StaticSubscriber] = {}
        self._addr_by_imsi: Dict[IMSI, IPv4Address] = {}
        self._ctx_count_by_imsi: Dict[IMSI, int] = {}
        self._static_by_addr: Dict[IPv4Address, StaticSubscriber] = {}
        self._notify_seq = Sequencer()
        self._context_gauge = sim.metrics.gauge(f"{name}.pdp_contexts")

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def provision_static(self, imsi: IMSI, address: IPv4Address, sgsn_name: str) -> None:
        """Provision a static PDP address (operator configuration; the
        paper notes static addresses 'may not be practical for a
        large-scaled network', §6)."""
        record = StaticSubscriber(imsi, address, sgsn_name)
        self.static_subscribers[imsi] = record
        self._static_by_addr[address] = record
        # Static addresses stay routed to this GGSN even with no active
        # context, so downlink packets can trigger PDU notification.
        self._cloud().register(address, self)

    def _allocate_dynamic(self) -> Optional[IPv4Address]:
        if self._allocated_dynamic >= self._max_dynamic:
            return None
        n = self._pool_seq.next()
        a, b = self._pool_prefix
        address = IPv4Address((a << 24) | (b << 16) | ((n >> 8) & 0xFF) << 8 | (n & 0xFF))
        self._allocated_dynamic += 1
        return address

    def _cloud(self) -> IPCloud:
        peer = self.peer(Interface.GI)
        assert isinstance(peer, IPCloud)
        return peer

    # ------------------------------------------------------------------
    # GTP control plane
    # ------------------------------------------------------------------
    @handles(GtpHeader)
    def on_gtp(self, packet: GtpHeader, src: Node, interface: str) -> None:
        if packet.msg_type == MSG_T_PDU:
            self._uplink_tpdu(packet)
            return
        inner = packet.payload
        if isinstance(inner, GtpCreatePdpContextRequest):
            self._on_create(packet, inner, src)
        elif isinstance(inner, GtpDeletePdpContextRequest):
            self._on_delete(packet, inner, src)
        elif isinstance(inner, GtpUpdatePdpContextRequest):
            self._on_update(packet, inner, src)
        elif isinstance(inner, GtpPduNotificationResponse):
            pass  # nothing further to do; the SGSN owns the activation
        else:
            self.on_unhandled(packet, src, interface)

    def _on_create(
        self, header: GtpHeader, req: GtpCreatePdpContextRequest, src: Node
    ) -> None:
        tid = header.tid
        if req.static_pdp_address is not None:
            address: Optional[IPv4Address] = req.static_pdp_address
        else:
            static = self.static_subscribers.get(tid.imsi)
            # "the IMSI of the MS is used by the GGSN to retrieve the HLR
            # record to obtain information such as IP address" (step 1.3);
            # the provisioning table stands in for the HLR lookup, and the
            # pool provides dynamic addresses otherwise.
            if static is not None:
                address = static.address
            else:
                existing = self._address_of(tid.imsi)
                address = existing if existing is not None else self._allocate_dynamic()
        if address is None:
            self.send(
                src,
                GtpHeader(msg_type=MSG_CREATE_PDP_RSP, seq=header.seq, tid=tid)
                / GtpCreatePdpContextResponse(cause=CAUSE_NO_RESOURCES),
            )
            return
        ctx = PdpContext(
            imsi=tid.imsi,
            nsapi=tid.nsapi,
            pdp_address=address,
            qos=QosProfile(req.qos_delay_class, req.qos_peak_kbps),
            apn=req.apn,
            sgsn_name=src.name,
            ggsn_name=self.name,
            static=req.static_pdp_address is not None,
            activated_at=self.sim.now,
        )
        if ctx.key() not in self.pdp_contexts:
            self._ctx_count_by_imsi[tid.imsi] = (
                self._ctx_count_by_imsi.get(tid.imsi, 0) + 1
            )
        self.pdp_contexts[ctx.key()] = ctx
        self._addr_by_imsi[tid.imsi] = address
        state = self._addresses.setdefault(address, _AddressState())
        state.contexts[ctx.nsapi] = ctx
        state.notified = False
        self._context_gauge.inc()
        self.sim.metrics.counter(f"{self.name}.pdp_activations").inc()
        self._cloud().register(address, self)
        self.send(
            src,
            GtpHeader(msg_type=MSG_CREATE_PDP_RSP, seq=header.seq, tid=tid)
            / GtpCreatePdpContextResponse(
                cause=CAUSE_ACCEPTED,
                pdp_address=address,
                qos_delay_class=req.qos_delay_class,
            ),
        )
        self._flush_buffered(address)

    def _address_of(self, imsi: IMSI) -> Optional[IPv4Address]:
        """An MS keeps one PDP address across its contexts (the paper
        associates 'an IP address ... with every MS attached to the
        VMSC'), so a second context reuses the first one's address."""
        return self._addr_by_imsi.get(imsi)

    def _on_delete(
        self, header: GtpHeader, req: GtpDeletePdpContextRequest, src: Node
    ) -> None:
        tid = header.tid
        ctx = self.pdp_contexts.pop((tid.imsi, tid.nsapi), None)
        if ctx is not None:
            remaining = self._ctx_count_by_imsi.get(tid.imsi, 1) - 1
            if remaining <= 0:
                self._ctx_count_by_imsi.pop(tid.imsi, None)
                self._addr_by_imsi.pop(tid.imsi, None)
            else:
                self._ctx_count_by_imsi[tid.imsi] = remaining
            self._context_gauge.dec()
            self.sim.metrics.counter(f"{self.name}.pdp_deactivations").inc()
            state = self._addresses.get(ctx.pdp_address)
            if state is not None:
                state.contexts.pop(ctx.nsapi, None)
                if not state.contexts:
                    del self._addresses[ctx.pdp_address]
                    if self.remember_released:
                        self.provision_static(
                            ctx.imsi, ctx.pdp_address, ctx.sgsn_name
                        )
                    elif ctx.pdp_address not in self._static_by_addr:
                        self._cloud().unregister(ctx.pdp_address)
        self.send(
            src,
            GtpHeader(msg_type=MSG_DELETE_PDP_RSP, seq=header.seq, tid=tid)
            / GtpDeletePdpContextResponse(),
        )

    def _on_update(
        self, header: GtpHeader, req: GtpUpdatePdpContextRequest, src: Node
    ) -> None:
        ctx = self.pdp_contexts.get((header.tid.imsi, header.tid.nsapi))
        if ctx is not None:
            ctx.sgsn_name = src.name
        self.send(
            src,
            GtpHeader(msg_type=MSG_UPDATE_PDP_RSP, seq=header.seq, tid=header.tid)
            / GtpUpdatePdpContextResponse(),
        )

    # ------------------------------------------------------------------
    # User plane
    # ------------------------------------------------------------------
    def _uplink_tpdu(self, packet: GtpHeader) -> None:
        inner = packet.payload
        if not isinstance(inner, IPv4):
            self.sim.metrics.counter(f"{self.name}.uplink_non_ip").inc()
            return
        self.sim.metrics.counter(f"{self.name}.uplink_pdus").inc()
        self.send(self._cloud(), inner)

    @handles(IPv4)
    def on_downlink_ip(self, packet: IPv4, src: Node, interface: str) -> None:
        state = self._addresses.get(packet.dst)
        if state is not None and state.contexts:
            ctx = self._classify(state, packet)
            self.sim.metrics.counter(f"{self.name}.downlink_pdus").inc()
            header = GtpHeader(msg_type=MSG_T_PDU, seq=0, tid=ctx.tid)
            header.payload = packet
            self.send(ctx.sgsn_name, header)
            return
        static = self._static_by_addr.get(packet.dst)
        if static is not None:
            self._notify(static, packet)
            return
        self.sim.metrics.counter(f"{self.name}.downlink_no_context").inc()

    def _classify(self, state: _AddressState, packet: IPv4) -> PdpContext:
        """TFT-style downlink context selection: RTP goes to the voice
        context when one exists, everything else to the lowest NSAPI
        (the signalling context)."""
        if packet.haslayer(RtpPacket) and NSAPI_VOICE in state.contexts:
            return state.contexts[NSAPI_VOICE]
        return state.contexts[min(state.contexts)]

    def _notify(self, static: StaticSubscriber, packet: IPv4) -> None:
        """Buffer the packet and ask the SGSN to request activation.
        Buffering toward an unresponsive subscriber is bounded."""
        state = self._addresses.setdefault(static.address, _AddressState())
        if len(state.buffered) >= 64:
            self.sim.metrics.counter(f"{self.name}.notify_buffer_drops").inc()
            return
        state.buffered.append(packet)
        self.sim.metrics.counter(f"{self.name}.pdu_notifications").inc()
        if state.notified:
            return
        state.notified = True
        header = GtpHeader(
            msg_type=MSG_PDU_NOTIFY_REQ,
            seq=self._notify_seq.next(),
            tid=TunnelId(static.imsi, NSAPI_VOICE),
        )
        self.send(
            static.sgsn_name,
            header / GtpPduNotificationRequest(imsi=static.imsi, pdp_address=static.address),
        )

    def _flush_buffered(self, address: IPv4Address) -> None:
        state = self._addresses.get(address)
        if state is None or not state.buffered:
            return
        pending, state.buffered = state.buffered, []
        for packet in pending:
            self.on_downlink_ip(packet, self, Interface.GI)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def context_count(self) -> int:
        return len(self.pdp_contexts)

    def context_residency(self) -> float:
        return self._context_gauge.integral()

    def address_of(self, imsi: IMSI) -> Optional[IPv4Address]:
        return self._address_of(imsi)

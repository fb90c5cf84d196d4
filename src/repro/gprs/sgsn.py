"""Serving GPRS Support Node.

The SGSN "receives and transmits packets between the MSs and their
counterparts in the PSDN" (paper §2).  It terminates the Gb interface
toward access nodes (the VMSC's PCU in vGPRS, the BSC's PCU for GPRS
handsets), maintains MM and PDP contexts and tunnels subscriber PDUs to
the GGSN over GTP (Gn).

Responsibilities exercised by the paper's procedures:

* GPRS attach / detach (step 1.3);
* PDP context activation / deactivation, relayed to the GGSN as GTP
  Create/Delete PDP Context (steps 1.3, 2.9, 3.4, 4.8);
* network-requested PDP context activation on a GGSN PDU notification
  (the 3G TR baseline's MT-call path, §6);
* uplink/downlink T-PDU forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import PdpContextError
from repro.identities import IMSI
from repro.gprs.gb import GbUnitdata
from repro.gprs.pdp import PdpContext, QosProfile
from repro.net.interfaces import Interface
from repro.net.node import Node, handles
from repro.net.transactions import Sequencer
from repro.packets.gmm import (
    ActivatePdpContextAccept,
    ActivatePdpContextReject,
    ActivatePdpContextRequest,
    DeactivatePdpContextAccept,
    DeactivatePdpContextRequest,
    GprsAttachAccept,
    GprsAttachRequest,
    GprsDetachAccept,
    GprsDetachRequest,
    GprsPaging,
    GprsPagingResponse,
    RequestPdpContextActivation,
    RoutingAreaUpdateAccept,
    RoutingAreaUpdateRequest,
    SM_CAUSE_INSUFFICIENT_RESOURCES,
)
from repro.packets.gtp import (
    GtpCreatePdpContextRequest,
    GtpCreatePdpContextResponse,
    GtpDeletePdpContextRequest,
    GtpDeletePdpContextResponse,
    GtpHeader,
    GtpPduNotificationRequest,
    GtpPduNotificationResponse,
    GtpSgsnContextRequest,
    GtpSgsnContextResponse,
    GtpUpdatePdpContextRequest,
    GtpUpdatePdpContextResponse,
    PdpContextIe,
    MSG_CREATE_PDP_REQ,
    MSG_DELETE_PDP_REQ,
    MSG_PDU_NOTIFY_RSP,
    MSG_T_PDU,
    MSG_UPDATE_PDP_REQ,
    CAUSE_ACCEPTED,
    CAUSE_UNKNOWN_PDP,
)


@dataclass
class MmContext:
    """GPRS mobility-management context for an attached subscriber.

    ``last_activity`` drives the READY/STANDBY distinction of GSM 03.60
    §6.1.2: downlink traffic for a STANDBY subscriber must be preceded by
    GPRS paging.  SGSNs built with ``ready_timeout=None`` (the vGPRS
    configuration, where the 'MS' on the Gb is the always-wired VMSC)
    never page.
    """

    imsi: IMSI
    ptmsi: int
    access_node: str
    routing_area: str = "RA-1"
    attached_at: float = 0.0
    last_activity: float = 0.0
    paging: bool = False
    paged_queue: List[object] = field(default_factory=list)


class Sgsn(Node):
    """The serving GPRS support node."""

    def __init__(
        self,
        sim,
        name: str = "SGSN",
        max_contexts: int = 100000,
        ready_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(sim, name)
        self.ready_timeout = ready_timeout
        self.mm_contexts: Dict[IMSI, MmContext] = {}
        self.pdp_contexts: Dict[Tuple[IMSI, int], PdpContext] = {}
        self.max_contexts = max_contexts
        self._ptmsi_seq = Sequencer(start=0x80000000 + 1)
        self._gtp_seq = Sequencer()
        self._gtp_pending: Dict[int, dict] = {}
        self._context_gauge = sim.metrics.gauge(f"{name}.pdp_contexts")
        #: routing-area name -> SGSN node name, for locating the old
        #: SGSN during inter-SGSN routing-area updates (operator config).
        self.rai_map: Dict[str, str] = {}
        # Pending inter-SGSN RAUs, keyed by IMSI.
        self._rau_pending: Dict[IMSI, dict] = {}

    # ------------------------------------------------------------------
    # Fault injection: volatile state loss on crash
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """A crashed SGSN restarts empty: every MM and PDP context is
        gone, and the peers (VMSC, GGSN) only find out when their next
        procedure fails — which is the recovery behaviour the fault
        scenarios measure."""
        lost = len(self.mm_contexts) + len(self.pdp_contexts)
        self.mm_contexts.clear()
        self.pdp_contexts.clear()
        self._gtp_pending.clear()
        self._rau_pending.clear()
        self._context_gauge.set(0)
        self.sim.metrics.counter(f"{self.name}.crash_contexts_lost").inc(lost)

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------
    @handles(GprsAttachRequest)
    def on_attach(self, msg: GprsAttachRequest, src: Node, interface: str) -> None:
        ctx = MmContext(
            imsi=msg.imsi,
            ptmsi=self._ptmsi_seq.next(),
            access_node=src.name,
            attached_at=self.sim.now,
            last_activity=self.sim.now,
        )
        self.mm_contexts[msg.imsi] = ctx
        self.sim.metrics.counter(f"{self.name}.attaches").inc()
        self.send(src, GprsAttachAccept(imsi=msg.imsi, ptmsi=ctx.ptmsi))

    @handles(GprsDetachRequest)
    def on_detach(self, msg: GprsDetachRequest, src: Node, interface: str) -> None:
        self.mm_contexts.pop(msg.imsi, None)
        stale = [k for k in self.pdp_contexts if k[0] == msg.imsi]
        for key in stale:
            del self.pdp_contexts[key]
            self._context_gauge.dec()
        self.send(src, GprsDetachAccept(imsi=msg.imsi))

    @handles(RoutingAreaUpdateRequest)
    def on_rau(self, msg: RoutingAreaUpdateRequest, src: Node, interface: str) -> None:
        mm = self.mm_contexts.get(msg.imsi)
        if mm is not None:
            # Intra-SGSN update: refresh the access path and confirm.
            mm.routing_area = msg.routing_area
            mm.access_node = src.name
            mm.last_activity = self.sim.now
            self.send(src, RoutingAreaUpdateAccept(imsi=msg.imsi))
            return
        old_sgsn = self.rai_map.get(msg.old_routing_area)
        if old_sgsn is None or old_sgsn == self.name:
            # Unknown subscriber and no old SGSN to ask: treat as a fresh
            # implicit attach (the MS will re-activate contexts itself).
            self.sim.metrics.counter(f"{self.name}.rau_unknown").inc()
            return
        # Inter-SGSN RAU (GSM 03.60 §6.9): pull the contexts over Gn.
        self._rau_pending[msg.imsi] = {
            "access_node": src.name,
            "routing_area": msg.routing_area,
            "awaiting_updates": 0,
        }
        self.send(
            old_sgsn,
            GtpSgsnContextRequest(imsi=msg.imsi, new_sgsn=self.name),
            interface=Interface.GN,
        )

    @handles(GtpSgsnContextRequest)
    def on_sgsn_context_request(
        self, msg: GtpSgsnContextRequest, src: Node, interface: str
    ) -> None:
        """Old-SGSN role: hand the subscriber's contexts to *src* and
        drop the local state (tunnel endpoints move to the new SGSN)."""
        mm = self.mm_contexts.pop(msg.imsi, None)
        if mm is None:
            self.send(
                src, GtpSgsnContextResponse(imsi=msg.imsi, cause=CAUSE_UNKNOWN_PDP)
            )
            return
        response = GtpSgsnContextResponse(imsi=msg.imsi, ptmsi=mm.ptmsi)
        chain = response
        for key in [k for k in list(self.pdp_contexts) if k[0] == msg.imsi]:
            ctx = self.pdp_contexts.pop(key)
            self._context_gauge.dec()
            chain = chain / PdpContextIe(
                nsapi=ctx.nsapi,
                qos_delay_class=ctx.qos.delay_class,
                qos_peak_kbps=ctx.qos.peak_kbps,
                pdp_address=ctx.pdp_address,
                apn=ctx.apn,
                static=1 if ctx.static else 0,
            )
        self.sim.metrics.counter(f"{self.name}.contexts_transferred_out").inc()
        self.send(src, response)

    @handles(GtpSgsnContextResponse)
    def on_sgsn_context_response(
        self, msg: GtpSgsnContextResponse, src: Node, interface: str
    ) -> None:
        """New-SGSN role: install the contexts, then repoint the GGSN
        tunnels with Update PDP Context before confirming to the MS."""
        pending = self._rau_pending.get(msg.imsi)
        if pending is None:
            return
        if msg.cause != CAUSE_ACCEPTED:
            del self._rau_pending[msg.imsi]
            self.sim.metrics.counter(f"{self.name}.rau_failures").inc()
            return
        self.mm_contexts[msg.imsi] = MmContext(
            imsi=msg.imsi,
            ptmsi=msg.ptmsi if msg.ptmsi is not None else self._ptmsi_seq.next(),
            access_node=pending["access_node"],
            routing_area=pending["routing_area"],
            attached_at=self.sim.now,
            last_activity=self.sim.now,
        )
        ggsn = self.peer(Interface.GN) if len(self.links_on(Interface.GN)) == 1 else None
        layer = msg.payload
        while layer is not None:
            if isinstance(layer, PdpContextIe):
                ctx = PdpContext(
                    imsi=msg.imsi,
                    nsapi=layer.nsapi,
                    pdp_address=layer.pdp_address,
                    qos=QosProfile(layer.qos_delay_class, layer.qos_peak_kbps),
                    apn=layer.apn,
                    sgsn_name=self.name,
                    access_node=pending["access_node"],
                    static=bool(layer.static),
                    activated_at=self.sim.now,
                )
                self.pdp_contexts[ctx.key()] = ctx
                self._context_gauge.inc()
                pending["awaiting_updates"] += 1
                seq = self._gtp_seq.next()
                self._gtp_pending[seq] = {"rau_imsi": msg.imsi}
                header = GtpHeader(
                    msg_type=MSG_UPDATE_PDP_REQ, seq=seq, tid=ctx.tid
                )
                self.send(
                    self._ggsn_peer(),
                    header / GtpUpdatePdpContextRequest(
                        nsapi=ctx.nsapi, sgsn_address=self.name
                    ),
                )
            layer = layer.payload
        self.sim.metrics.counter(f"{self.name}.contexts_transferred_in").inc()
        if pending["awaiting_updates"] == 0:
            self._finish_rau(msg.imsi)

    def _ggsn_peer(self) -> Node:
        """The GGSN on Gn (SGSN-SGSN Gn links are found by name, so the
        single-GGSN assumption only needs to hold per SGSN)."""
        from repro.gprs.ggsn import Ggsn

        for link in self.links_on(Interface.GN):
            peer = link.peer_of(self)
            if isinstance(peer, Ggsn):
                return peer
        raise PdpContextError(f"{self.name}: no GGSN on Gn")

    def _on_update_response(
        self, header: GtpHeader, rsp: GtpUpdatePdpContextResponse
    ) -> None:
        pending = self._gtp_pending.pop(header.seq, None)
        if pending is None or "rau_imsi" not in pending:
            return
        imsi = pending["rau_imsi"]
        rau = self._rau_pending.get(imsi)
        if rau is None:
            return
        rau["awaiting_updates"] -= 1
        if rau["awaiting_updates"] <= 0:
            self._finish_rau(imsi)

    def _finish_rau(self, imsi: IMSI) -> None:
        rau = self._rau_pending.pop(imsi, None)
        if rau is None:
            return
        self.send(rau["access_node"], RoutingAreaUpdateAccept(imsi=imsi))

    # ------------------------------------------------------------------
    # PDP context activation / deactivation
    # ------------------------------------------------------------------
    @handles(ActivatePdpContextRequest)
    def on_activate_pdp(
        self, msg: ActivatePdpContextRequest, src: Node, interface: str
    ) -> None:
        self._touch(msg.imsi)
        if msg.imsi not in self.mm_contexts:
            self.send(
                src,
                ActivatePdpContextReject(
                    imsi=msg.imsi, nsapi=msg.nsapi,
                    cause=SM_CAUSE_INSUFFICIENT_RESOURCES,
                ),
            )
            return
        if len(self.pdp_contexts) >= self.max_contexts:
            self.send(
                src,
                ActivatePdpContextReject(
                    imsi=msg.imsi, nsapi=msg.nsapi,
                    cause=SM_CAUSE_INSUFFICIENT_RESOURCES,
                ),
            )
            return
        ctx = PdpContext(
            imsi=msg.imsi,
            nsapi=msg.nsapi,
            qos=QosProfile(msg.qos_delay_class, msg.qos_peak_kbps),
            apn=msg.apn,
            sgsn_name=self.name,
            access_node=src.name,
            static=msg.static_pdp_address is not None,
            activated_at=self.sim.now,
        )
        # The GGSN echoes the GTP sequence number in its response
        # header, so it keys the pending-transaction table directly.
        seq = self._gtp_seq.next()
        self._gtp_pending[seq] = {"ctx": ctx, "requester": src.name}
        header = GtpHeader(msg_type=MSG_CREATE_PDP_REQ, seq=seq, tid=ctx.tid)
        request = GtpCreatePdpContextRequest(
            nsapi=msg.nsapi,
            qos_delay_class=msg.qos_delay_class,
            qos_peak_kbps=msg.qos_peak_kbps,
            static_pdp_address=msg.static_pdp_address,
            apn=msg.apn,
            sgsn_address=self.name,
        )
        self.send(self._ggsn_peer(), header / request)

    @handles(GtpHeader)
    def on_gtp(self, packet: GtpHeader, src: Node, interface: str) -> None:
        if packet.msg_type == MSG_T_PDU:
            self._downlink_tpdu(packet)
            return
        inner = packet.payload
        if isinstance(inner, GtpCreatePdpContextResponse):
            self._on_create_response(packet, inner)
        elif isinstance(inner, GtpDeletePdpContextResponse):
            self._on_delete_response(packet, inner)
        elif isinstance(inner, GtpUpdatePdpContextResponse):
            self._on_update_response(packet, inner)
        elif isinstance(inner, GtpPduNotificationRequest):
            self._on_pdu_notification(packet, inner, src)
        else:
            self.on_unhandled(packet, src, interface)

    def _on_create_response(
        self, header: GtpHeader, rsp: GtpCreatePdpContextResponse
    ) -> None:
        pending = self._gtp_pending.pop(header.seq, None)
        if pending is None:
            return
        ctx: PdpContext = pending["ctx"]
        requester: str = pending["requester"]
        if rsp.cause != CAUSE_ACCEPTED or rsp.pdp_address is None:
            self.send(
                requester,
                ActivatePdpContextReject(
                    imsi=ctx.imsi, nsapi=ctx.nsapi,
                    cause=SM_CAUSE_INSUFFICIENT_RESOURCES,
                ),
            )
            return
        ctx.pdp_address = rsp.pdp_address
        ctx.ggsn_name = self._ggsn_peer().name
        self.pdp_contexts[ctx.key()] = ctx
        self._context_gauge.inc()
        self.sim.metrics.counter(f"{self.name}.pdp_activations").inc()
        self.send(
            requester,
            ActivatePdpContextAccept(
                imsi=ctx.imsi,
                nsapi=ctx.nsapi,
                pdp_address=ctx.pdp_address,
                qos_delay_class=ctx.qos.delay_class,
            ),
        )

    @handles(DeactivatePdpContextRequest)
    def on_deactivate_pdp(
        self, msg: DeactivatePdpContextRequest, src: Node, interface: str
    ) -> None:
        key = (msg.imsi, msg.nsapi)
        ctx = self.pdp_contexts.get(key)
        if ctx is None:
            # Idempotent deactivation keeps release races harmless.
            self.send(src, DeactivatePdpContextAccept(imsi=msg.imsi, nsapi=msg.nsapi))
            return
        seq = self._gtp_seq.next()
        self._gtp_pending[seq] = {"ctx": ctx, "requester": src.name}
        header = GtpHeader(msg_type=MSG_DELETE_PDP_REQ, seq=seq, tid=ctx.tid)
        self.send(self._ggsn_peer(), header / GtpDeletePdpContextRequest(nsapi=msg.nsapi))

    def _on_delete_response(
        self, header: GtpHeader, rsp: GtpDeletePdpContextResponse
    ) -> None:
        pending = self._gtp_pending.pop(header.seq, None)
        if pending is None:
            return
        ctx: PdpContext = pending["ctx"]
        if self.pdp_contexts.pop(ctx.key(), None) is not None:
            self._context_gauge.dec()
            self.sim.metrics.counter(f"{self.name}.pdp_deactivations").inc()
        self.send(
            pending["requester"],
            DeactivatePdpContextAccept(imsi=ctx.imsi, nsapi=ctx.nsapi),
        )

    # ------------------------------------------------------------------
    # Network-requested PDP activation (3G TR baseline MT call)
    # ------------------------------------------------------------------
    def _on_pdu_notification(
        self, header: GtpHeader, msg: GtpPduNotificationRequest, src: Node
    ) -> None:
        self.send(
            src,
            GtpHeader(msg_type=MSG_PDU_NOTIFY_RSP, seq=header.seq, tid=header.tid)
            / GtpPduNotificationResponse(),
        )
        mm = self.mm_contexts.get(msg.imsi)
        if mm is None:
            self.sim.metrics.counter(f"{self.name}.notify_unattached").inc()
            return
        self._deliver_downlink(
            msg.imsi,
            RequestPdpContextActivation(
                imsi=msg.imsi,
                nsapi=header.tid.nsapi,
                pdp_address=msg.pdp_address,
            ),
        )

    # ------------------------------------------------------------------
    # READY/STANDBY and GPRS paging (GSM 03.60 §6)
    # ------------------------------------------------------------------
    def _touch(self, imsi: IMSI) -> None:
        mm = self.mm_contexts.get(imsi)
        if mm is not None:
            mm.last_activity = self.sim.now

    def _is_ready(self, mm: MmContext) -> bool:
        if self.ready_timeout is None:
            return True
        return self.sim.now - mm.last_activity < self.ready_timeout

    def _deliver_downlink(self, imsi: IMSI, packet) -> None:
        """Send *packet* toward the subscriber, paging first if the MM
        context has fallen back to STANDBY."""
        mm = self.mm_contexts.get(imsi)
        if mm is None:
            self.sim.metrics.counter(f"{self.name}.downlink_unattached").inc()
            return
        if self._is_ready(mm):
            self.send(mm.access_node, packet)
            return
        if len(mm.paged_queue) >= 64:
            # Bound buffering toward unresponsive subscribers.
            self.sim.metrics.counter(f"{self.name}.paged_queue_drops").inc()
            return
        mm.paged_queue.append(packet)
        if not mm.paging:
            mm.paging = True
            self.sim.metrics.counter(f"{self.name}.gprs_pages").inc()
            self.send(mm.access_node, GprsPaging(imsi=imsi))

    @handles(GprsPagingResponse)
    def on_gprs_paging_response(
        self, msg: GprsPagingResponse, src: Node, interface: str
    ) -> None:
        mm = self.mm_contexts.get(msg.imsi)
        if mm is None:
            return
        mm.access_node = src.name
        mm.last_activity = self.sim.now
        mm.paging = False
        pending, mm.paged_queue = mm.paged_queue, []
        for packet in pending:
            self.send(mm.access_node, packet)

    # ------------------------------------------------------------------
    # User-plane forwarding
    # ------------------------------------------------------------------
    @handles(GbUnitdata)
    def on_gb_unitdata(self, frame: GbUnitdata, src: Node, interface: str) -> None:
        """Uplink: wrap the subscriber PDU into the GTP tunnel."""
        self._touch(frame.imsi)
        ctx = self.pdp_contexts.get((frame.imsi, frame.nsapi))
        if ctx is None:
            self.sim.metrics.counter(f"{self.name}.uplink_no_context").inc()
            return
        if frame.payload is None:
            raise PdpContextError("Gb unitdata without a payload")
        header = GtpHeader(msg_type=MSG_T_PDU, seq=0, tid=ctx.tid)
        header.payload = frame.payload
        self.sim.metrics.counter(f"{self.name}.uplink_pdus").inc()
        self.send(self._ggsn_peer(), header)

    def _downlink_tpdu(self, packet: GtpHeader) -> None:
        tid = packet.tid
        ctx = self.pdp_contexts.get((tid.imsi, tid.nsapi))
        if ctx is None:
            self.sim.metrics.counter(f"{self.name}.downlink_no_context").inc()
            return
        frame = GbUnitdata(imsi=tid.imsi, nsapi=tid.nsapi)
        frame.payload = packet.payload
        self.sim.metrics.counter(f"{self.name}.downlink_pdus").inc()
        self._deliver_downlink(tid.imsi, frame)

    # ------------------------------------------------------------------
    # Introspection used by the experiments
    # ------------------------------------------------------------------
    def context_count(self) -> int:
        return len(self.pdp_contexts)

    def context_residency(self) -> float:
        """Context-seconds held at this SGSN (experiment E11)."""
        return self._context_gauge.integral()

"""The VoIP Mobile Switching Center (VMSC).

The paper's contribution (§2): "a router-based softswitch" that replaces
the GSM MSC.  Toward the radio network it *is* an MSC (all of
:class:`~repro.gsm.msc_base.MscBase` is inherited unchanged — A, B, C and
E interfaces identical to a standard MSC).  Toward the network it is a
bank of H.323 terminals, one per attached MS:

* it performs GPRS attach and PDP context activation *on behalf of* each
  MS over the Gb interface (step 1.3), giving every MS an IP address;
* it registers each MS's MSISDN as an H.323 alias with a standard
  gatekeeper (steps 1.4-1.5);
* it runs Q.931 call signalling per call (Figures 5 and 6) and
  transcodes circuit-switched TCH voice to RTP through its vocoder bank
  and built-in PCU (voice path (1)(2)(5)(6)(4) of Figure 2(b));
* it keeps the signalling PDP context alive while the MS is attached, so
  calls set up without per-call PDP activation — the §6 latency argument
  against 3G TR 23.923 — and activates a second, real-time PDP context
  per call for voice (steps 2.9/4.8), deactivated at release (step 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CallSetupError
from repro.identities import IMSI, E164Number, IPv4Address
from repro.core.ms_table import MsTable, MsTableEntry
from repro.gprs.gb import GbUnitdata
from repro.gprs.pdp import NSAPI_SIGNALLING, NSAPI_VOICE
from repro.gsm.msc_base import MscBase, RadioConn
from repro.h323.codec import G711_ULAW, GSM_FR, Vocoder
from repro.h323.endpoint import Address, RasClient
from repro.net.interfaces import Interface
from repro.net.iphost import IpReceiver, ip_datagram
from repro.net.node import Node, handles
from repro.net.transactions import ReliableTransaction, Sequencer
from repro.packets.base import Packet
from repro.packets.bssap import ASetup, TchFrame
from repro.packets.isup import (
    IsupAcm,
    IsupAnm,
    IsupIam,
    IsupRel,
    IsupRlc,
    PcmFrame,
)
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
    RequestPdpContextActivation,
)
from repro.sim.timers import Timer
from repro.packets.ip import IPv4, PORT_H225_CS, PORT_H225_RAS, PORT_RTP
from repro.packets.map import MapUpdateLocationAreaAck
from repro.packets.q931 import (
    CAUSE_NORMAL_CLEARING,
    CAUSE_RESOURCE_UNAVAILABLE,
    CAUSE_USER_BUSY,
    Q931Alerting,
    Q931CallProceeding,
    Q931Connect,
    Q931ReleaseComplete,
    Q931Setup,
)
from repro.packets.ras import RasAcf, RasArj, RasDcf, RasRcf, RasUcf
from repro.packets.rtp import PT_PCMU, RtpPacket


@dataclass
class VmscCall:
    """One H.323 call handled by the VMSC on behalf of an MS."""

    call_ref: int
    imsi: IMSI
    direction: str                        # "mo" | "mt"
    state: str = "admission"
    called: Optional[E164Number] = None
    calling: Optional[E164Number] = None
    remote_signal: Optional[Address] = None
    remote_media: Optional[Address] = None
    placed_at: float = 0.0
    connected_at: Optional[float] = None
    released_at: Optional[float] = None
    voice_pdp_pending: bool = False
    uplink_buffer: List[TchFrame] = field(default_factory=list)
    rtp_seq: int = 0
    span: Optional[object] = None         # repro.obs.spans.Span (MT leg)
    admission_timer: Optional[Timer] = None


@dataclass
class FallbackCall:
    """A call carried over the ISUP trunk because the H.323 path was
    unavailable (gatekeeper outage): the PSTN fallback of the fault
    scenarios.  Voice bridges PCM <-> TCH with no transcoding, exactly
    like the classic MSC."""

    cic: int
    imsi: IMSI
    state: str = "setup"                  # setup | alerting | in-call
    placed_at: float = 0.0
    connected_at: Optional[float] = None


class Vmsc(MscBase, IpReceiver):
    """The VoIP mobile switching centre."""

    def __init__(
        self,
        sim,
        name: str,
        gk_ip: IPv4Address,
        country_code: str = "886",
        idle_deactivate_after: Optional[float] = None,
    ) -> None:
        """``idle_deactivate_after`` enables the variant the paper
        sketches and rejects in §6: deactivate the signalling PDP context
        after that many idle seconds ("this approach may significantly
        increase the call setup time and is not considered in the current
        vGPRS implementation").  ``None`` (the default) is the paper's
        design: the context stays up while the MS is attached."""
        super().__init__(sim, name)
        self.gk_ip = gk_ip
        self.country_code = country_code
        self.idle_deactivate_after = idle_deactivate_after
        self._idle_timers: Dict[IMSI, Timer] = {}
        self._pending_mo: Dict[IMSI, Tuple[RadioConn, ASetup]] = {}
        self.ms_table = MsTable()
        # Keyed by (call_ref, imsi): when both parties of a call are MSs
        # on this VMSC (paper §4: "the called party can be another MS in
        # the same GPRS network"), the two legs share one call reference.
        self.calls: Dict[Tuple[int, IMSI], VmscCall] = {}
        self._call_by_imsi: Dict[IMSI, VmscCall] = {}
        #: One RAS client for every MS this VMSC registers.
        self.ras = RasClient()
        self.vocoder = Vocoder(GSM_FR, G711_ULAW)
        self._pending_lu: Dict[IMSI, Tuple[RadioConn, MapUpdateLocationAreaAck]] = {}
        #: Guard for steps 1.3-1.5: if GPRS/H.323 registration does not
        #: finish in time (core failure), the GSM location update is
        #: still confirmed — the subscriber remains a GSM subscriber —
        #: but the entry is left VoIP-incapable and counted.
        self.registration_guard = 10.0
        self._lu_guards: Dict[IMSI, Timer] = {}
        #: H.225 registration time-to-live granted by the GK; the VMSC
        #: refreshes each MS's registration at half the TTL (lightweight
        #: re-registration) so aliases never age out while attached.
        self.gk_ttl = 3600
        self._keepalive_timers: Dict[IMSI, Timer] = {}
        #: Recovery policy after a GK failure: re-register with
        #: exponential backoff (first retry after ``gk_retry_base``
        #: seconds, scaled by ``gk_retry_backoff`` per attempt, up to
        #: ``gk_retry_max`` resends) so the MS re-homes automatically
        #: when the gatekeeper returns.
        self.gk_retry_base = 2.0
        self.gk_retry_backoff = 2.0
        self.gk_retry_max = 6
        self._gk_retries: Dict[IMSI, ReliableTransaction] = {}
        #: When the outage was detected per IMSI, so the RCF that ends it
        #: can record the recovery latency (MTTR) histogram.
        self._gk_outage_since: Dict[IMSI, float] = {}
        #: H.225 gives no answer when the GK is unreachable; guard every
        #: ARQ so calls fail over (or fail cleanly) instead of wedging.
        self.admission_timeout = 4.0
        # PSTN fallback trunk state, used only when an ISUP trunk is
        # wired (build_vgprs_network(with_pstn=True)).
        self._cic_seq = Sequencer(start=600000)
        self._fallback_by_cic: Dict[int, FallbackCall] = {}
        self._fallback_by_imsi: Dict[IMSI, FallbackCall] = {}

    # ------------------------------------------------------------------
    # Gb plumbing: H.323 on behalf of each MS
    # ------------------------------------------------------------------
    def _sgsn(self) -> Node:
        return self.peer(Interface.GB)

    def _send_h323(
        self,
        entry: MsTableEntry,
        message: Packet,
        dst: Address,
        sport: int,
        tcp: bool = False,
        nsapi: int = NSAPI_SIGNALLING,
    ) -> None:
        """Send an H.323 message sourced from the MS's IP address,
        tunnelled through the MS's PDP context (paths (4)(3)(2)/(8) of
        Figure 3)."""
        src_ip = entry.ip
        if src_ip is None:
            raise CallSetupError(f"{self.name}: no PDP address for {entry.imsi}")
        frame = GbUnitdata(imsi=entry.imsi, nsapi=nsapi)
        frame.payload = ip_datagram(src_ip, dst[0], message, dst[1], sport, tcp)
        self.send(self._sgsn(), frame)

    def _to_gk(self, entry: MsTableEntry, message: Packet) -> None:
        self._send_h323(entry, message, (self.gk_ip, PORT_H225_RAS), PORT_H225_RAS)

    @handles(GbUnitdata)
    def on_gb_unitdata(self, frame: GbUnitdata, src: Node, interface: str) -> None:
        """Uplink H.323 for an MS: unwrap it and dispatch it through the
        handler table, exactly as an IP host would."""
        packet = frame.payload
        if not isinstance(packet, IPv4):
            self.sim.metrics.counter(f"{self.name}.gb_non_ip").inc()
            return
        if self.ms_table.by_ip(packet.dst) is None:
            self.sim.metrics.counter(f"{self.name}.gb_unknown_ms").inc()
            return
        self.deliver_ip(packet, src, interface)

    def _rx_entry(self) -> MsTableEntry:
        """The MS whose PDP address the H.323 message being handled was
        sent to (known to the table: :meth:`on_gb_unitdata` checked)."""
        assert self.rx_ip is not None
        entry = self.ms_table.by_ip(self.rx_ip.dst)
        assert entry is not None
        return entry

    # ------------------------------------------------------------------
    # Registration: steps 1.3 - 1.6
    # ------------------------------------------------------------------
    def on_registration_complete(
        self, conn: RadioConn, ack: MapUpdateLocationAreaAck
    ) -> None:
        """Step 1.2 finished (VLR ack); run GPRS attach, PDP activation
        and gatekeeper registration before confirming to the MS."""
        entry = self.ms_table.ensure(conn.imsi, now=self.sim.now)
        entry.tmsi = ack.new_tmsi if ack.new_tmsi is not None else entry.tmsi
        if ack.msisdn is not None:
            self.ms_table.set_msisdn(entry, ack.msisdn)
        self._pending_lu[conn.imsi] = (conn, ack)
        guard = self._lu_guards.get(conn.imsi)
        if guard is None:
            guard = Timer(
                self.sim,
                f"t-reg:{conn.imsi}",
                self.registration_guard,
                lambda imsi=conn.imsi: self._registration_guard_expired(imsi),
            )
            self._lu_guards[conn.imsi] = guard
        guard.start()
        if not entry.gprs_attached:
            # Step 1.3: "The VMSC performs GPRS attach to the SGSN."
            self.send(self._sgsn(), GprsAttachRequest(imsi=conn.imsi))
        elif not entry.signalling_ready:
            self._activate_pdp(entry, NSAPI_SIGNALLING)
        else:
            self._register_with_gk(entry)

    @handles(GprsAttachAccept)
    def on_gprs_attach_accept(
        self, msg: GprsAttachAccept, src: Node, interface: str
    ) -> None:
        entry = self.ms_table.require(msg.imsi)
        entry.gprs_attached = True
        # Step 1.3 continued: "the VMSC activates a new PDP context just
        # like a GPRS MS does" — low-priority, dedicated to H.323
        # signalling.
        self._activate_pdp(entry, NSAPI_SIGNALLING)

    def _activate_pdp(self, entry: MsTableEntry, nsapi: int) -> None:
        state = entry.pdp_state(nsapi)
        self.send(
            self._sgsn(),
            ActivatePdpContextRequest(
                imsi=entry.imsi,
                nsapi=nsapi,
                qos_delay_class=state.qos.delay_class,
                qos_peak_kbps=state.qos.peak_kbps,
            ),
        )

    @handles(ActivatePdpContextAccept)
    def on_pdp_accept(
        self, msg: ActivatePdpContextAccept, src: Node, interface: str
    ) -> None:
        entry = self.ms_table.require(msg.imsi)
        self.ms_table.set_ip(entry, msg.nsapi, msg.pdp_address)
        entry.pdp_state(msg.nsapi).activated_at = self.sim.now
        if msg.nsapi == NSAPI_SIGNALLING:
            pending = self._pending_mo.pop(msg.imsi, None)
            if pending is not None:
                # Idle-deactivation variant: context restored; resume the
                # queued origination (the GK registration is still valid
                # because the GGSN re-issued the same PDP address).
                conn, setup = pending
                self.route_mo_call(conn, setup)
            elif entry.gk_registered:
                # Network-requested re-activation for an incoming call;
                # the buffered Setup will now arrive.
                pass
            else:
                # Step 1.4: register the MS's alias with the gatekeeper.
                self._register_with_gk(entry)
        else:
            self._voice_pdp_ready(entry)

    @handles(ActivatePdpContextReject)
    def on_pdp_reject(
        self, msg: ActivatePdpContextReject, src: Node, interface: str
    ) -> None:
        self.sim.metrics.counter(f"{self.name}.pdp_rejects").inc()
        if msg.nsapi == NSAPI_VOICE:
            call = self._call_by_imsi.get(msg.imsi)
            if call is not None:
                self._release_call(call, cause=CAUSE_RESOURCE_UNAVAILABLE)
            return
        # Signalling context refused: complete the GSM registration
        # without VoIP capability (counted) and fail any queued call.
        pending_mo = self._pending_mo.pop(msg.imsi, None)
        if pending_mo is not None:
            conn, _setup = pending_mo
            self.disconnect_ms(conn)
        pending = self._pending_lu.pop(msg.imsi, None)
        if pending is not None:
            guard = self._lu_guards.get(msg.imsi)
            if guard is not None:
                guard.stop()
            self.sim.metrics.counter(f"{self.name}.voip_unavailable").inc()
            conn, ack = pending
            self.confirm_location_update(conn, ack)

    def _register_with_gk(self, entry: MsTableEntry) -> None:
        if entry.msisdn is None:
            self.sim.metrics.counter(f"{self.name}.no_msisdn").inc()
            return
        self._to_gk(
            entry, self.ras.rrq(entry.msisdn, entry.ip, "vgprs-ms", ttl=self.gk_ttl)
        )

    def _arm_keepalive(self, entry: MsTableEntry) -> None:
        timer = self._keepalive_timers.get(entry.imsi)
        if timer is None:
            timer = Timer(
                self.sim,
                f"gk-keepalive:{entry.imsi}",
                self.gk_ttl / 2,
                lambda imsi=entry.imsi: self._keepalive_expired(imsi),
            )
            self._keepalive_timers[entry.imsi] = timer
        timer.start()

    def _keepalive_expired(self, imsi: IMSI) -> None:
        entry = self.ms_table.get(imsi)
        if entry is None or not entry.gk_registered:
            return
        if not entry.signalling_ready:
            # Idle-deactivation variant: skip while the context is down;
            # the GK entry is refreshed on the next activity instead.
            self._arm_keepalive(entry)
            return
        self.sim.metrics.counter(f"{self.name}.gk_keepalives").inc()
        self._register_with_gk(entry)

    def _registration_guard_expired(self, imsi: IMSI) -> None:
        pending = self._pending_lu.pop(imsi, None)
        if pending is None:
            return
        self.sim.metrics.counter(f"{self.name}.gk_registration_timeouts").inc()
        conn, ack = pending
        # Confirm the GSM-level registration; VoIP stays unavailable
        # until re-registration succeeds end to end.  The retry loop
        # below keeps trying with backoff, so a transient GK outage
        # heals without waiting for the next location update.
        self.confirm_location_update(conn, ack)
        self._note_gk_outage(imsi)

    def _note_gk_outage(self, imsi: IMSI) -> None:
        """A GK failure was detected for this MS: stamp the outage start
        (for the MTTR histogram) and start re-registering with backoff."""
        self._gk_outage_since.setdefault(imsi, self.sim.now)
        self._start_gk_retry(imsi)

    def _start_gk_retry(self, imsi: IMSI) -> None:
        entry = self.ms_table.get(imsi)
        if entry is None or entry.msisdn is None or entry.ip is None:
            return
        txn = self._gk_retries.get(imsi)
        if txn is not None and txn.state == "pending":
            return
        txn = ReliableTransaction(
            self.sim,
            f"gk-rereg:{imsi}",
            lambda attempt, i=imsi: self._retry_register(i),
            timeout=self.gk_retry_base,
            backoff=self.gk_retry_backoff,
            max_retries=self.gk_retry_max,
            on_give_up=lambda i=imsi: self._gk_retry_gave_up(i),
            counter_prefix=f"{self.name}.gk_rereg",
        )
        self._gk_retries[imsi] = txn
        txn.start()

    def _retry_register(self, imsi: IMSI) -> None:
        entry = self.ms_table.get(imsi)
        if entry is None or entry.ip is None or entry.msisdn is None:
            # Detached (or lost its PDP address) mid-retry: stop quietly.
            txn = self._gk_retries.pop(imsi, None)
            if txn is not None:
                txn.cancel()
            return
        self._register_with_gk(entry)

    def _gk_retry_gave_up(self, imsi: IMSI) -> None:
        # The entry stays VoIP-incapable; calls keep falling back to the
        # PSTN (or fail cleanly) until a later location update retries.
        self._gk_retries.pop(imsi, None)
        self.sim.trace.note(self.name, "GK_REREG_GAVE_UP", imsi=str(imsi))

    @handles(RasRcf)
    def on_rcf(self, msg: RasRcf, src: Node, interface: str) -> None:
        # Step 1.5: "The VMSC then creates the MS MM and PDP contexts for
        # the MS and stores these contexts in its MS table."
        entry = self._rx_entry()
        guard = self._lu_guards.get(entry.imsi)
        if guard is not None:
            guard.stop()
        txn = self._gk_retries.pop(entry.imsi, None)
        if txn is not None:
            txn.complete()
        since = self._gk_outage_since.pop(entry.imsi, None)
        if since is not None:
            # Re-homing complete: the MS is VoIP-capable again.  The
            # histogram is the recovery-latency (MTTR) distribution the
            # fault scenarios and serve-mode alerts gate on.
            self.sim.metrics.histogram("fault.mttr.gk_registration").observe(
                self.sim.now - since
            )
            self.sim.metrics.counter(f"{self.name}.gk_recoveries").inc()
            self.sim.trace.note(
                self.name, "GK_REREGISTERED", imsi=str(entry.imsi)
            )
        entry.gk_registered = True
        self._arm_keepalive(entry)
        self.sim.trace.note(self.name, "MS_TABLE_ENTRY_CREATED", imsi=str(entry.imsi))
        pending = self._pending_lu.pop(entry.imsi, None)
        if pending is not None:
            conn, ack = pending
            # Step 1.6: confirm the location update to the MS.
            self.confirm_location_update(conn, ack)
        self._arm_idle_timer(entry)

    # ------------------------------------------------------------------
    # Detach (MS power-off)
    # ------------------------------------------------------------------
    def on_ms_detached(self, conn: RadioConn) -> None:
        """The MS announced power-off: unregister the alias at the
        gatekeeper, tear the PDP contexts down and GPRS-detach — the
        mirror image of steps 1.3-1.5."""
        entry = self.ms_table.get(conn.imsi)
        if entry is None:
            return
        self._cancel_idle_timer(conn.imsi)
        call = self._call_by_imsi.get(conn.imsi)
        if call is not None:
            self._release_call(call, cause=CAUSE_NORMAL_CLEARING)
        fb = self._fallback_by_imsi.get(conn.imsi)
        if fb is not None:
            self._drop_fallback(fb)
            self.send(
                self._pstn_trunk(),
                IsupRel(cic=fb.cic),
                interface=Interface.ISUP,
            )
        if entry.gk_registered and entry.msisdn is not None and entry.ip is not None:
            self._to_gk(entry, self.ras.urq(entry.msisdn))
        entry.gk_registered = False
        keepalive = self._keepalive_timers.get(conn.imsi)
        if keepalive is not None:
            keepalive.stop()
        retry = self._gk_retries.pop(conn.imsi, None)
        if retry is not None:
            retry.cancel()
        self._gk_outage_since.pop(conn.imsi, None)
        # Give the URQ a moment to ride the context out, then tear down.
        self.sim.schedule(0.1, self._detach_gprs, conn.imsi)

    def _detach_gprs(self, imsi: IMSI) -> None:
        entry = self.ms_table.get(imsi)
        if entry is None or not entry.gprs_attached:
            return
        # GPRS detach implicitly deletes the remaining contexts at the
        # SGSN; mirror that in the MS table.
        self.send(self._sgsn(), GprsDetachRequest(imsi=imsi))

    @handles(GprsDetachAccept)
    def on_gprs_detach_accept(
        self, msg: GprsDetachAccept, src: Node, interface: str
    ) -> None:
        entry = self.ms_table.get(msg.imsi)
        if entry is None:
            return
        entry.gprs_attached = False
        for nsapi in list(entry.pdp):
            self.ms_table.clear_pdp(entry, nsapi)

    # ------------------------------------------------------------------
    # Idle deactivation (the paper's rejected variant, for ablation)
    # ------------------------------------------------------------------
    def _arm_idle_timer(self, entry: MsTableEntry) -> None:
        if self.idle_deactivate_after is None:
            return
        timer = self._idle_timers.get(entry.imsi)
        if timer is None:
            timer = Timer(
                self.sim,
                f"idle:{entry.imsi}",
                self.idle_deactivate_after,
                lambda imsi=entry.imsi: self._idle_expired(imsi),
            )
            self._idle_timers[entry.imsi] = timer
        timer.start()

    def _cancel_idle_timer(self, imsi: IMSI) -> None:
        timer = self._idle_timers.get(imsi)
        if timer is not None:
            timer.stop()

    def _idle_expired(self, imsi: IMSI) -> None:
        entry = self.ms_table.get(imsi)
        if entry is None or imsi in self._call_by_imsi:
            return
        if entry.signalling_ready:
            self.sim.metrics.counter(f"{self.name}.idle_deactivations").inc()
            self.send(
                self._sgsn(),
                DeactivatePdpContextRequest(imsi=imsi, nsapi=NSAPI_SIGNALLING),
            )

    @handles(RequestPdpContextActivation)
    def on_network_requested_activation(
        self, msg: RequestPdpContextActivation, src: Node, interface: str
    ) -> None:
        """A downlink PDU (an incoming call's Setup) is buffered at the
        GGSN for an MS whose context the idle timer tore down."""
        entry = self.ms_table.get(msg.imsi)
        if entry is None:
            return
        self.sim.metrics.counter(f"{self.name}.network_requested_pdp").inc()
        if not entry.signalling_ready:
            self._activate_pdp(entry, NSAPI_SIGNALLING)

    # ------------------------------------------------------------------
    # MO call: steps 2.2 - 2.9
    # ------------------------------------------------------------------
    def route_mo_call(self, conn: RadioConn, setup: ASetup) -> None:
        entry = self.ms_table.require(conn.imsi)
        self._cancel_idle_timer(conn.imsi)
        if not entry.gk_registered:
            # VoIP is down for this MS (GK outage or registration never
            # completed).  Fall back to the circuit path when an ISUP
            # trunk is wired; otherwise clear the attempt cleanly.
            if self._start_pstn_fallback(conn, setup.called, entry.msisdn):
                return
            self.sim.metrics.counter(f"{self.name}.calls_without_voip").inc()
            self.disconnect_ms(conn)
            return
        if not entry.signalling_ready:
            # Idle-deactivation variant: re-activate first, then resume.
            self._pending_mo[conn.imsi] = (conn, setup)
            self._activate_pdp(entry, NSAPI_SIGNALLING)
            return
        # Step 2.2 tail: "the VMSC checks the PDP context record of the
        # MS and identifies the routing path to the GGSN based on the
        # GPRS tunnel ID".
        self.sim.trace.note(
            self.name,
            "PDP_ROUTING_PATH_IDENTIFIED",
            imsi=str(conn.imsi),
            tid=str(entry.pdp_state(NSAPI_SIGNALLING).nsapi),
        )
        call = VmscCall(
            call_ref=self.sim.call_refs.next(),
            imsi=conn.imsi,
            direction="mo",
            called=setup.called,
            calling=entry.msisdn,
            placed_at=self.sim.now,
        )
        self.calls[(call.call_ref, conn.imsi)] = call
        self._call_by_imsi[conn.imsi] = call
        # The handset's call span (opened at place_call, keyed by IMSI)
        # learns the allocated H.225 call reference here, so the RAS and
        # Q.931 legs of Figure 5 attach to the same tree.
        ms_call = self.sim.spans.find_open("imsi", conn.imsi, name="call")
        if ms_call is not None:
            ms_call.bind("call_ref", call.call_ref)
        # Step 2.3: ARQ/ACF with the gatekeeper.
        self._to_gk(
            entry, self.ras.arq(call.call_ref, entry.msisdn, called=setup.called)
        )
        self._arm_admission_guard(call)

    def _arm_admission_guard(self, call: VmscCall) -> None:
        call.admission_timer = Timer(
            self.sim,
            f"t-arq:{call.call_ref}",
            self.admission_timeout,
            lambda c=call: self._admission_expired(c),
        )
        call.admission_timer.start()

    def _admission_expired(self, call: VmscCall) -> None:
        if call.state != "admission" or (
            self.calls.get((call.call_ref, call.imsi)) is not call
        ):
            return
        self.sim.metrics.counter(f"{self.name}.admission_timeouts").inc()
        self.sim.trace.note(
            self.name,
            "ADMISSION_TIMEOUT",
            imsi=str(call.imsi),
            call_ref=call.call_ref,
        )
        # No ACF/ARJ within the guard: the GK is unreachable.  Mark the
        # MS VoIP-incapable (so later calls skip the wait), start the
        # re-registration loop that will re-home it when the GK returns,
        # and carry this call over the PSTN if a trunk exists.
        entry = self.ms_table.get(call.imsi)
        if entry is not None:
            entry.gk_registered = False
            self._note_gk_outage(call.imsi)
        if call.direction == "mo":
            conn = self.conns.get(call.imsi)
            self._drop_call(call)
            if conn is None:
                return
            if call.called is not None and self._start_pstn_fallback(
                conn, call.called, call.calling
            ):
                return
            self.sim.metrics.counter(f"{self.name}.calls_without_voip").inc()
            self.disconnect_ms(conn)
        else:
            self._release_call(call, cause=CAUSE_RESOURCE_UNAVAILABLE)

    @handles(RasAcf)
    def on_acf(self, msg: RasAcf, src: Node, interface: str) -> None:
        entry = self._rx_entry()
        call = self.calls.get((msg.call_ref, entry.imsi))
        if call is None:
            return
        if call.admission_timer is not None:
            call.admission_timer.stop()
        if call.direction == "mo" and call.state == "admission":
            if msg.dest_signal_address is None:
                self._release_call(call, cause=CAUSE_NORMAL_CLEARING)
                return
            call.remote_signal = (
                msg.dest_signal_address,
                msg.dest_signal_port or PORT_H225_CS,
            )
            call.state = "setup-sent"
            # Step 2.4: Q.931 Setup to the destination through the GGSN.
            self._send_q931(
                entry,
                call,
                Q931Setup(
                    call_ref=call.call_ref,
                    called=call.called,
                    calling=call.calling,
                    signal_address=entry.ip,
                    signal_port=PORT_H225_CS,
                    media_address=entry.ip,
                    media_port=PORT_RTP,
                ),
            )
        elif call.direction == "mt" and call.state == "admission":
            # Step 4.3 done; step 4.4: page the MS.
            call.state = "paging"
            conn = self.page(
                call.imsi,
                on_ready=lambda c: self._mt_radio_ready(call, c),
                on_failed=lambda c: self._mt_page_failed(call, c),
            )

    @handles(RasArj)
    def on_arj(self, msg: RasArj, src: Node, interface: str) -> None:
        call = self.calls.get((msg.call_ref, self._rx_entry().imsi))
        if call is None:
            return
        if call.admission_timer is not None:
            call.admission_timer.stop()
        self.sim.metrics.counter(f"{self.name}.admission_rejects").inc()
        if call.direction == "mo":
            conn = self.conn(call.imsi)
            self._drop_call(call)
            self.disconnect_ms(conn)
        else:
            self._release_call(call, cause=CAUSE_RESOURCE_UNAVAILABLE)

    # ------------------------------------------------------------------
    # MT call: steps 4.2 - 4.8
    # ------------------------------------------------------------------
    @handles(Q931Setup)
    def on_setup(self, msg: Q931Setup, src: Node, interface: str) -> None:
        entry = self._rx_entry()
        if entry.imsi in self._call_by_imsi:
            # Busy: reject immediately.
            self._send_h323(
                entry,
                Q931ReleaseComplete(call_ref=msg.call_ref, cause=CAUSE_USER_BUSY),
                (msg.signal_address, msg.signal_port),
                PORT_H225_CS,
                tcp=True,
            )
            return
        self._cancel_idle_timer(entry.imsi)
        call = VmscCall(
            call_ref=msg.call_ref,
            imsi=entry.imsi,
            direction="mt",
            called=entry.msisdn,
            calling=msg.calling,
            remote_signal=(msg.signal_address, msg.signal_port),
            remote_media=(msg.media_address, msg.media_port),
            placed_at=self.sim.now,
        )
        self.calls[(call.call_ref, entry.imsi)] = call
        self._call_by_imsi[entry.imsi] = call
        # MT leg span: auto-parents to the calling terminal's span via
        # the shared call_ref; the paged MS's own call span will nest
        # under this one via the shared IMSI.
        call.span = self.sim.spans.open(
            "mt-leg",
            keys={"imsi": entry.imsi, "call_ref": call.call_ref},
            node=self.name,
            calling=str(msg.calling) if msg.calling is not None else None,
        )
        # Step 4.2 tail: Call Proceeding back to the calling party.
        self._send_q931(entry, call, Q931CallProceeding(call_ref=call.call_ref))
        # Step 4.3: the VMSC's own admission request.
        self._to_gk(entry, self.ras.arq(call.call_ref, entry.msisdn, answer=True))
        self._arm_admission_guard(call)

    def _mt_radio_ready(self, call: VmscCall, conn: RadioConn) -> None:
        # Step 4.5 tail: radio channel + security done; send the setup.
        call.state = "ms-setup"
        self.send_setup_to_ms(conn, call.calling)

    def _mt_page_failed(self, call: VmscCall, conn: RadioConn) -> None:
        self._release_call(call, cause=CAUSE_RESOURCE_UNAVAILABLE)

    def on_ms_alerting(self, conn: RadioConn) -> None:
        call = self._call_by_imsi.get(conn.imsi)
        if call is None or call.direction != "mt":
            return
        entry = self.ms_table.require(conn.imsi)
        # Step 4.6: Q.931 Alerting toward the calling party.
        self._send_q931(entry, call, Q931Alerting(call_ref=call.call_ref))

    def on_ms_connect(self, conn: RadioConn) -> None:
        call = self._call_by_imsi.get(conn.imsi)
        if call is None or call.direction != "mt":
            return
        entry = self.ms_table.require(conn.imsi)
        call.connected_at = self.sim.now
        call.state = "in-call"
        # Step 4.7: Q.931 Connect to the calling party.
        self._send_q931(
            entry,
            call,
            Q931Connect(
                call_ref=call.call_ref,
                media_address=entry.ip,
                media_port=PORT_RTP,
            ),
        )
        # Step 4.8: activate the real-time voice PDP context.
        self._activate_voice_pdp(entry, call)

    # ------------------------------------------------------------------
    # Q.931 progress for MO calls
    # ------------------------------------------------------------------
    @handles(Q931CallProceeding)
    def on_call_proceeding(
        self, msg: Q931CallProceeding, src: Node, interface: str
    ) -> None:
        call = self.calls.get((msg.call_ref, self._rx_entry().imsi))
        if call is not None and call.state == "setup-sent":
            call.state = "proceeding"

    @handles(Q931Alerting)
    def on_alerting(self, msg: Q931Alerting, src: Node, interface: str) -> None:
        call = self.calls.get((msg.call_ref, self._rx_entry().imsi))
        if call is None:
            return
        # Step 2.7: forward alerting down to the MS (ringback).
        conn = self.conn(call.imsi)
        self.send_alerting_to_ms(conn)

    @handles(Q931Connect)
    def on_connect(self, msg: Q931Connect, src: Node, interface: str) -> None:
        entry = self._rx_entry()
        call = self.calls.get((msg.call_ref, entry.imsi))
        if call is None:
            return
        call.remote_media = (msg.media_address, msg.media_port)
        call.connected_at = self.sim.now
        call.state = "in-call"
        conn = self.conn(call.imsi)
        # Step 2.8: Connect down to the MS.
        self.send_connect_to_ms(conn)
        # Step 2.9: second PDP context for real-time VoIP packets.
        self._activate_voice_pdp(entry, call)

    def _activate_voice_pdp(self, entry: MsTableEntry, call: VmscCall) -> None:
        if entry.voice_ready:
            call.voice_pdp_pending = False
            return
        call.voice_pdp_pending = True
        self._activate_pdp(entry, NSAPI_VOICE)

    def _voice_pdp_ready(self, entry: MsTableEntry) -> None:
        call = self._call_by_imsi.get(entry.imsi)
        if call is None:
            return
        call.voice_pdp_pending = False
        self.sim.trace.note(
            self.name, "VOICE_PDP_ACTIVE", imsi=str(entry.imsi), call_ref=call.call_ref
        )
        # Flush uplink frames buffered during activation.
        frames, call.uplink_buffer = call.uplink_buffer, []
        for frame in frames:
            self._uplink_to_rtp(entry, call, frame)

    # ------------------------------------------------------------------
    # Release: steps 3.1 - 3.4
    # ------------------------------------------------------------------
    def on_ms_disconnect(self, conn: RadioConn, cause: int) -> None:
        fb = self._fallback_by_imsi.get(conn.imsi)
        if fb is not None:
            # Fallback leg: release the circuit; the RLC cleans up.
            self.send(
                self._pstn_trunk(),
                IsupRel(cic=fb.cic, cause=cause),
                interface=Interface.ISUP,
            )
            return
        call = self._call_by_imsi.get(conn.imsi)
        if call is None:
            return
        entry = self.ms_table.require(conn.imsi)
        # Step 3.2: Q.931 Release Complete to the far end.
        self._send_q931(
            entry,
            call,
            Q931ReleaseComplete(call_ref=call.call_ref, cause=CAUSE_NORMAL_CLEARING),
        )
        self._finish_release(entry, call)

    @handles(Q931ReleaseComplete)
    def on_release_complete(
        self, msg: Q931ReleaseComplete, src: Node, interface: str
    ) -> None:
        """The far end released first (network-initiated clearing)."""
        entry = self._rx_entry()
        call = self.calls.get((msg.call_ref, entry.imsi))
        if call is None:
            return
        self._finish_release(entry, call)
        conn = self.conn(call.imsi)
        self.disconnect_ms(conn, cause=msg.cause)

    def _finish_release(self, entry: MsTableEntry, call: VmscCall) -> None:
        call.state = "released"
        call.released_at = self.sim.now
        # Step 3.3: disengage from the gatekeeper (charging).
        duration_ms = 0
        if call.connected_at is not None:
            duration_ms = int((self.sim.now - call.connected_at) * 1000)
        self._to_gk(entry, self.ras.drq(call.call_ref, entry.msisdn, duration_ms))
        # Step 3.4: deactivate the voice PDP context.
        if entry.voice_ready or call.voice_pdp_pending:
            self.send(
                self._sgsn(),
                DeactivatePdpContextRequest(imsi=entry.imsi, nsapi=NSAPI_VOICE),
            )
        if call.span is not None:
            call.span.attrs["duration_ms"] = duration_ms
            call.span.close(status="ok")
        self._drop_call(call)
        self._arm_idle_timer(entry)

    @handles(DeactivatePdpContextAccept)
    def on_pdp_deactivated(
        self, msg: DeactivatePdpContextAccept, src: Node, interface: str
    ) -> None:
        entry = self.ms_table.get(msg.imsi)
        if entry is not None:
            self.ms_table.clear_pdp(entry, msg.nsapi)

    def _release_call(self, call: VmscCall, cause: int) -> None:
        """Abort a call from the network side (reject/paging failure)."""
        entry = self.ms_table.require(call.imsi)
        if call.remote_signal is not None:
            self._send_q931(
                entry, call, Q931ReleaseComplete(call_ref=call.call_ref, cause=cause)
            )
        self._finish_release(entry, call)
        # If the radio leg is already up (e.g. the voice PDP context was
        # refused after answer), clear it as well.
        conn = self.conns.get(call.imsi)
        if conn is not None and conn.state not in ("idle", "paging"):
            self.disconnect_ms(conn, cause=cause)

    def _drop_call(self, call: VmscCall) -> None:
        if call.admission_timer is not None:
            call.admission_timer.stop()
        if call.span is not None:
            call.span.close(status="dropped")
        self.calls.pop((call.call_ref, call.imsi), None)
        current = self._call_by_imsi.get(call.imsi)
        if current is call:
            del self._call_by_imsi[call.imsi]

    # ------------------------------------------------------------------
    # PSTN fallback: circuit path for calls during a GK outage
    # ------------------------------------------------------------------
    def _pstn_trunk(self) -> Optional[Node]:
        links = self.links_on(Interface.ISUP)
        return links[0].peer_of(self) if links else None

    def _start_pstn_fallback(
        self,
        conn: RadioConn,
        called: Optional[E164Number],
        calling: Optional[E164Number],
    ) -> bool:
        """Seize an ISUP circuit for an MO call the H.323 path cannot
        carry.  Returns ``False`` (caller clears the attempt) when no
        trunk is wired, the number is missing, or the MS already has a
        fallback leg."""
        peer = self._pstn_trunk()
        if peer is None or called is None or conn.imsi in self._fallback_by_imsi:
            return False
        cic = self._cic_seq.next()
        fb = FallbackCall(cic=cic, imsi=conn.imsi, placed_at=self.sim.now)
        self._fallback_by_cic[cic] = fb
        self._fallback_by_imsi[conn.imsi] = fb
        self.sim.metrics.counter(f"{self.name}.pstn_fallback_calls").inc()
        self.sim.trace.note(
            self.name, "PSTN_FALLBACK", imsi=str(conn.imsi), called=str(called)
        )
        self.send(
            peer,
            IsupIam(cic=cic, called=called, calling=calling),
            interface=Interface.ISUP,
        )
        return True

    def _drop_fallback(self, fb: FallbackCall) -> None:
        self._fallback_by_cic.pop(fb.cic, None)
        current = self._fallback_by_imsi.get(fb.imsi)
        if current is fb:
            del self._fallback_by_imsi[fb.imsi]

    @handles(IsupAcm)
    def on_isup_acm(self, msg: IsupAcm, src: Node, interface: str) -> None:
        fb = self._fallback_by_cic.get(msg.cic)
        if fb is None:
            return
        fb.state = "alerting"
        conn = self.conns.get(fb.imsi)
        if conn is not None:
            self.send_alerting_to_ms(conn)

    def on_isup_anm(self, msg: IsupAnm, src: Node, interface: str) -> None:
        if interface == Interface.E:
            super().on_isup_anm(msg, src, interface)
            return
        fb = self._fallback_by_cic.get(msg.cic)
        if fb is None:
            return
        fb.state = "in-call"
        fb.connected_at = self.sim.now
        conn = self.conns.get(fb.imsi)
        if conn is not None:
            self.send_connect_to_ms(conn)

    def on_isup_rel(self, msg: IsupRel, src: Node, interface: str) -> None:
        if interface == Interface.E:
            super().on_isup_rel(msg, src, interface)
            return
        self.send(src, IsupRlc(cic=msg.cic), interface=Interface.ISUP)
        fb = self._fallback_by_cic.get(msg.cic)
        if fb is None:
            return
        self._drop_fallback(fb)
        conn = self.conns.get(fb.imsi)
        if conn is not None and conn.state not in ("idle", "paging"):
            self.disconnect_ms(conn, cause=msg.cause)

    def on_isup_rlc(self, msg: IsupRlc, src: Node, interface: str) -> None:
        if interface == Interface.E:
            super().on_isup_rlc(msg, src, interface)
            return
        fb = self._fallback_by_cic.get(msg.cic)
        if fb is not None:
            self._drop_fallback(fb)

    # ------------------------------------------------------------------
    # Voice path: TCH <-> vocoder/PCU <-> RTP over the voice PDP context
    # ------------------------------------------------------------------
    def on_uplink_voice(self, conn: RadioConn, frame: TchFrame) -> None:
        fb = self._fallback_by_imsi.get(conn.imsi)
        if fb is not None:
            if fb.state == "in-call":
                self.send(
                    self._pstn_trunk(),
                    PcmFrame(
                        cic=fb.cic, seq=frame.seq, gen_time_us=frame.gen_time_us
                    ),
                    interface=Interface.ISUP,
                )
            return
        call = self._call_by_imsi.get(conn.imsi)
        if call is None or call.remote_media is None:
            self.sim.metrics.counter(f"{self.name}.voice_no_call").inc()
            return
        entry = self.ms_table.require(conn.imsi)
        if call.voice_pdp_pending:
            call.uplink_buffer.append(frame)
            return
        self._uplink_to_rtp(entry, call, frame)

    def _uplink_to_rtp(self, entry: MsTableEntry, call: VmscCall, frame: TchFrame) -> None:
        call.rtp_seq += 1
        rtp = RtpPacket(
            payload_type=PT_PCMU,
            seq=call.rtp_seq & 0xFFFF,
            timestamp=int(self.sim.now * 8000) & 0xFFFFFFFF,
            ssrc=call.call_ref & 0xFFFFFFFF,
            gen_time_us=frame.gen_time_us,
            frame=self.vocoder.transcode(frame.voice),
        )
        self.sim.metrics.counter(f"{self.name}.frames_transcoded_up").inc()
        self.sim.schedule(
            self.vocoder.transcode_delay,
            self._send_h323,
            entry,
            rtp,
            call.remote_media,
            PORT_RTP,
            False,
            NSAPI_VOICE,
        )

    def on_pcm_frame(self, frame: PcmFrame, src: Node, interface: str) -> None:
        if interface == Interface.E:
            super().on_pcm_frame(frame, src, interface)
            return
        fb = self._fallback_by_cic.get(frame.cic)
        if fb is None:
            return
        conn = self.conns.get(fb.imsi)
        if conn is None:
            return
        tch = TchFrame(
            ti=conn.ti or 0,
            imsi=conn.imsi,
            seq=frame.seq,
            gen_time_us=frame.gen_time_us,
        )
        self.send_voice_to_ms(conn, tch)

    @handles(RtpPacket)
    def on_rtp(self, packet: RtpPacket, src: Node, interface: str) -> None:
        entry = self._rx_entry()
        call = self._call_by_imsi.get(entry.imsi)
        if call is None:
            return
        conn = self.conn(entry.imsi)
        tch = TchFrame(
            ti=conn.ti or 0,
            imsi=entry.imsi,
            seq=packet.seq,
            gen_time_us=packet.gen_time_us,
            voice=self.vocoder.transcode(packet.frame)[: GSM_FR.frame_bytes],
        )
        self.sim.metrics.counter(f"{self.name}.frames_transcoded_down").inc()
        self.sim.schedule(
            self.vocoder.transcode_delay, self.send_voice_to_ms, conn, tch
        )

    # ------------------------------------------------------------------
    # Q.931 out, RAS confirmations in
    # ------------------------------------------------------------------
    def _send_q931(self, entry: MsTableEntry, call: VmscCall, message: Packet) -> None:
        assert call.remote_signal is not None
        self._send_h323(entry, message, call.remote_signal, PORT_H225_CS, tcp=True)

    @handles(RasDcf, RasUcf)
    def on_ras_confirm(self, msg: Packet, src: Node, interface: str) -> None:
        """Disengage and unregistration confirms need no action: the
        call and the registration were dropped when DRQ/URQ left."""

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def call_for(self, imsi: IMSI) -> Optional[VmscCall]:
        return self._call_by_imsi.get(imsi)

    def fallback_for(self, imsi: IMSI) -> Optional[FallbackCall]:
        return self._fallback_by_imsi.get(imsi)

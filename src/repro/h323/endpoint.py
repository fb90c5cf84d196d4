"""The H.323 endpoint core: one RAS client, one call leg, one RTP talker.

The paper's VMSC "acts as an H.323 terminal toward a standard
gatekeeper"; so do the plain terminal, the H.323-PSTN gateway and the
3G TR 23.923 handset, and all three are built on :class:`H323Endpoint`:

* :class:`RasClient` builds the RRQ/ARQ/DRQ/URQ requests, numbered from
  one sequencer per node (the VMSC's one client numbers the requests of
  every MS it serves);
* :class:`H323Call` is the one per-call record, and the endpoint's
  handlers run the leg ARQ -> Setup -> Call Proceeding/Alerting ->
  Connect -> Release Complete -> DRQ in either direction;
* the RTP talker sends one :attr:`H323Endpoint.codec` frame per interval,
  frame by frame through events or as one fluid-model flow whose
  shared-channel parameters come from the first hop (the 3G TR radio's
  packet channel; none for a host on the IP cloud), and
  :class:`~repro.media.rx.RxStats` records what arrives.

Subclasses set what differs — the codec, the endpoint type the
gatekeeper records, whether DRQ reports the talk time — and override the
hooks where a gateway bridges to its ISUP trunk or a handset manages its
PDP context.  The VMSC shares the RAS client and the transport-unwrap
step (:class:`~repro.net.iphost.IpReceiver`) but keeps its own call state
machine, which bridges every leg to a GSM radio connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional, Tuple

from repro.errors import CallSetupError, ProtocolError
from repro.h323.codec import G711_ULAW, CodecSpec
from repro.identities import E164Number, IPv4Address
from repro.media.rx import RxStats
from repro.net.iphost import IpHost, ip_datagram
from repro.net.node import Node, handles
from repro.net.transactions import Sequencer
from repro.packets.base import Packet
from repro.packets.ip import PORT_H225_CS, PORT_H225_RAS, PORT_RTP
from repro.packets.q931 import (
    CAUSE_CALL_REJECTED,
    CAUSE_NORMAL_CLEARING,
    CAUSE_USER_BUSY,
    Q931Alerting,
    Q931CallProceeding,
    Q931Connect,
    Q931ReleaseComplete,
    Q931Setup,
)
from repro.packets.ras import (
    RasAcf,
    RasArj,
    RasArq,
    RasDcf,
    RasDrq,
    RasRcf,
    RasRrq,
    RasUcf,
    RasUrq,
)
from repro.packets.rtp import RtpPacket
from repro.sim.process import Process, Signal, spawn

if TYPE_CHECKING:  # pragma: no cover
    from repro.media.fluid import FluidFlow, FluidMediaSession
    from repro.obs.spans import Span

#: (address, port) of an H.323 peer: a signalling or media channel.
Address = Tuple[IPv4Address, int]


class RasClient:
    """An endpoint's RAS requests, numbered from one sequencer."""

    def __init__(self) -> None:
        self._seq = Sequencer()

    def rrq(
        self,
        alias: E164Number,
        signal_address: IPv4Address,
        endpoint_type: str,
        ttl: int = 3600,
    ) -> RasRrq:
        return RasRrq(
            seq=self._seq.next(),
            alias=alias,
            signal_address=signal_address,
            signal_port=PORT_H225_CS,
            endpoint_type=endpoint_type,
            ttl=ttl,
        )

    def arq(
        self,
        call_ref: int,
        alias: E164Number,
        called: Optional[E164Number] = None,
        answer: bool = False,
    ) -> RasArq:
        """Admission to call *called*, or (``answer``) to answer a call."""
        return RasArq(
            seq=self._seq.next(),
            call_ref=call_ref,
            endpoint_alias=alias,
            called_alias=called,
            answer_call=int(answer),
        )

    def drq(self, call_ref: int, alias: E164Number, duration_ms: int = 0) -> RasDrq:
        return RasDrq(
            seq=self._seq.next(),
            call_ref=call_ref,
            endpoint_alias=alias,
            duration_ms=duration_ms,
        )

    def urq(self, alias: E164Number) -> RasUrq:
        return RasUrq(seq=self._seq.next(), alias=alias)


@dataclass
class H323Call:
    """One call leg at an H.323 endpoint."""

    call_ref: int
    direction: str                       # "out" | "in"
    state: str = "admission"
    called: Optional[E164Number] = None
    calling: Optional[E164Number] = None
    remote_signal: Optional[Address] = None
    remote_media: Optional[Address] = None
    placed_at: Optional[float] = None
    alerting_at: Optional[float] = None
    connected_at: Optional[float] = None
    released_at: Optional[float] = None
    rtp_seq: int = 0
    voice_proc: Optional[Process] = None
    fluid_flow: Optional["FluidFlow"] = None
    span: Optional["Span"] = None
    setup_span: Optional["Span"] = None


class H323Endpoint(IpHost):
    """An H.323 endpoint: registration, call legs and RTP voice."""

    #: The endpoint type the gatekeeper records at registration.
    endpoint_type = "terminal"
    #: The codec the RTP talker sends.
    codec: CodecSpec = G711_ULAW
    #: Whether DRQ reports the call's talk time for charging.
    reports_duration = True
    #: The per-call record this endpoint keeps.
    call_type = H323Call

    def __init__(
        self,
        sim,
        name: str,
        ip: IPv4Address,
        alias: E164Number,
        gk_ip: IPv4Address,
        answer_delay: float = 1.0,
    ) -> None:
        super().__init__(sim, name, ip)
        self.alias = alias
        self.gk_ip = gk_ip
        self.answer_delay = answer_delay
        self.registered = False
        self.ras = RasClient()
        self.calls: Dict[int, H323Call] = {}
        #: Fired after any per-call state change (admission, ringing,
        #: connect, release, removal); workloads block on this instead
        #: of polling ``calls``.
        self.calls_changed = Signal(f"{name}.calls")
        self.rx = RxStats(sim, name)
        self.on_registered: Optional[Callable[[], None]] = None
        self.on_incoming: Optional[Callable[[H323Call], None]] = None
        self.on_connected: Optional[Callable[[H323Call], None]] = None
        #: Called when a call clears, from either side.
        self.on_released: Optional[Callable[[H323Call], None]] = None
        #: Called when the gatekeeper refuses admission.
        self.on_rejected: Optional[Callable[[H323Call], None]] = None

    @property
    def frames_received(self) -> int:
        return self.rx.frames

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _send_h323(
        self, message: Packet, dst: Address, sport: int, tcp: bool = False
    ) -> None:
        self.send_ip(dst[0], message, dst[1], sport, tcp)

    def _send_q931(self, call: H323Call, message: Packet) -> None:
        if call.remote_signal is None:
            raise ProtocolError(f"{self.name}: no signalling address for call")
        self._send_h323(message, call.remote_signal, PORT_H225_CS, tcp=True)

    def _to_gk(self, message: Packet) -> None:
        self._send_h323(message, (self.gk_ip, PORT_H225_RAS), PORT_H225_RAS)

    # ------------------------------------------------------------------
    # RAS registration
    # ------------------------------------------------------------------
    def register(self) -> None:
        """Register the alias and signalling address with the gatekeeper."""
        self.attach_to_cloud()
        self._to_gk(self.ras.rrq(self.alias, self.ip, self.endpoint_type))

    @handles(RasRcf)
    def on_rcf(self, msg: RasRcf, src: Node, interface: str) -> None:
        self.registered = True
        if self.on_registered is not None:
            self.on_registered()

    @handles(RasUcf)
    def on_ucf(self, msg: RasUcf, src: Node, interface: str) -> None:
        self.registered = False

    @handles(RasDcf)
    def on_dcf(self, msg: RasDcf, src: Node, interface: str) -> None:
        pass

    # ------------------------------------------------------------------
    # Call leg
    # ------------------------------------------------------------------
    def _place(self, called: E164Number) -> H323Call:
        """Open an outgoing call record; the caller sends its ARQ."""
        call = self.call_type(
            self.sim.call_refs.next(),
            "out",
            called=called,
            calling=self.alias,
            placed_at=self.sim.now,
        )
        self.calls[call.call_ref] = call
        self._opened(call)
        return call

    def _admit(self, call: H323Call) -> None:
        call.state = "admission"
        if call.direction == "out":
            msg = self.ras.arq(call.call_ref, self.alias, called=call.called)
        else:
            msg = self.ras.arq(call.call_ref, self.alias, answer=True)
        self._to_gk(msg)

    @handles(Q931Setup)
    def on_setup(self, msg: Q931Setup, src: Node, interface: str) -> None:
        if self._busy():
            self._send_h323(
                Q931ReleaseComplete(call_ref=msg.call_ref, cause=CAUSE_USER_BUSY),
                (msg.signal_address, msg.signal_port),
                PORT_H225_CS,
                tcp=True,
            )
            return
        call = self.call_type(
            msg.call_ref,
            "in",
            called=msg.called,
            calling=msg.calling,
            remote_signal=(msg.signal_address, msg.signal_port),
            remote_media=(msg.media_address, msg.media_port),
        )
        self.calls[call.call_ref] = call
        self._opened(call)
        self.calls_changed.fire()
        # Call Proceeding back to the caller, then the answering side's
        # own admission request (Figure 6 steps 2.4-2.5).
        self._send_q931(call, Q931CallProceeding(call_ref=call.call_ref))
        self._admit(call)
        if self.on_incoming is not None:
            self.on_incoming(call)

    @handles(RasAcf)
    def on_acf(self, msg: RasAcf, src: Node, interface: str) -> None:
        call = self.calls.get(msg.call_ref)
        if call is None or call.state != "admission":
            return
        if call.direction == "in":
            self._ring(call)
        elif msg.dest_signal_address is None:
            self._rejected(call)
        else:
            call.remote_signal = (
                msg.dest_signal_address,
                msg.dest_signal_port or PORT_H225_CS,
            )
            call.state = "setup-sent"
            self.calls_changed.fire()
            self._send_q931(
                call,
                Q931Setup(
                    call_ref=call.call_ref,
                    called=call.called,
                    calling=call.calling,
                    signal_address=self.ip,
                    signal_port=PORT_H225_CS,
                    media_address=self.ip,
                    media_port=PORT_RTP,
                ),
            )

    @handles(RasArj)
    def on_arj(self, msg: RasArj, src: Node, interface: str) -> None:
        call = self.calls.get(msg.call_ref)
        if call is not None:
            self._rejected(call)

    def _ring(self, call: H323Call) -> None:
        """The answering side was admitted: alert the caller and answer
        after ``answer_delay``."""
        call.state = "ringing"
        call.alerting_at = self.sim.now
        self.calls_changed.fire()
        self._send_q931(call, Q931Alerting(call_ref=call.call_ref))
        self.sim.schedule(self.answer_delay, self._answer, call.call_ref)

    def _answer(self, call_ref: int) -> None:
        call = self.calls.get(call_ref)
        if call is None or call.state != "ringing":
            return
        self._mark_connected(call)
        self._send_q931(
            call,
            Q931Connect(call_ref=call_ref, media_address=self.ip, media_port=PORT_RTP),
        )
        self._connected(call)

    @handles(Q931CallProceeding)
    def on_call_proceeding(self, msg: Q931CallProceeding, src: Node, interface: str) -> None:
        call = self.calls.get(msg.call_ref)
        if call is not None and call.state == "setup-sent":
            call.state = "proceeding"
            self.calls_changed.fire()

    @handles(Q931Alerting)
    def on_alerting(self, msg: Q931Alerting, src: Node, interface: str) -> None:
        call = self.calls.get(msg.call_ref)
        if call is not None:
            call.state = "alerting"
            call.alerting_at = self.sim.now
            self.calls_changed.fire()

    @handles(Q931Connect)
    def on_connect(self, msg: Q931Connect, src: Node, interface: str) -> None:
        call = self.calls.get(msg.call_ref)
        if call is None:
            return
        call.remote_media = (msg.media_address, msg.media_port)
        self._mark_connected(call)
        self._connected(call)

    def _mark_connected(self, call: H323Call) -> None:
        call.state = "in-call"
        call.connected_at = self.sim.now
        if call.setup_span is not None:
            if call.placed_at is not None:
                call.setup_span.attrs["setup_delay"] = self.sim.now - call.placed_at
            call.setup_span.close(status="ok")
            call.setup_span = None
        self.calls_changed.fire()

    def hangup(self, call_ref: Optional[int] = None) -> None:
        """Clear *call_ref* (default: the endpoint's only call) from this
        side (Figure 5 steps 3.1-3.3)."""
        call = self._call(call_ref)
        if call is None:
            raise CallSetupError(f"{self.name}: no call to hang up ({call_ref})")
        self._stop_talk(call)
        if call.remote_signal is not None:
            self._send_q931(
                call,
                Q931ReleaseComplete(call_ref=call.call_ref, cause=CAUSE_NORMAL_CLEARING),
            )
        self._disengage(call)

    @handles(Q931ReleaseComplete)
    def on_release_complete(self, msg: Q931ReleaseComplete, src: Node, interface: str) -> None:
        call = self.calls.get(msg.call_ref)
        if call is not None:
            self._stop_talk(call)
            self._disengage(call)

    def _disengage(self, call: H323Call) -> None:
        call.state = "released"
        call.released_at = self.sim.now
        duration_ms = 0
        if call.connected_at is not None:
            duration_ms = int((self.sim.now - call.connected_at) * 1000)
        # Step 3.3: every endpoint informs the GK of call completion.
        self._to_gk(
            self.ras.drq(
                call.call_ref,
                self.alias,
                duration_ms if self.reports_duration else 0,
            )
        )
        if call.setup_span is not None:
            call.setup_span.close(status="ok")
            call.setup_span = None
        if call.span is not None:
            call.span.attrs["duration_ms"] = duration_ms
            call.span.close(status="ok")
        self.calls.pop(call.call_ref, None)
        self.calls_changed.fire()
        self._cleared(call)
        if self.on_released is not None:
            self.on_released(call)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _busy(self) -> bool:
        """Refuse an incoming Setup with cause user-busy?"""
        return False

    def _opened(self, call: H323Call) -> None:
        """A call record was just created (either direction)."""

    def _connected(self, call: H323Call) -> None:
        """*call* reached the in-call state."""
        if self.on_connected is not None:
            self.on_connected(call)

    def _rejected(self, call: H323Call) -> None:
        """The gatekeeper refused admission (step 2.5): release the
        caller of an incoming call and drop the record."""
        if call.direction == "in":
            self._send_q931(
                call,
                Q931ReleaseComplete(call_ref=call.call_ref, cause=CAUSE_CALL_REJECTED),
            )
        call.state = "released"
        call.released_at = self.sim.now
        if call.setup_span is not None:
            call.setup_span.close(status="rejected")
        if call.span is not None:
            call.span.attrs["cause"] = CAUSE_CALL_REJECTED
            call.span.close(status="rejected")
        self.calls.pop(call.call_ref, None)
        self.calls_changed.fire()
        self.sim.metrics.counter(f"{self.name}.calls_failed").inc()
        if self.on_rejected is not None:
            self.on_rejected(call)

    def _cleared(self, call: H323Call) -> None:
        """*call* was disengaged and dropped."""

    def _open_spans(self, call: H323Call, **attrs: object) -> None:
        """Open the ``call`` span and its ``setup`` child for *call*.
        Keyed by call_ref only (not alias): the alias is in every RAS
        exchange the endpoint makes, and keying on it would steal
        entries from concurrent calls.  An incoming leg auto-parents to
        the caller's span through the shared call_ref."""
        call.span = self.sim.spans.open(
            "call",
            keys={"call_ref": call.call_ref},
            node=self.name,
            direction=call.direction,
            **attrs,
        )
        call.setup_span = self.sim.spans.open(
            "setup", keys={"call_ref": call.call_ref}, parent=call.span
        )

    # ------------------------------------------------------------------
    # RTP talker and listener
    # ------------------------------------------------------------------
    def _call(self, call_ref: Optional[int]) -> Optional[H323Call]:
        if call_ref is None:
            return next(iter(self.calls.values()), None)
        return self.calls.get(call_ref)

    def start_talking(
        self,
        call_ref: Optional[int] = None,
        frame_interval: float = 0.020,
        duration: Optional[float] = None,
    ) -> None:
        """Talk on *call_ref* (default: the endpoint's only call) for
        *duration* seconds, or until stopped when ``None``.  With a fluid
        media session a timed spurt runs as one analytic flow."""
        call = self._call(call_ref)
        if call is None or call.state != "in-call":
            raise CallSetupError(f"{self.name}: start_talking outside a call")
        self._stop_talk(call)
        media = self.sim.media
        if media is not None and duration is not None:
            call.fluid_flow = self._start_fluid(media, call, frame_interval, duration)
        else:
            call.voice_proc = spawn(self.sim, self._talk(call, frame_interval, duration))

    def stop_talking(self, call_ref: Optional[int] = None) -> None:
        call = self._call(call_ref)
        if call is not None:
            self._stop_talk(call)

    def _stop_talk(self, call: H323Call) -> None:
        if call.voice_proc is not None:
            call.voice_proc.interrupt()
            call.voice_proc = None
        if call.fluid_flow is not None:
            flow, call.fluid_flow = call.fluid_flow, None
            self.sim.media.end_flow(flow)

    def _rtp(self, call: H323Call, seq: int, payload: bytes) -> RtpPacket:
        now = self.sim.now
        return RtpPacket(
            payload_type=self.codec.payload_type,
            seq=seq & 0xFFFF,
            timestamp=int(now * 8000) & 0xFFFFFFFF,
            ssrc=call.call_ref & 0xFFFFFFFF,
            gen_time_us=int(now * 1e6),
            frame=payload,
        )

    def _talk(
        self, call: H323Call, interval: float, duration: Optional[float]
    ) -> Generator[float, None, None]:
        started = self.sim.now
        payload = bytes(self.codec.frame_bytes)  # one frame, reused for the spurt
        while call.state == "in-call" and call.remote_media is not None:
            if duration is not None and self.sim.now - started >= duration:
                break
            call.rtp_seq += 1
            self._send_h323(
                self._rtp(call, call.rtp_seq, payload), call.remote_media, PORT_RTP
            )
            yield interval

    def _start_fluid(
        self,
        media: "FluidMediaSession",
        call: H323Call,
        interval: float,
        duration: float,
    ) -> "FluidFlow":
        """Register an analytic flow and send only the calibration probe
        (frame 0) through the event path; see :mod:`repro.media.fluid`.
        A first hop with a shared packet channel (the 3G TR radio) puts
        the flow on that channel's model."""
        assert call.remote_media is not None
        call.rtp_seq += 1
        now = self.sim.now
        gen_us = int(now * 1e6)
        dst_ip, dst_port = call.remote_media
        probe = self._frame(
            ip_datagram(
                self.ip,
                dst_ip,
                self._rtp(call, call.rtp_seq, bytes(self.codec.frame_bytes)),
                dst_port,
                PORT_RTP,
            )
        )
        uplink = self._uplink()
        link = self.link_to(uplink)
        hop = link.peer_of(self)
        channel = None
        delta = service = residual_busy = 0.0
        bps = getattr(hop, "packet_channel_bps", None)
        if bps:
            # Every frame is the same wire size (fixed-width fields), so
            # the probe's serialisation time holds for the whole spurt.
            service = len(probe.build()) * 8 / bps
            channel = media.channel(hop, "up", bps)
            delta = link.latency
            residual_busy = hop._pch_busy_until["up"]

        def frames_sent(n: int) -> None:
            call.rtp_seq += n

        flow = media.start_flow(
            key=gen_us, start=now, interval=interval, duration=duration,
            on_frames=frames_sent, channel=channel,
            delta=delta, service=service, residual_busy=residual_busy,
        )
        self.send(uplink, probe)
        return flow

    @handles(RtpPacket)
    def on_rtp(self, packet: RtpPacket, src: Node, interface: str) -> None:
        self.rx.on_frame(packet.gen_time_us)

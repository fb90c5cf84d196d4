"""The H.323-PSTN gateway.

Figure 8's hinge: "the local telephone company first routes the call to
the H.323 gateway through VoIP service.  The gateway checks with the GK
to see if the entry for x can be found in the address translation
table."  Found -> the call stays local (Q.931 toward the serving VMSC);
not found -> the gateway releases with a routing cause and the exchange
falls back to the normal international PSTN route.

The gateway also carries H.323-originated calls out to the PSTN (the
paper's §4: "the called party can also be a traditional telephone set in
the PSTN, which is connected indirectly ... through the H.323 network").
Its H.323 side is the shared :class:`~repro.h323.endpoint.H323Endpoint`
leg; this module bridges each leg to an ISUP circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.identities import E164Number, IPv4Address
from repro.h323.codec import G711_ULAW, Vocoder
from repro.h323.endpoint import H323Call, H323Endpoint
from repro.net.node import Node, handles
from repro.net.transactions import Sequencer
from repro.packets.isup import (
    CAUSE_NO_ROUTE,
    CAUSE_NORMAL,
    IsupAcm,
    IsupAnm,
    IsupIam,
    IsupRel,
    IsupRlc,
    PcmFrame,
)
from repro.packets.q931 import Q931Alerting, Q931ReleaseComplete
from repro.packets.rtp import PT_PCMU, RtpPacket


@dataclass
class GatewayCall(H323Call):
    """One H.323 leg bridged to a PSTN circuit.  ``out`` legs come in
    from the PSTN; ``in`` legs are dialled out to it once admitted."""

    cic: int = 0
    trunk_peer: str = ""


class H323PstnGateway(H323Endpoint):
    """A media gateway between the PSTN and the H.323 network."""

    endpoint_type = "gateway"
    reports_duration = False
    call_type = GatewayCall

    def __init__(
        self,
        sim,
        name: str,
        ip: IPv4Address,
        alias: E164Number,
        gk_ip: IPv4Address,
    ) -> None:
        super().__init__(sim, name, ip, alias, gk_ip)
        self._cic_seq = Sequencer(start=810001)
        self.calls_by_cic: Dict[int, GatewayCall] = {}
        self.vocoder = Vocoder(G711_ULAW, G711_ULAW)

    # ------------------------------------------------------------------
    # PSTN -> H.323 (Figure 8)
    # ------------------------------------------------------------------
    @handles(IsupIam)
    def on_iam(self, msg: IsupIam, src: Node, interface: str) -> None:
        call = GatewayCall(
            self.sim.call_refs.next(),
            "out",
            called=msg.called,
            calling=msg.calling,
            cic=msg.cic,
            trunk_peer=src.name,
        )
        self.calls[call.call_ref] = call
        self.calls_by_cic[call.cic] = call
        # Figure 8 step 2: ask the gatekeeper whether the called party is
        # registered (i.e. roaming here).
        self._admit(call)

    def _rejected(self, call: H323Call) -> None:
        assert isinstance(call, GatewayCall)
        self.calls.pop(call.call_ref, None)
        self.calls_by_cic.pop(call.cic, None)
        self.sim.metrics.counter(f"{self.name}.gk_misses").inc()
        if call.direction == "out":
            # Figure 8: "if x is not found in the GK, the GK will instruct
            # y to connect to the international telephone network as a
            # normal PSTN call" — release with a routing cause so the
            # exchange falls back to its next route.
            self.send(call.trunk_peer, IsupRel(cic=call.cic, cause=CAUSE_NO_ROUTE))

    # ------------------------------------------------------------------
    # H.323 -> PSTN
    # ------------------------------------------------------------------
    def _ring(self, call: H323Call) -> None:
        """Admission granted for the answer side: ring the PSTN leg."""
        assert isinstance(call, GatewayCall)
        call.state = "ringing"
        call.cic = self._cic_seq.next()
        call.trunk_peer = self.peer("isup").name
        self.calls_by_cic[call.cic] = call
        self.send(
            call.trunk_peer,
            IsupIam(cic=call.cic, called=call.called, calling=call.calling),
        )

    @handles(IsupAcm)
    def on_acm(self, msg: IsupAcm, src: Node, interface: str) -> None:
        call = self.calls_by_cic.get(msg.cic)
        if call is not None and call.direction == "in":
            self._send_q931(call, Q931Alerting(call_ref=call.call_ref))

    @handles(IsupAnm)
    def on_anm(self, msg: IsupAnm, src: Node, interface: str) -> None:
        call = self.calls_by_cic.get(msg.cic)
        if call is not None:
            self._answer(call.call_ref)

    # ------------------------------------------------------------------
    # Call progress and release bridging
    # ------------------------------------------------------------------
    def on_alerting(self, msg: Q931Alerting, src: Node, interface: str) -> None:
        super().on_alerting(msg, src, interface)
        call = self.calls.get(msg.call_ref)
        if isinstance(call, GatewayCall) and call.direction == "out":
            self.send(call.trunk_peer, IsupAcm(cic=call.cic))

    def _connected(self, call: H323Call) -> None:
        assert isinstance(call, GatewayCall)
        if call.direction == "out":
            self.send(call.trunk_peer, IsupAnm(cic=call.cic))
        super()._connected(call)

    @handles(IsupRel)
    def on_rel(self, msg: IsupRel, src: Node, interface: str) -> None:
        self.send(src, IsupRlc(cic=msg.cic))
        call = self.calls_by_cic.get(msg.cic)
        if call is not None:
            self.hangup(call.call_ref)

    def on_release_complete(
        self, msg: Q931ReleaseComplete, src: Node, interface: str
    ) -> None:
        call = self.calls.get(msg.call_ref)
        if isinstance(call, GatewayCall) and call.cic:
            self.send(call.trunk_peer, IsupRel(cic=call.cic, cause=CAUSE_NORMAL))
        super().on_release_complete(msg, src, interface)

    def _cleared(self, call: H323Call) -> None:
        assert isinstance(call, GatewayCall)
        self.calls_by_cic.pop(call.cic, None)

    @handles(IsupRlc)
    def on_rlc(self, msg: IsupRlc, src: Node, interface: str) -> None:
        pass

    # ------------------------------------------------------------------
    # Media bridging (PCM <-> RTP)
    # ------------------------------------------------------------------
    @handles(PcmFrame)
    def on_pcm(self, frame: PcmFrame, src: Node, interface: str) -> None:
        call = self.calls_by_cic.get(frame.cic)
        if call is None or call.remote_media is None or call.state != "in-call":
            return
        call.rtp_seq += 1
        self.sim.schedule(
            self.vocoder.transcode_delay,
            self.send_ip,
            call.remote_media[0],
            RtpPacket(
                payload_type=PT_PCMU,
                seq=call.rtp_seq & 0xFFFF,
                timestamp=int(self.sim.now * 8000) & 0xFFFFFFFF,
                ssrc=call.call_ref & 0xFFFFFFFF,
                gen_time_us=frame.gen_time_us,
                frame=self.vocoder.transcode(b"\x00" * 160),
            ),
            call.remote_media[1],
        )

    def on_rtp(self, packet: RtpPacket, src: Node, interface: str) -> None:
        # Match by SSRC (the call reference).
        call = self.calls.get(packet.ssrc)
        if not isinstance(call, GatewayCall) or call.state != "in-call" or not call.cic:
            return
        self.sim.schedule(
            self.vocoder.transcode_delay,
            self.send,
            call.trunk_peer,
            PcmFrame(cic=call.cic, seq=packet.seq, gen_time_us=packet.gen_time_us),
        )

"""The standard GSM mobile station.

This is the handset the paper's whole design exists to serve unmodified:
no vocoder changes, no H.323 stack, no IP address — just GSM 04.08
signalling over the air interface.  The state machine covers power-on
registration (Figure 4 steps 1.1/1.6), MO calls (Figure 5), MT calls
(Figure 6), release, movement between location areas and inter-system
handoff (Figure 9).

During a call the MS can generate 20 ms vocoder frames
(:class:`~repro.packets.bssap.TchFrame`) stamped with their generation
time, which downstream nodes use to measure mouth-to-ear delay
(experiment E9).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.errors import ProtocolError
from repro.identities import IMSI, E164Number, as_e164
from repro.gsm.security import a3_sres
from repro.media.rx import RxStats
from repro.net.node import Node, handles
from repro.sim.process import Signal, spawn
from repro.packets.bssap import (
    AuthenticationRequest,
    ImsiDetachIndication,
    AuthenticationResponse,
    CipheringModeCommand,
    CipheringModeComplete,
    CmServiceAccept,
    CmServiceReject,
    CmServiceRequest,
    TchFrame,
    UmAlerting,
    UmAssignmentCommand,
    UmAssignmentComplete,
    UmChannelRequest,
    UmConnect,
    UmDisconnect,
    UmHandoverAccess,
    UmHandoverCommand,
    UmHandoverComplete,
    UmImmediateAssignment,
    UmLocationUpdateAccept,
    UmLocationUpdateRequest,
    UmPaging,
    UmPagingResponse,
    UmRelease,
    UmReleaseComplete,
    UmSetup,
)


class MobileStation(Node):
    """A standard GSM handset.

    Parameters
    ----------
    imsi, msisdn, ki:
        Subscriber identity and authentication key (must match the HLR
        provisioning).
    serving_bts:
        Node name of the BTS whose cell the MS camps on.
    lai:
        Location area identity string reported in location updates.
    answer_delay:
        Seconds between ringing and the (simulated) user answering.
    cells:
        Cell-name -> BTS-name map used to retune on handover commands.
    """

    def __init__(
        self,
        sim,
        name: str,
        imsi: IMSI,
        msisdn: E164Number,
        ki: bytes,
        serving_bts: str,
        lai: str = "LAI-1",
        answer_delay: float = 1.0,
        use_tmsi_for_updates: bool = False,
    ) -> None:
        super().__init__(sim, name)
        self.imsi = imsi
        self.msisdn = msisdn
        self.ki = ki
        self.serving_bts = serving_bts
        self.lai = lai
        self.answer_delay = answer_delay
        self.use_tmsi_for_updates = use_tmsi_for_updates
        self.cells: Dict[str, str] = {}
        self.tmsi: Optional[int] = None
        self.registered = False
        #: Fired after every call-state transition; workloads and
        #: scenarios block on this instead of polling ``state``.
        self.state_changed = Signal(f"{name}.state")
        self._state = "off"
        self._access_purpose = ""
        self.ti: Optional[int] = None
        self._ti_seq = int(imsi.digits[-6:]) * 100
        self._pending_called: Optional[E164Number] = None
        self._voice_proc = None
        self._fluid_flow = None
        self._voice_seq = 0
        self.frames_sent = 0
        self.rx = RxStats(sim, name)
        # Procedure spans (repro.obs.spans); opened/closed alongside the
        # state machine so a run renders as a per-call tree.
        self._reg_span = None
        self._call_span = None
        self._setup_span = None
        self._talk_span = None
        self._release_span = None
        # Event callbacks for scenarios/tests.
        self.on_registered: Optional[Callable[[], None]] = None
        self.on_connected: Optional[Callable[[], None]] = None
        self.on_alerting: Optional[Callable[[], None]] = None
        self.on_released: Optional[Callable[[], None]] = None
        self.on_incoming: Optional[Callable[[Optional[E164Number]], None]] = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @state.setter
    def state(self, value: str) -> None:
        if value != self._state:
            self._state = value
            self.state_changed.fire()

    def _tx(self, packet) -> None:
        self.send(self.serving_bts, packet)

    def _new_ti(self) -> int:
        self._ti_seq += 1
        return self._ti_seq

    # ------------------------------------------------------------------
    # Registration (steps 1.1 / 1.6)
    # ------------------------------------------------------------------
    def power_on(self) -> None:
        """Step 1.1: 'An MS is turned on.'"""
        if self.state != "off":
            raise ProtocolError(f"{self.name}: power_on in state {self.state}")
        self._reg_span = self.sim.spans.open(
            "registration",
            keys={"imsi": self.imsi, "alias": self.msisdn},
            node=self.name,
            kind="power-on",
        )
        self.state = "accessing"
        self._access_purpose = "lu"
        self._tx(UmChannelRequest(establishment_cause=1))

    def power_off(self) -> None:
        """IMSI detach (GSM 04.08): announce power-off and go dark.
        Any active call must be released first."""
        if self.state == "in-call":
            raise ProtocolError(f"{self.name}: hang up before power_off")
        if self.state != "off":
            self._tx(ImsiDetachIndication(imsi=self.imsi, tmsi=self.tmsi))
        if self._reg_span is not None:
            self._reg_span.close(status="aborted")
            self._reg_span = None
        self.registered = False
        self.state = "off"

    def move_to(self, bts_name: str, lai: str) -> None:
        """Movement registration (end of §3): camp on a new cell and run
        a location update, using the TMSI when one was allocated."""
        self.serving_bts = bts_name
        self.lai = lai
        self._reg_span = self.sim.spans.open(
            "registration",
            keys={"imsi": self.imsi, "alias": self.msisdn},
            node=self.name,
            kind="movement",
            lai=lai,
        )
        self.state = "accessing"
        self._access_purpose = "lu"
        self._tx(UmChannelRequest(establishment_cause=1))

    @handles(UmImmediateAssignment)
    def on_immediate_assignment(
        self, msg: UmImmediateAssignment, src: Node, interface: str
    ) -> None:
        if self._access_purpose == "lu":
            use_tmsi = self.use_tmsi_for_updates and self.tmsi is not None
            self._tx(
                UmLocationUpdateRequest(
                    imsi=None if use_tmsi else self.imsi,
                    tmsi=self.tmsi if use_tmsi else None,
                    lai=self.lai,
                )
            )
            self.state = "registering"
        elif self._access_purpose == "mo":
            self._tx(CmServiceRequest(imsi=self.imsi, tmsi=self.tmsi))
            self.state = "mo-access"
        elif self._access_purpose == "mt":
            self._tx(UmPagingResponse(imsi=self.imsi, tmsi=self.tmsi))
            self.state = "mt-access"

    @handles(UmLocationUpdateAccept)
    def on_location_update_accept(
        self, msg: UmLocationUpdateAccept, src: Node, interface: str
    ) -> None:
        if msg.new_tmsi is not None:
            self.tmsi = msg.new_tmsi
        self.registered = True
        self.state = "idle"
        if self._reg_span is not None:
            self._reg_span.close(status="ok")
            self._reg_span = None
        self.sim.metrics.counter(f"{self.name}.registrations").inc()
        if self.on_registered is not None:
            self.on_registered()

    # ------------------------------------------------------------------
    # Security
    # ------------------------------------------------------------------
    @handles(AuthenticationRequest)
    def on_authentication_request(
        self, msg: AuthenticationRequest, src: Node, interface: str
    ) -> None:
        sres = a3_sres(self.ki, msg.rand)
        self._tx(AuthenticationResponse(imsi=self.imsi, sres=sres))

    @handles(CipheringModeCommand)
    def on_ciphering_command(
        self, msg: CipheringModeCommand, src: Node, interface: str
    ) -> None:
        self._tx(CipheringModeComplete(imsi=self.imsi))

    # ------------------------------------------------------------------
    # MO call (Figure 5)
    # ------------------------------------------------------------------
    def place_call(self, called: Union[E164Number, str]) -> None:
        """Dial *called* (step 2.1)."""
        called = as_e164(called)
        if self.state != "idle":
            raise ProtocolError(f"{self.name}: place_call in state {self.state}")
        self._call_span = self.sim.spans.open(
            "call",
            keys={"imsi": self.imsi},
            node=self.name,
            direction="mo",
            called=str(called),
        )
        self._setup_span = self.sim.spans.open(
            "setup", keys={"imsi": self.imsi}, parent=self._call_span
        )
        self._pending_called = called
        self.state = "accessing"
        self._access_purpose = "mo"
        self._tx(UmChannelRequest(establishment_cause=2))

    @handles(CmServiceAccept)
    def on_cm_service_accept(self, msg: CmServiceAccept, src: Node, interface: str) -> None:
        self.state = "mo-awaiting-channel"

    @handles(CmServiceReject)
    def on_cm_service_reject(self, msg: CmServiceReject, src: Node, interface: str) -> None:
        """The network could not serve the call attempt (e.g. radio
        congestion): give up and return to idle."""
        self._pending_called = None
        if self._setup_span is not None:
            self._setup_span.close(status="rejected")
        if self._call_span is not None:
            self._call_span.close(status="rejected")
        self.sim.metrics.counter(f"{self.name}.calls_rejected").inc()
        self._released()

    @handles(UmAssignmentCommand)
    def on_assignment_command(
        self, msg: UmAssignmentCommand, src: Node, interface: str
    ) -> None:
        self._tx(UmAssignmentComplete(imsi=self.imsi))
        if self._access_purpose == "mo" and self._pending_called is not None:
            # Step 2.1: "the digits dialed by the MS are sent to the BTS
            # in a Um_Setup message."
            self.ti = self._new_ti()
            if self._call_span is not None:
                self._call_span.bind("ti", self.ti)
            self._tx(
                UmSetup(
                    ti=self.ti,
                    imsi=self.imsi,
                    called=self._pending_called,
                    calling=self.msisdn,
                )
            )
            self._pending_called = None
            self.state = "mo-setup"

    @handles(UmAlerting)
    def on_alerting_msg(self, msg: UmAlerting, src: Node, interface: str) -> None:
        # Step 2.7: ringback tone at the MS.
        self.state = "mo-alerting"
        if self.on_alerting is not None:
            self.on_alerting()

    @handles(UmConnect)
    def on_connect(self, msg: UmConnect, src: Node, interface: str) -> None:
        self.state = "in-call"
        self.ti = msg.ti
        if self._setup_span is not None:
            self._setup_span.attrs["setup_delay"] = (
                self.sim.now - self._setup_span.start
            )
            self._setup_span.close(status="ok")
            self._setup_span = None
        self.sim.metrics.counter(f"{self.name}.calls_connected").inc()
        if self.on_connected is not None:
            self.on_connected()

    # ------------------------------------------------------------------
    # MT call (Figure 6)
    # ------------------------------------------------------------------
    @handles(UmPaging)
    def on_paging(self, msg: UmPaging, src: Node, interface: str) -> None:
        if msg.imsi != self.imsi and (msg.tmsi is None or msg.tmsi != self.tmsi):
            return  # page for someone else in the cell
        if self.state != "idle":
            return  # busy; the network's paging timer will expire
        self.state = "accessing"
        self._access_purpose = "mt"
        self._tx(UmChannelRequest(establishment_cause=3))

    @handles(UmSetup)
    def on_setup(self, msg: UmSetup, src: Node, interface: str) -> None:
        # Step 4.5 tail / 4.6: the MS rings, then the user answers.
        self.ti = msg.ti
        self._call_span = self.sim.spans.open(
            "call",
            keys={"imsi": self.imsi, "ti": msg.ti},
            node=self.name,
            direction="mt",
            calling=str(msg.calling) if msg.calling is not None else None,
        )
        self._setup_span = self.sim.spans.open(
            "setup", keys={"imsi": self.imsi}, parent=self._call_span
        )
        self.state = "mt-ringing"
        if self.on_incoming is not None:
            self.on_incoming(msg.calling)
        self._tx(UmAlerting(ti=msg.ti, imsi=self.imsi))
        self.sim.schedule(self.answer_delay, self._answer, msg.ti)

    def _answer(self, ti: int) -> None:
        if self.state != "mt-ringing":
            return
        self.state = "in-call"
        if self._setup_span is not None:
            self._setup_span.close(status="ok")
            self._setup_span = None
        self.sim.metrics.counter(f"{self.name}.calls_connected").inc()
        self._tx(UmConnect(ti=ti, imsi=self.imsi))
        if self.on_connected is not None:
            self.on_connected()

    # ------------------------------------------------------------------
    # Release (steps 3.1 / network initiated)
    # ------------------------------------------------------------------
    def hangup(self) -> None:
        """Step 3.1: the user hangs up."""
        if self.state not in ("in-call", "mo-alerting", "mt-ringing"):
            raise ProtocolError(f"{self.name}: hangup in state {self.state}")
        self.stop_talking()
        if self._call_span is not None:
            self._release_span = self.sim.spans.open(
                "release",
                keys={"imsi": self.imsi},
                parent=self._call_span,
                initiator=self.name,
            )
        self.state = "releasing"
        self._tx(UmDisconnect(ti=self.ti or 0, imsi=self.imsi))

    @handles(UmDisconnect)
    def on_disconnect(self, msg: UmDisconnect, src: Node, interface: str) -> None:
        # Network-initiated release: answer with Um_Release.
        self.stop_talking()
        if self._call_span is not None and self._release_span is None:
            self._release_span = self.sim.spans.open(
                "release",
                keys={"imsi": self.imsi},
                parent=self._call_span,
                initiator="network",
            )
        self.state = "releasing"
        self._tx(UmRelease(ti=msg.ti, imsi=self.imsi))

    @handles(UmRelease)
    def on_release(self, msg: UmRelease, src: Node, interface: str) -> None:
        self._tx(UmReleaseComplete(ti=msg.ti, imsi=self.imsi))
        self._released()

    @handles(UmReleaseComplete)
    def on_release_complete(self, msg: UmReleaseComplete, src: Node, interface: str) -> None:
        self._released()

    def _released(self) -> None:
        self.stop_talking()
        for span in (self._release_span, self._setup_span, self._call_span):
            if span is not None:
                span.close(status="ok")
        self._release_span = self._setup_span = self._call_span = None
        self.state = "idle"
        self.ti = None
        if self.on_released is not None:
            self.on_released()

    # ------------------------------------------------------------------
    # Inter-system handoff (Figure 9)
    # ------------------------------------------------------------------
    @handles(UmHandoverCommand)
    def on_handover_command(
        self, msg: UmHandoverCommand, src: Node, interface: str
    ) -> None:
        target_bts = self.cells.get(msg.target_cell)
        if target_bts is None:
            self.sim.metrics.counter(f"{self.name}.handover_no_cell").inc()
            return
        self.serving_bts = target_bts
        self._tx(UmHandoverAccess(ti=msg.ti, imsi=self.imsi))
        self._tx(UmHandoverComplete(ti=msg.ti, imsi=self.imsi))

    # ------------------------------------------------------------------
    # Voice
    # ------------------------------------------------------------------
    def start_talking(self, frame_interval: float = 0.020, duration: Optional[float] = None) -> None:
        """Generate vocoder frames until :meth:`stop_talking` (or for
        *duration* seconds)."""
        if self.state != "in-call":
            raise ProtocolError(f"{self.name}: start_talking in state {self.state}")
        self.stop_talking()
        if self._call_span is not None:
            self._talk_span = self.sim.spans.open(
                "talk",
                keys={"imsi": self.imsi},
                parent=self._call_span,
                interval=frame_interval,
            )
        media = self.sim.media
        if media is not None and duration is not None:
            self._fluid_flow = self._start_fluid(media, frame_interval, duration)
        else:
            self._voice_proc = spawn(self.sim, self._talk(frame_interval, duration))

    def _talk(self, interval: float, duration: Optional[float]):
        started = self.sim.now
        payload = b"\x00" * 33  # one GSM FR frame, reused for the spurt
        while self.state == "in-call":
            if duration is not None and self.sim.now - started >= duration:
                break
            self._voice_seq += 1
            self.frames_sent += 1
            self._tx(
                TchFrame(
                    ti=self.ti or 0,
                    imsi=self.imsi,
                    seq=self._voice_seq,
                    gen_time_us=int(self.sim.now * 1e6),
                    voice=payload,
                )
            )
            yield interval

    def _start_fluid(self, media, interval: float, duration: float):
        """Register an analytic flow and send only the calibration probe
        (frame 0) through the event path; see :mod:`repro.media.fluid`.
        The circuit TCH has no contention queue, so the flow needs no
        channel model — the probe's arrival captures the whole path."""
        now = self.sim.now
        self._voice_seq += 1
        self.frames_sent += 1
        gen_us = int(now * 1e6)
        flow = media.start_flow(
            key=gen_us, start=now, interval=interval, duration=duration,
            on_frames=self._fluid_frames_sent,
        )
        self._tx(
            TchFrame(
                ti=self.ti or 0,
                imsi=self.imsi,
                seq=self._voice_seq,
                gen_time_us=gen_us,
                voice=b"\x00" * 33,
            )
        )
        return flow

    def _fluid_frames_sent(self, n: int) -> None:
        self._voice_seq += n
        self.frames_sent += n

    def stop_talking(self) -> None:
        if self._voice_proc is not None:
            self._voice_proc.interrupt()
            self._voice_proc = None
        if self._fluid_flow is not None:
            flow, self._fluid_flow = self._fluid_flow, None
            self.sim.media.end_flow(flow)
        if self._talk_span is not None:
            self._talk_span.attrs["frames_sent"] = self.frames_sent
            self._talk_span.close(status="ok")
            self._talk_span = None

    @property
    def frames_received(self) -> int:
        return self.rx.frames

    @handles(TchFrame)
    def on_voice(self, frame: TchFrame, src: Node, interface: str) -> None:
        self.rx.on_frame(frame.gen_time_us)

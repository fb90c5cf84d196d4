"""Fluid (analytic) per-call media-flow model.

The event-per-frame media path simulates every 20 ms vocoder frame as a
discrete event, which dominates soak runs (E9 measures thousands of
frames per call).  This module replaces it with a *probe-calibrated
analytic model* that produces the same ``TERM*.mouth_to_ear`` /
``TERM*.jitter`` histograms and endpoint counters with **zero per-frame
events during talk spurts**:

* ``start_talking`` sends only the spurt's **first frame** through the
  real event path.  That probe traverses every link, relay and vocoder
  the remaining frames would, so its arrival measures the constant part
  of the path delay exactly — including transcoding schedules and any
  residual queueing at spurt start.
* The remaining ``N - 1`` frame times are generated with the same float
  accumulation the generator process would use (``t += interval``), so
  frame counts and generation timestamps match the event path bit for
  bit.
* Shared packet channels (the 3G TR baseline's finite-capacity radio
  channel, :meth:`repro.gsm.bts.Bts._packet_channel_delay`) are modelled
  by :class:`FluidChannel`, a deterministic replica of the same FIFO
  busy-until arithmetic.  At flush time the channel replays the merged
  arrival progression of every overlapping flow, so load-dependent
  queueing delay and jitter — the physical origin of E9's degradation
  curve — reproduce the event path's values, including the unbounded
  backlog growth of an oversubscribed channel.
* One **flush** event per spurt observes every frame that has already
  (analytically) arrived; frames still "in flight" at flush time are
  observed by cheap drain events scheduled at their arrival times, so a
  run cut off mid-delivery observes exactly the frames the event path
  would have.

The model is calibrated entirely from simulated quantities; nothing in
this module may read wall-clock time (``repro lint`` rule R1 enforces
this for the whole package).

Assumptions (documented in EXPERIMENTS.md): the constant part of the
path delay does not change during a spurt (no mid-spurt handoff), and
receivers apply the codec's nominal 20 ms spacing when computing jitter
(:data:`repro.media.rx.NOMINAL_SPACING`, shared with the event path).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.media.rx import NOMINAL_SPACING, RxStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator

__all__ = ["FluidChannel", "FluidFlow", "FluidMediaSession", "install_fluid"]


class _ChannelFlow:
    """One media flow's schedule on a shared packet channel."""

    __slots__ = ("seq", "start", "delta", "interval", "dur", "service", "done")

    def __init__(
        self,
        seq: int,
        start: float,
        delta: float,
        interval: float,
        dur: float,
        service: float,
    ) -> None:
        self.seq = seq
        self.start = start
        #: Constant lag between frame generation and channel arrival
        #: (the radio-link latency in front of the BTS queue).
        self.delta = delta
        self.interval = interval
        self.dur = dur
        self.service = service
        self.done = False


class FluidChannel:
    """Deterministic replica of a shared packet channel's FIFO queue.

    Mirrors :meth:`repro.gsm.bts.Bts._packet_channel_delay`: arrivals
    are served in order, each occupying the channel for its
    serialisation time; a frame's wait is ``max(now, busy_until) - now``.
    Flows register their frame schedules; :meth:`waits` replays the
    merged arrival progression of every registered flow to compute one
    flow's per-frame waits.  Ties (frames of different flows arriving at
    the same instant) are broken by registration order, which matches
    the event kernel's scheduling-order tie-break for simultaneously
    started spurts.
    """

    def __init__(self, bps: float) -> None:
        self.bps = bps
        self._flows: List[_ChannelFlow] = []
        self._next_seq = 0
        #: Residual ``busy_until`` of the real channel when the first
        #: flow of a busy period registered — carries over any backlog
        #: signalling left behind, exactly as the event path would.
        self._busy0 = float("-inf")

    def register(
        self,
        start: float,
        delta: float,
        interval: float,
        dur: float,
        service: float,
        residual_busy: float,
    ) -> _ChannelFlow:
        if all(f.done for f in self._flows):
            # New busy period: earlier flows can no longer interact with
            # this one (their backlog is summarised by *residual_busy*).
            self._flows.clear()
            self._busy0 = residual_busy
        flow = _ChannelFlow(self._next_seq, start, delta, interval, dur, service)
        self._next_seq += 1
        self._flows.append(flow)
        return flow

    def truncate(self, flow: _ChannelFlow, dur: float) -> None:
        if dur < flow.dur:
            flow.dur = dur

    def waits(self, target: _ChannelFlow) -> List[float]:
        """Per-frame queueing waits for *target*, replaying all flows."""
        cursors: List[Tuple[float, int, float, _ChannelFlow]] = []
        for f in self._flows:
            if f.dur > 0 and f.start <= target.start + target.dur:
                cursors.append((f.start + f.delta, f.seq, f.start, f))
        heapq.heapify(cursors)
        busy = self._busy0
        out: List[float] = []
        want = _frame_count(target.start, target.interval, target.dur)
        while cursors and len(out) < want:
            arrival, seq, t, f = heapq.heappop(cursors)
            begin = busy if busy > arrival else arrival
            if f is target:
                out.append(begin - arrival)
            busy = begin + f.service
            t2 = t + f.interval
            if t2 - f.start < f.dur:
                heapq.heappush(cursors, (t2 + f.delta, seq, t2, f))
        return out


def _frame_count(start: float, interval: float, dur: float) -> int:
    """Number of frames a generator loop emits: one at each ``t`` from
    *start* stepping by *interval* while ``t - start < dur``, with the
    same float accumulation the event-path process uses."""
    n = 0
    t = start
    while t - start < dur:
        n += 1
        t += interval
    return n


class FluidFlow:
    """One talk spurt being modelled analytically."""

    __slots__ = (
        "key", "start", "interval", "dur", "on_frames",
        "channel", "cflow", "receiver", "probe_arrival",
        "flushed", "pending_flush", "flush_event",
        "tail", "tail_idx",
    )

    def __init__(
        self,
        key: int,
        start: float,
        interval: float,
        dur: float,
        on_frames: Optional[Callable[[int], None]],
        channel: Optional[FluidChannel],
        cflow: Optional[_ChannelFlow],
    ) -> None:
        self.key = key
        self.start = start
        self.interval = interval
        self.dur = dur
        self.on_frames = on_frames
        self.channel = channel
        self.cflow = cflow
        self.receiver: Optional[RxStats] = None
        self.probe_arrival: Optional[float] = None
        self.flushed = False
        self.pending_flush = False
        self.flush_event: Optional["Event"] = None
        #: ``(arrival, delay, jitter)`` of frames still in flight at
        #: flush time, drained by events at their arrival instants.
        self.tail: List[Tuple[float, float, float]] = []
        self.tail_idx = 0


class FluidMediaSession:
    """Session-wide registry of fluid media flows.

    Installed as ``Simulator.media`` (``None`` keeps the event-per-frame
    path with zero overhead).  Senders register flows from
    ``start_talking``; receivers report every media frame they observe
    via :meth:`on_frame`, which correlates the spurt's calibration probe
    back to its flow by generation timestamp.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Probe key (``gen_time_us``) -> flows awaiting calibration, in
        #: registration order.  Simultaneously started spurts share a
        #: key; their probes arrive in registration order, so FIFO
        #: matching pairs each probe with its own flow (and identical
        #: paths make the pairing immaterial anyway).
        self._awaiting: Dict[int, List[FluidFlow]] = {}
        self._channels: Dict[Tuple[object, str], FluidChannel] = {}

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def channel(self, node: object, direction: str, bps: float) -> FluidChannel:
        """The shared :class:`FluidChannel` mirroring *node*'s packet
        channel in *direction* (created on first use)."""
        ch = self._channels.get((node, direction))
        if ch is None:
            ch = self._channels[(node, direction)] = FluidChannel(bps)
        return ch

    def start_flow(
        self,
        key: int,
        start: float,
        interval: float,
        duration: float,
        on_frames: Optional[Callable[[int], None]] = None,
        channel: Optional[FluidChannel] = None,
        delta: float = 0.0,
        service: float = 0.0,
        residual_busy: float = 0.0,
    ) -> FluidFlow:
        """Register a spurt of frames every *interval* s for *duration* s
        starting at *start*; the caller sends frame 0 (the probe, whose
        ``gen_time_us`` is *key*) through the event path itself."""
        cflow = None
        if channel is not None:
            cflow = channel.register(
                start, delta, interval, duration, service, residual_busy
            )
        flow = FluidFlow(key, start, interval, duration, on_frames, channel, cflow)
        self._awaiting.setdefault(key, []).append(flow)
        flow.flush_event = self.sim.schedule_at(start + duration, self._flush, flow)
        return flow

    def end_flow(self, flow: FluidFlow) -> None:
        """Truncate *flow* at the current instant (early hang-up) and
        flush it; a no-op when the spurt already ran its full duration.
        Frames already in flight keep draining, as they would on the
        event path."""
        if flow.flushed:
            return
        elapsed = self.sim.now - flow.start
        if elapsed < flow.dur:
            flow.dur = elapsed
            if flow.cflow is not None:
                flow.channel.truncate(flow.cflow, elapsed)
        if flow.flush_event is not None:
            flow.flush_event.cancel()
            flow.flush_event = None
        self._flush(flow)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_frame(self, key: int, receiver: RxStats) -> None:
        """Called by media receivers for every frame they observe; pairs
        calibration probes with their flows.  Frames that are not
        pending probes (event-path traffic) fall through untouched."""
        flows = self._awaiting.get(key)
        if not flows:
            return
        flow = flows.pop(0)
        if not flows:
            del self._awaiting[key]
        flow.receiver = receiver
        flow.probe_arrival = self.sim.now
        if flow.pending_flush:
            flow.pending_flush = False
            self._flush(flow)

    # ------------------------------------------------------------------
    # Flush + drain
    # ------------------------------------------------------------------
    def _flush(self, flow: FluidFlow) -> None:
        if flow.flushed:
            return
        if flow.receiver is None:
            # Probe still in flight (spurt shorter than the path delay);
            # finish when it lands.
            flow.pending_flush = True
            return
        flow.flushed = True
        if flow.cflow is not None:
            flow.cflow.done = True
        # Frame generation times, with the generator loop's own float
        # accumulation so counts and timestamps match the event path.
        times: List[float] = []
        t = flow.start
        while t - flow.start < flow.dur:
            times.append(t)
            t += flow.interval
        n = len(times)
        if flow.on_frames is not None and n > 1:
            flow.on_frames(n - 1)
        if n <= 1:
            return
        if flow.cflow is not None:
            waits = flow.channel.waits(flow.cflow)
            w0 = waits[0]
        else:
            waits = None
            w0 = 0.0
        # Every constant along the path (radio latency, serialisation,
        # transcoding, core hops ...) is captured by the probe's arrival;
        # frame k differs only by its generation offset and its queueing
        # wait relative to the probe's.
        base = flow.probe_arrival
        t0 = times[0]
        prev = base
        now = self.sim.now
        imm_delays: List[float] = []
        imm_jitters: List[float] = []
        imm_last: Optional[float] = None
        tail = flow.tail
        for k in range(1, n):
            tk = times[k]
            arrival = base + (tk - t0)
            if waits is not None:
                arrival += waits[k] - w0
            delay = arrival - int(tk * 1e6) / 1e6
            jitter = abs((arrival - prev) - NOMINAL_SPACING)
            prev = arrival
            if arrival <= now and not tail:
                imm_delays.append(delay)
                imm_jitters.append(jitter)
                imm_last = arrival
            else:
                tail.append((arrival, delay, jitter))
        if imm_delays:
            flow.receiver.observe_many(imm_delays, imm_jitters, imm_last)
        if tail:
            self.sim.schedule_at(max(tail[0][0], now), self._drain, flow)

    def _drain(self, flow: FluidFlow) -> None:
        now = self.sim.now
        tail = flow.tail
        i = flow.tail_idx
        delays: List[float] = []
        jitters: List[float] = []
        last = None
        while i < len(tail) and tail[i][0] <= now:
            arrival, delay, jitter = tail[i]
            delays.append(delay)
            jitters.append(jitter)
            last = arrival
            i += 1
        flow.tail_idx = i
        if delays:
            flow.receiver.observe_many(delays, jitters, last)
        if i < len(tail):
            self.sim.schedule_at(tail[i][0], self._drain, flow)


def install_fluid(sim: "Simulator") -> FluidMediaSession:
    """Install (or return the existing) fluid media session on *sim*."""
    if sim.media is None:
        sim.media = FluidMediaSession(sim)
    return sim.media

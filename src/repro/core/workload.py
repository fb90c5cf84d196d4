"""Random call workloads: one call procedure, two workloads that run it.

* :func:`run_call` — one call as a process: dial, wait for connect,
  hold, hang up, wait for the handset to come back.  The MS dials MO
  calls; the peer — an H.323 terminal (Figures 5-6) or, for the Figure 7
  tromboning direction, a PSTN phone — dials MT calls.  Outcomes land in
  :class:`WorkloadStats`, including a setup or a release that timed out.
* :class:`CallWorkload` — the *closed-loop* soak harness: each pair
  draws its next Poisson arrival only after its previous call finished,
  so offered load backs off when the system slows down.
* :class:`OpenLoopWorkload` — the *open-loop* service workload behind
  ``python -m repro serve``: one global non-homogeneous Poisson arrival
  process (calls/hour shaped by a :class:`DiurnalProfile`, thinned by
  the Lewis–Shedler method) that keeps offering calls regardless of how
  the system copes, plus an optional mass re-registration avalanche.

All randomness comes from the simulator's named RNG streams, so a seed
fixes the entire workload; the open-loop driver additionally draws every
per-call decision (direction, pair, hold time) *at admission time* from
the arrival stream, which makes the offered schedule a pure function of
``(seed, profile)`` — byte-identical between batch and served/paced
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.core.network import VgprsNetwork
from repro.errors import SimulationError
from repro.gsm.ms import MobileStation
from repro.h323.terminal import H323Terminal
from repro.pstn.phone import PstnPhone
from repro.sim.process import Signal, spawn, wait_for


@dataclass
class WorkloadStats:
    """Aggregate outcome counts for a workload run."""

    attempted_mo: int = 0
    attempted_mt: int = 0
    connected: int = 0
    failed: int = 0
    skipped_busy: int = 0
    #: Failed setups whose connect wait expired or left the MS not idle.
    setup_timeouts: int = 0
    #: Connected calls whose MS was neither idle nor off 10 s after hang-up.
    release_timeouts: int = 0

    @property
    def attempted(self) -> int:
        return self.attempted_mo + self.attempted_mt

    @property
    def completion_ratio(self) -> float:
        return self.connected / self.attempted if self.attempted else 0.0

    def count_attempt(self, mt: bool) -> None:
        if mt:
            self.attempted_mt += 1
        else:
            self.attempted_mo += 1


def signal_wait(signal: Signal, predicate: Callable[[], bool], timeout: float):
    """Wait until a pulse of *signal* finds *predicate* true, or
    *timeout* simulated seconds pass."""
    yield wait_for(signal, predicate, timeout)


def poll_wait(signal: Signal, predicate: Callable[[], bool], timeout: float):
    """The same wait by re-checking *predicate* every 50 ms: the
    reference that :func:`signal_wait` must match trace for trace."""
    waited = 0.0
    while not predicate() and waited < timeout:
        yield 0.05
        waited += 0.05


def run_call(ms: MobileStation, peer: Any, mt: bool, hold: float,
             stats: WorkloadStats, talk: bool,
             wait: Callable[..., Generator] = signal_wait):
    """One call between *ms* and *peer*, as a process body.

    *peer* is an :class:`H323Terminal` or, on the Figure 7 topology, a
    :class:`PstnPhone` that dials the roamer (MT only).  A terminal
    call waits 15 s to connect; a phone call waits 20 s, carries no
    talk, and the phone abandons a failed setup.  The terminal hangs up
    the calls it placed, the MS all others.  Returns whether the dial
    was accepted: a refused dial counts as failed, not as attempted."""
    phone = isinstance(peer, PstnPhone)
    try:
        ref = peer.place_call(ms.msisdn) if mt else ms.place_call(peer.alias)
    except Exception:
        stats.failed += 1
        return False
    stats.count_attempt(mt)
    by_terminal = mt and not phone

    def connected() -> bool:
        if by_terminal:
            call = peer.calls.get(ref)
            return call is not None and call.state == "in-call"
        return ms.state == "in-call"

    def ready() -> bool:
        if by_terminal:
            return ref not in peer.calls or connected()
        return connected() or (not mt and ms.state == "idle")

    signal = peer.calls_changed if by_terminal else ms.state_changed
    yield from wait(signal, ready, 20.0 if phone else 15.0)
    if not connected():
        stats.failed += 1
        if not ready() or ms.state != "idle":
            stats.setup_timeouts += 1
        if phone and peer.state in ("calling", "ringing-remote"):
            peer.hangup()
        return True
    stats.connected += 1
    if talk and by_terminal:
        peer.start_talking(ref, duration=hold)
    elif talk and not phone:
        ms.start_talking(duration=hold)
    yield hold
    if by_terminal:
        if ref in peer.calls:
            peer.hangup(ref)
    elif ms.state == "in-call":
        ms.hangup()
    yield from wait(
        ms.state_changed, lambda: ms.state in ("idle", "off"), 10.0
    )
    if ms.state not in ("idle", "off"):
        stats.release_timeouts += 1
    return True


@dataclass
class CallWorkload:
    """A random-call driver over MS/terminal pairs.

    Parameters
    ----------
    call_rate:
        Mean calls per second *per pair* (Poisson arrivals).
    hold_range:
        Uniform call-duration bounds in seconds.
    mt_fraction:
        Probability an arrival is terminal->MS rather than MS->terminal.
    talk:
        Generate voice frames during each call.
    use_signals:
        Block on ``Signal`` pulses from the MS/terminal state machines
        (:func:`signal_wait`); ``False`` polls every 50 ms instead
        (:func:`poll_wait`), the reference path that determinism tests
        compare the event-driven waits against.
    media:
        ``"fluid"`` (default) models talk spurts analytically — one
        calibration probe and one flush per spurt instead of an event
        every 20 ms (see :mod:`repro.media.fluid`); ``"events"`` keeps
        the per-frame path, byte-identical to previous releases.
    """

    nw: VgprsNetwork
    pairs: List[tuple]
    call_rate: float = 0.2
    hold_range: tuple = (2.0, 8.0)
    mt_fraction: float = 0.4
    talk: bool = True
    use_signals: bool = True
    media: str = "fluid"
    stats: WorkloadStats = field(default_factory=WorkloadStats)
    _procs: list = field(default_factory=list)

    def start(self) -> None:
        from repro.core.sweeps import apply_media

        if self.talk:
            apply_media(self.nw.sim, self.media)
        for ms, term in self.pairs:
            self._procs.append(
                spawn(self.nw.sim, self._pair_loop(ms, term))
            )

    def stop(self) -> None:
        for proc in self._procs:
            proc.interrupt()
        self._procs.clear()

    def progress_line(self) -> str:
        """One-line workload summary for heartbeat ``extra`` hooks."""
        s = self.stats
        return (
            f"calls={s.attempted} ok={s.connected} fail={s.failed} "
            f"busy={s.skipped_busy} setup_to={s.setup_timeouts} "
            f"release_to={s.release_timeouts} "
            f"ratio={s.completion_ratio:.2f}"
        )

    # ------------------------------------------------------------------
    def _pair_loop(self, ms: MobileStation, term: H323Terminal):
        sim = self.nw.sim
        rng = sim.rng.stream(f"workload.{ms.name}")
        wait = signal_wait if self.use_signals else poll_wait
        while True:
            yield rng.expovariate(self.call_rate)
            mt = rng.random() < self.mt_fraction
            if ms.state != "idle" or (not mt and term.calls):
                self.stats.skipped_busy += 1
                continue
            hold = rng.uniform(*self.hold_range)
            dialled = yield from run_call(
                ms, term, mt, hold, self.stats, self.talk, wait
            )
            if not dialled:
                # Closed-loop accounting: every arrival that found the
                # pair free is an attempt, refused or not.
                self.stats.count_attempt(mt)


def build_population(
    nw: VgprsNetwork,
    size: int,
    answer_delay: float = 0.4,
    imsi_base: int = 466920000002000,
    msisdn_base: int = 886935100000,
) -> List[tuple]:
    """Provision *size* MS/terminal pairs on the network."""
    pairs = []
    for i in range(size):
        ms = nw.add_ms(
            f"WMS{i}",
            str(imsi_base + i),
            f"+{msisdn_base + i}",
            answer_delay=answer_delay,
        )
        term = nw.add_terminal(
            f"WTERM{i}", f"+88622210{i:04d}", answer_delay=answer_delay
        )
        pairs.append((ms, term))
    return pairs


def build_classic_population(
    nw: Any,
    size: int,
    answer_delay: float = 0.4,
    imsi_base: int = 234150000001000,
    msisdn_base: int = 447700910000,
) -> List[tuple]:
    """Provision *size* roamer/phone pairs on a
    :class:`~repro.core.baseline_gsm.ClassicRoamingNetwork` — the
    Figure 7 world, where every delivered call trombones through two
    international trunks.  Fed to :class:`OpenLoopWorkload`, every
    arrival is the PSTN phone dialling the roamer."""
    pairs = []
    for i in range(size):
        ms = nw.add_roamer(
            f"RMS{i}",
            str(imsi_base + i),
            f"+{msisdn_base + i}",
            answer_delay=answer_delay,
        )
        phone = nw.add_phone(
            f"RPH{i}", f"+8522123{i:04d}", answer_delay=answer_delay
        )
        pairs.append((ms, phone))
    return pairs


# ----------------------------------------------------------------------
# Open-loop service workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiurnalProfile:
    """A piecewise-linear calls/hour arrival-rate profile over sim time.

    ``points`` is a sorted sequence of ``(sim_seconds, calls_per_hour)``
    knots: between knots the rate interpolates linearly, before the
    first and after the last it clamps.  With ``period`` set, time wraps
    so a (possibly compressed) day repeats.  ``avalanche_at`` schedules
    a mass re-registration storm: every idle registered MS powers off
    and re-attaches within ``avalanche_spread`` seconds — the outage-
    recovery shape that stresses the registration path (Figure 4) the
    way no steady-state Poisson load does.
    """

    points: Tuple[Tuple[float, float], ...]
    period: Optional[float] = None
    avalanche_at: Optional[float] = None
    avalanche_spread: float = 2.0

    def __post_init__(self) -> None:
        if not self.points:
            raise SimulationError("DiurnalProfile needs at least one point")
        times = [t for t, _ in self.points]
        if times != sorted(times):
            raise SimulationError(
                f"DiurnalProfile points must be time-sorted: {self.points!r}"
            )
        if any(rate < 0 for _, rate in self.points):
            raise SimulationError("DiurnalProfile rates must be >= 0")
        if self.peak_rate <= 0:
            raise SimulationError("DiurnalProfile peak rate must be > 0")
        if self.period is not None and self.period <= 0:
            raise SimulationError(f"period must be > 0, got {self.period!r}")

    @property
    def peak_rate(self) -> float:
        """The profile's maximum rate (the thinning envelope), calls/h."""
        return max(rate for _, rate in self.points)

    def rate_at(self, t: float) -> float:
        """Offered rate in calls/hour at sim time *t*."""
        if self.period is not None:
            t = t % self.period
        points = self.points
        if t <= points[0][0]:
            return points[0][1]
        if t >= points[-1][0]:
            return points[-1][1]
        for (t0, r0), (t1, r1) in zip(points, points[1:]):
            if t0 <= t <= t1:
                if t1 == t0:
                    return r1
                frac = (t - t0) / (t1 - t0)
                return r0 + (r1 - r0) * frac
        return points[-1][1]  # pragma: no cover - clamped above

    # -- shapes ---------------------------------------------------------
    @classmethod
    def flat(cls, calls_per_hour: float, **kwargs: Any) -> "DiurnalProfile":
        """A constant offered rate."""
        return cls(points=((0.0, calls_per_hour),), **kwargs)

    @classmethod
    def busy_hour(
        cls,
        base: float,
        peak: float,
        period: float = 240.0,
        **kwargs: Any,
    ) -> "DiurnalProfile":
        """A repeating compressed day: quiet, ramp to the busy-hour
        *peak* at mid-period, ramp back down.  The default 240 s period
        compresses a day enough that a short serve run crosses several
        busy hours."""
        return cls(
            points=(
                (0.0, base),
                (period * 0.35, base),
                (period * 0.50, peak),
                (period * 0.65, base),
                (period, base),
            ),
            period=period,
            **kwargs,
        )

    @classmethod
    def ramp(
        cls, start: float, end: float, duration: float, **kwargs: Any
    ) -> "DiurnalProfile":
        """A single linear ramp from *start* to *end* calls/hour over
        *duration* seconds, then steady at *end*."""
        return cls(points=((0.0, start), (duration, end)), **kwargs)


@dataclass
class OpenLoopStats(WorkloadStats):
    """Open-loop outcome counts: offered load accounting on top of the
    per-call outcomes."""

    offered: int = 0
    admitted: int = 0
    blocked_busy: int = 0
    refused_draining: int = 0
    reregistrations: int = 0

    @property
    def admission_ratio(self) -> float:
        return self.admitted / self.offered if self.offered else 0.0


@dataclass
class OpenLoopWorkload:
    """Open-loop Poisson call generator over a provisioned population.

    One global arrival process draws candidate arrivals at the profile's
    peak rate and thins them (Lewis–Shedler) against
    ``profile.rate_at(now)``, so the *offered* load follows the diurnal
    shape and never backs off when the system is slow — the load shape
    under which the paper's trunk-count and setup-delay claims are
    operationally meaningful.  Admitted arrivals run as one-shot call
    processes (event-driven waits); every random decision is drawn at
    admission from the arrival stream, so ``arrivals`` is a pure
    function of ``(seed, profile)`` and is byte-identical between batch
    runs and paced serve runs at any ``--rate``.

    When the peers are PSTN phones (:func:`build_classic_population`
    on the Figure 7 classic-GSM topology) every arrival is a
    phone-to-roamer call — the tromboning direction, seizing two
    international trunks per call.
    """

    nw: Any
    pairs: List[tuple]
    profile: DiurnalProfile
    hold_range: tuple = (2.0, 8.0)
    mt_fraction: float = 0.4
    talk: bool = False
    media: str = "fluid"
    stats: OpenLoopStats = field(default_factory=OpenLoopStats)
    #: Admitted arrivals: ``(t, ms_name, kind, hold)`` — the determinism
    #: witness compared across batch/served/paced runs.
    arrivals: List[Tuple[float, str, str, float]] = field(default_factory=list)
    admitting: bool = True
    _active: int = 0
    _classic: bool = field(default=False, init=False)
    _procs: list = field(default_factory=list)
    _arrival_proc: Any = None

    def start(self) -> None:
        sim = self.nw.sim
        self._classic = any(
            isinstance(peer, PstnPhone) for _ms, peer in self.pairs
        )
        if self.talk and not self._classic:
            from repro.core.sweeps import apply_media

            apply_media(sim, self.media)
        self._arrival_proc = spawn(sim, self._arrival_loop())
        if self.profile.avalanche_at is not None:
            sim.schedule_at(
                max(self.profile.avalanche_at, sim.now), self._avalanche
            )

    def stop_admitting(self) -> None:
        """Refuse new arrivals (graceful drain); active calls finish."""
        self.admitting = False

    def stop(self) -> None:
        """Hard stop: interrupt the arrival process and every in-flight
        call process."""
        if self._arrival_proc is not None:
            self._arrival_proc.interrupt()
            self._arrival_proc = None
        for proc in self._procs:
            proc.interrupt()
        self._procs.clear()

    @property
    def active(self) -> int:
        """In-flight one-shot call processes (drain watches this)."""
        return self._active

    def progress_line(self) -> str:
        """One-line workload summary for heartbeat ``extra`` hooks."""
        s = self.stats
        return (
            f"offered={s.offered} ok={s.connected} fail={s.failed} "
            f"busy={s.blocked_busy} active={self._active} "
            f"setup_to={s.setup_timeouts} release_to={s.release_timeouts} "
            f"rereg={s.reregistrations}"
        )

    # ------------------------------------------------------------------
    # Arrival process
    # ------------------------------------------------------------------
    def _arrival_loop(self):
        sim = self.nw.sim
        rng = sim.rng.stream("openloop.arrivals")
        metrics = sim.metrics
        peak = self.profile.peak_rate
        per_second = peak / 3600.0
        while True:
            yield rng.expovariate(per_second)
            # Thinning: accept a candidate with probability
            # rate(now)/peak.  The draw happens unconditionally so the
            # stream position depends only on elapsed arrivals.
            if rng.random() * peak > self.profile.rate_at(sim.now):
                continue
            if not self.admitting:
                self.stats.refused_draining += 1
                metrics.counter("openloop.refused").inc()
                continue
            self.stats.offered += 1
            metrics.counter("openloop.offered").inc()
            # Classic skips the direction draw: every call is MT.
            mt = self._classic or rng.random() < self.mt_fraction
            hold = rng.uniform(*self.hold_range)
            pair = self._pick_pair(rng, mt)
            if pair is None:
                self.stats.blocked_busy += 1
                metrics.counter("openloop.blocked_busy").inc()
                continue
            ms, peer = pair
            kind = "mt" if mt else "mo"
            self.arrivals.append((sim.now, ms.name, kind, hold))
            self.stats.admitted += 1
            metrics.counter("openloop.admitted").inc()
            self._procs.append(spawn(sim, self._call(ms, peer, mt, hold)))
            self._procs = [p for p in self._procs if not p.finished]

    def _pick_pair(self, rng, mt: bool) -> Optional[tuple]:
        """A uniformly random *available* pair, or ``None`` when every
        pair is busy (the arrival is lost, not queued — open loop)."""
        candidates = []
        for ms, peer in self.pairs:
            if ms.state != "idle" or not ms.registered:
                continue
            if self._classic:
                if peer.state != "idle":
                    continue
            elif not mt and peer.calls:
                continue
            candidates.append((ms, peer))
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]

    # ------------------------------------------------------------------
    # One-shot call processes
    # ------------------------------------------------------------------
    def _call(self, ms: MobileStation, peer: Any, mt: bool, hold: float):
        gauge = self.nw.sim.metrics.gauge("openloop.active_calls")
        self._active += 1
        gauge.inc()
        try:
            yield from run_call(ms, peer, mt, hold, self.stats, self.talk)
        finally:
            self._active -= 1
            gauge.dec()

    # ------------------------------------------------------------------
    # Mass re-registration avalanche
    # ------------------------------------------------------------------
    def _avalanche(self) -> None:
        """Power-cycle the whole registered population; re-attaches are
        spread uniformly over ``avalanche_spread`` seconds, producing
        the registration storm a recovered outage offers.  Handsets
        caught mid-call power-cycle as soon as their call tears down
        (the MS state machine forbids a detach while in-call).  Every
        stagger delay is drawn up front in pair order, so the schedule
        never depends on call-completion order."""
        sim = self.nw.sim
        rng = sim.rng.stream("openloop.avalanche")
        spread = self.profile.avalanche_spread
        for ms, _peer in self.pairs:
            delay = rng.uniform(0.0, spread)
            if not ms.registered:
                continue
            if ms.state == "idle":
                ms.power_off()
                sim.schedule(delay, self._reattach, ms)
            else:
                self._procs.append(
                    spawn(sim, self._deferred_cycle(ms, delay))
                )

    def _deferred_cycle(self, ms: MobileStation, delay: float):
        """Wait out an in-progress call, then power-cycle like the rest
        of the avalanche population."""
        yield wait_for(ms.state_changed, lambda: ms.state == "idle", 120.0)
        if ms.state != "idle":
            return
        ms.power_off()
        yield delay
        self._reattach(ms)

    def _reattach(self, ms: MobileStation) -> None:
        sim = self.nw.sim
        started = sim.now
        previous = ms.on_registered

        def note_registered() -> None:
            sim.metrics.histogram("calls.registration_latency").observe(
                sim.now - started
            )
            sim.metrics.counter("openloop.reregistrations").inc()
            self.stats.reregistrations += 1
            ms.on_registered = previous
            if previous is not None:
                previous()

        ms.on_registered = note_registered
        ms.power_on()

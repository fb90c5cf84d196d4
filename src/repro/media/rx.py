"""Receive-side voice quality bookkeeping.

One :class:`RxStats` per voice receiver (a handset, a terminal) counts
the frames it hears and feeds the two VoIP quality measures the
experiments report: ``<node>.mouth_to_ear`` (generation to playout) and
``<node>.jitter`` (deviation of each inter-arrival gap from the nominal
frame spacing).  The event path observes one frame at a time; the fluid
model (:mod:`repro.media.fluid`) observes whole batches through the same
object, so both paths write the same histograms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.sim.metrics import Histogram

__all__ = ["NOMINAL_SPACING", "RxStats"]

#: Nominal inter-frame spacing subtracted when observing jitter (every
#: codec in the reproduction sends a frame each 20 ms).
NOMINAL_SPACING = 0.020


class RxStats:
    """Frames received, mouth-to-ear delay and jitter for one receiver."""

    __slots__ = ("sim", "name", "frames", "last_rx", "_m2e", "_jitter")

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.frames = 0
        #: Arrival time of the last frame heard (``None`` before the first).
        self.last_rx: Optional[float] = None
        # Histogram handles, resolved on first observation so the
        # registry's contents match runs that never receive a frame.
        self._m2e: Optional["Histogram"] = None
        self._jitter: Optional["Histogram"] = None

    def on_frame(self, gen_time_us: int) -> None:
        """One frame generated at *gen_time_us* arrived now (event path);
        a pending fluid-model probe is paired with its flow here."""
        self.frames += 1
        now = self.sim.now
        if self._m2e is None:
            self._m2e = self.sim.metrics.histogram(f"{self.name}.mouth_to_ear")
        self._m2e.observe(now - gen_time_us / 1e6)
        if self.last_rx is not None:
            if self._jitter is None:
                self._jitter = self.sim.metrics.histogram(f"{self.name}.jitter")
            self._jitter.observe(abs((now - self.last_rx) - NOMINAL_SPACING))
        self.last_rx = now
        media = self.sim.media
        if media is not None:
            media.on_frame(gen_time_us, self)

    def observe_many(
        self,
        delays: List[float],
        jitters: List[float],
        last_arrival: Optional[float],
    ) -> None:
        """A batch of analytic samples from the fluid model."""
        if self._m2e is None:
            self._m2e = self.sim.metrics.histogram(f"{self.name}.mouth_to_ear")
        self._m2e.observe_many(delays)
        if jitters:
            if self._jitter is None:
                self._jitter = self.sim.metrics.histogram(f"{self.name}.jitter")
            self._jitter.observe_many(jitters)
        self.frames += len(delays)
        if last_arrival is not None:
            self.last_rx = last_arrival

"""Counters, histograms and time-weighted gauges.

The Section-6 experiments need three measurement shapes:

* :class:`Counter` — signalling-message counts per node;
* :class:`Histogram` — latency distributions (setup delay, mouth-to-ear
  delay, jitter);
* :class:`Gauge` — time-weighted residency, e.g. "PDP contexts held at the
  SGSN × seconds", the quantity behind the paper's idle-deactivation
  trade-off discussion.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Dict, List, Optional, Sequence

#: Keys of a histogram summary dict, in emission order — shared by
#: :meth:`MetricsRegistry.histograms`, the time-series sampler and the
#: snapshot merger, so every summary anywhere has the same shape.
HISTOGRAM_SUMMARY_KEYS = (
    "count", "mean", "min", "max", "stdev", "p50", "p95", "p99",
)


def _quantile_sorted(data: Sequence[float], q: float) -> float:
    """Exact quantile of pre-sorted *data* by linear interpolation."""
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    if data[lo] == data[hi]:
        # Avoid float wobble when interpolating equal samples.
        return data[lo]
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac


def summarize_samples(samples: Sequence[float]) -> Dict[str, float]:
    """Summary dict (``HISTOGRAM_SUMMARY_KEYS``) of raw *samples*.

    Used for both whole-run histogram dumps and the per-window buckets
    of :class:`repro.obs.series.SeriesSampler`; the quantile
    interpolation is byte-identical to :meth:`Histogram.quantile`.
    """
    n = len(samples)
    if n == 0:
        empty: Dict[str, float] = dict.fromkeys(HISTOGRAM_SUMMARY_KEYS, 0.0)
        empty["count"] = 0
        return empty
    # Sum in observation order (not sorted order): float summation is
    # order-dependent and these values must match the pre-existing
    # Histogram.mean/stdev properties byte for byte.
    data = sorted(samples)
    mean = sum(samples) / n
    if n < 2:
        stdev = 0.0
    else:
        stdev = math.sqrt(sum((x - mean) ** 2 for x in samples) / (n - 1))
    return {
        "count": n,
        "mean": mean,
        "min": data[0],
        "max": data[-1],
        "stdev": stdev,
        "p50": _quantile_sorted(data, 0.50),
        "p95": _quantile_sorted(data, 0.95),
        "p99": _quantile_sorted(data, 0.99),
    }


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Exact samples in a packed ``array("d")``: 8 B per sample.

    Every observation is kept, so every quantile is exact; packing them
    as C doubles instead of a list of boxed floats (24 B per float plus
    an 8 B pointer) is what lets a long voice soak keep its millions of
    mouth-to-ear and jitter samples.  Observations are stored as floats
    (an ``int`` observes as its float value).  No buffer export of
    :attr:`samples` is ever held: ``observe`` resizes the array, which
    a live ``memoryview`` would forbid.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: "array[float]" = array("d")
        # Sorted copy, also packed, built lazily on the first quantile
        # read and reused until the next observe(); reports ask for
        # several quantiles in a row and must not re-sort per call.
        self._sorted: "Optional[array[float]]" = None

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self._sorted = None

    def observe_many(self, values: Sequence[float]) -> None:
        """Append a batch of samples in order — equivalent to calling
        :meth:`observe` per value; the fluid media model's flush path."""
        self.samples.extend(values)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def stdev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def quantile(self, q: float) -> float:
        """Exact quantile by linear interpolation; ``q`` in [0, 1]."""
        if not self.samples:
            return 0.0
        data = self._sorted
        if data is None:
            data = self._sorted = array("d", sorted(self.samples))
        return _quantile_sorted(data, q)

    def summary(self) -> Dict[str, float]:
        """Whole-run summary dict (``HISTOGRAM_SUMMARY_KEYS``).

        Works over a sliced copy of the samples: the slice is one atomic
        C-level copy, so a scrape thread summarising a live histogram
        sees a consistent set even while the simulation thread appends.
        """
        return summarize_samples(self.samples[:])

    def window_summary(self, start: int) -> Dict[str, float]:
        """Summary of the samples observed since index *start* — the
        time-series sampler's per-bucket view.  Samples are append-only,
        so ``(start, len(samples))`` delimits one sampling window."""
        return summarize_samples(self.samples[start:])

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below *threshold* (e.g. the share
        of voice frames meeting a delay budget)."""
        if not self.samples:
            return 0.0
        return sum(1 for x in self.samples if x < threshold) / len(self.samples)


class Gauge:
    """A time-weighted level (e.g. number of active PDP contexts).

    ``integral()`` returns the level integrated over simulated time, i.e.
    *context-seconds of residency*.
    """

    def __init__(self, name: str, clock: Callable[[], float]) -> None:
        self.name = name
        self._clock = clock
        self.value = 0.0
        self._last_change = clock()
        self._integral = 0.0
        self.peak = 0.0

    def _accumulate(self) -> None:
        now = self._clock()
        self._integral += self.value * (now - self._last_change)
        self._last_change = now

    def set(self, value: float) -> None:
        self._accumulate()
        self.value = value
        self.peak = max(self.peak, value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def integral(self) -> float:
        self._accumulate()
        return self._integral

    def peek_integral(self) -> float:
        """The integral up to the current clock *without* settling any
        state — numerically identical to :meth:`integral`, but a pure
        read, so a live scrape thread can call it while the simulation
        thread is mutating the gauge."""
        return self._integral + self.value * (self._clock() - self._last_change)

    def time_average(self) -> float:
        now = self._clock()
        if now <= 0:
            return self.value
        return self.integral() / now

    def peek_time_average(self) -> float:
        """Non-mutating twin of :meth:`time_average` (scrape thread)."""
        now = self._clock()
        if now <= 0:
            return self.value
        return self.peek_integral() / now


class MetricsRegistry:
    """Per-simulation registry; metrics are created on first access."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, self._clock)
        return g

    def counters(self, prefix: str = "") -> Dict[str, int]:
        # ``list(dict.items())`` materialises in one C call — atomic
        # under the GIL — so a scrape thread dumping a live registry
        # never races a simulation thread registering a new metric.
        return {
            name: c.value
            for name, c in sorted(list(self._counters.items()))
            if name.startswith(prefix)
        }

    def gauges(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        """Name -> summary dict for every gauge, mirroring
        :meth:`counters`.  ``integral`` and ``time_average`` are settled
        up to the current clock via the non-mutating ``peek_*`` reads —
        numerically identical to the settling forms, but safe for a
        scrape thread dumping mid-run."""
        return {
            name: {
                "value": g.value,
                "peak": g.peak,
                "integral": g.peek_integral(),
                "time_average": g.peek_time_average(),
            }
            for name, g in sorted(list(self._gauges.items()))
            if name.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        """Name -> summary dict for every histogram, mirroring
        :meth:`counters`."""
        return {
            name: h.summary()
            for name, h in sorted(list(self._histograms.items()))
            if name.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, object]:
        """A plain-data dump of every metric plus the clock, suitable for
        JSON serialisation, cross-process transfer (sweep workers) and
        deterministic merging (:func:`repro.obs.export.merge_snapshots`).
        Safe to call from a scrape thread against an in-progress run:
        every metric family is snapshot-copied before iteration and no
        read mutates registry state."""
        return {
            "sim_time": self._clock(),
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }

    def counter_items(self) -> List["Counter"]:
        """Live counters in sorted-name order (series sampling)."""
        return [c for _, c in sorted(self._counters.items())]

    def gauge_items(self) -> List["Gauge"]:
        """Live gauges in sorted-name order (series sampling)."""
        return [g for _, g in sorted(self._gauges.items())]

    def histogram_items(self) -> List["Histogram"]:
        """Live histograms in sorted-name order (series sampling)."""
        return [h for _, h in sorted(self._histograms.items())]

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(name)

    def get_histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def get_gauge(self, name: str) -> Optional[Gauge]:
        return self._gauges.get(name)

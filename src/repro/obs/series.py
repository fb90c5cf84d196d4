"""Deterministic, sim-time-bucketed time series over a metrics registry.

The PR-2 snapshots answer "what were the totals when the run ended?";
a soak run also needs "how did setup latency / trunk occupancy / PDP
context counts evolve *during* the run".  A :class:`SeriesSampler`
schedules itself every ``interval`` simulated seconds and closes one
*bucket* per tick:

* **counters** — the delta since the previous tick (omitted when 0);
* **gauges**   — the value at the bucket edge plus the windowed
  integral, so the window time-average is ``integral / width``;
* **histograms** — a summary (:data:`repro.sim.metrics
  .HISTOGRAM_SUMMARY_KEYS`) of only the samples observed inside the
  window, i.e. windowed quantiles, not cumulative ones.

Memory is bounded: past ``max_points`` buckets the series *coarsens* —
adjacent buckets merge pairwise and the interval doubles — so an
arbitrarily long soak holds at most ``max_points`` buckets at any
resolution the run's length demands.

Sampling only ever *reads* the registry and records no trace entries,
so an armed sampler cannot perturb a seeded trace: traces stay
byte-identical, exactly like the PR-2 span tracker.

Sweep workers ship :meth:`SeriesSampler.to_dict` output back as plain
data (:meth:`repro.obs.session.WatchedRun.ship`).  Cross-worker merging
(:func:`merge_series`) uses the same semantics the snapshot merger has:
counter deltas sum, gauge values/integrals sum, histogram buckets pool
through the identical :func:`repro.obs.export._merge_histograms`
estimator.  Merging is by bucket index after coarsening every source to
the coarsest interval, is deterministic for a fixed input order, and a
single-source merge is the identity.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional

from repro.obs.export import _merge_histograms


class SeriesSampler:
    """Samples one simulator's :class:`~repro.sim.metrics
    .MetricsRegistry` into sim-time buckets.

    Parameters
    ----------
    sim:
        The simulator to sample; ticks ride its normal event queue.
    interval:
        Bucket width in simulated seconds (doubles on coarsening).
    max_points:
        Retention bound; when a tick would exceed it, adjacent buckets
        merge pairwise.  Must be an even number >= 4.
    """

    def __init__(self, sim: Any, interval: float = 1.0,
                 max_points: int = 512) -> None:
        if interval <= 0:
            raise ValueError(f"series interval must be > 0, got {interval!r}")
        if max_points < 4 or max_points % 2:
            raise ValueError(
                f"max_points must be an even number >= 4, got {max_points!r}"
            )
        self.sim = sim
        self.interval = float(interval)
        #: Bucket width the sampler was configured with (pre-coarsening).
        self.base_interval = float(interval)
        self.max_points = max_points
        self.started_at = float(sim.now)
        #: Closed buckets, oldest first.
        self.buckets: List[Dict[str, Any]] = []
        #: Times the retention bound forced a pairwise coarsen.
        self.coarsenings = 0
        #: Subscribers called in order with each freshly closed bucket
        #: (SLO watchdog, flight recorder, alert manager).
        self.on_bucket: List[Callable[[Dict[str, Any]], None]] = []
        self._event: Optional[Any] = None
        self._prev_counters: Dict[str, int] = {}
        self._prev_integrals: Dict[str, float] = {}
        self._prev_hist_len: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SeriesSampler":
        """Arm the sampler; the first bucket closes one interval on."""
        if self._event is None:
            self._event = self.sim.schedule(self.interval, self._tick)
        return self

    def stop(self, flush: bool = True) -> "SeriesSampler":
        """Disarm; with *flush*, close a final (possibly partial)
        bucket covering the time since the last tick."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if flush:
            self.flush()
        return self

    def flush(self) -> None:
        """Close a partial bucket up to the current instant, if any
        sim time has passed since the last closed bucket."""
        last_t = self.buckets[-1]["t"] if self.buckets else self.started_at
        if self.sim.now > last_t:
            self._close_bucket()

    def _tick(self) -> None:
        self._close_bucket()
        if len(self.buckets) > self.max_points:
            self.buckets = _coarsen_buckets(self.buckets)
            self.interval *= 2.0
            self.coarsenings += 1
        self._event = self.sim.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _close_bucket(self) -> None:
        metrics = self.sim.metrics
        counters: Dict[str, int] = {}
        for counter in metrics.counter_items():
            value = counter.value
            delta = value - self._prev_counters.get(counter.name, 0)
            if delta:
                counters[counter.name] = delta
                self._prev_counters[counter.name] = value
        gauges: Dict[str, Dict[str, float]] = {}
        for gauge in metrics.gauge_items():
            integral = gauge.integral()
            delta_i = integral - self._prev_integrals.get(gauge.name, 0.0)
            self._prev_integrals[gauge.name] = integral
            if delta_i or gauge.value:
                gauges[gauge.name] = {
                    "value": gauge.value,
                    "integral": delta_i,
                }
        histograms: Dict[str, Dict[str, float]] = {}
        for histogram in metrics.histogram_items():
            start = self._prev_hist_len.get(histogram.name, 0)
            if histogram.count > start:
                histograms[histogram.name] = histogram.window_summary(start)
                self._prev_hist_len[histogram.name] = histogram.count
        bucket: Dict[str, Any] = {
            "t": self.sim.now,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        self.buckets.append(bucket)
        for hook in self.on_bucket:
            hook(bucket)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data dump, mergeable with :func:`merge_series` and
        safe to ship across process boundaries (sweep workers)."""
        return {
            "interval": self.interval,
            "base_interval": self.base_interval,
            "start": self.started_at,
            "sim_time": self.sim.now,
            "sources": 1,
            "coarsenings": self.coarsenings,
            "buckets": copy.deepcopy(self.buckets),
        }


# ----------------------------------------------------------------------
# Coarsening and merging
# ----------------------------------------------------------------------
def _merge_bucket_pair(first: Dict[str, Any],
                       second: Dict[str, Any]) -> Dict[str, Any]:
    counters = dict(first["counters"])
    for name, delta in second["counters"].items():
        counters[name] = counters.get(name, 0) + delta
    gauges: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(first["gauges"]) | set(second["gauges"])):
        a = first["gauges"].get(name)
        b = second["gauges"].get(name)
        # The later bucket's edge value wins; windowed integrals sum.
        value = b["value"] if b is not None else 0.0
        gauges[name] = {
            "value": value,
            "integral": (a["integral"] if a else 0.0)
            + (b["integral"] if b else 0.0),
        }
    histograms: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(first["histograms"]) | set(second["histograms"])):
        parts = [
            source[name]
            for source in (first["histograms"], second["histograms"])
            if name in source
        ]
        histograms[name] = parts[0] if len(parts) == 1 else _merge_histograms(parts)
    return {
        "t": second["t"],
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def _coarsen_buckets(buckets: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Merge adjacent bucket pairs (halving the count, doubling the
    effective interval).  A trailing odd bucket survives unmerged."""
    out: List[Dict[str, Any]] = []
    for i in range(0, len(buckets) - 1, 2):
        out.append(_merge_bucket_pair(buckets[i], buckets[i + 1]))
    if len(buckets) % 2:
        out.append(copy.deepcopy(buckets[-1]))
    return out


def _coarsened_to(series: Dict[str, Any], interval: float) -> Dict[str, Any]:
    if series["interval"] == interval:
        return series
    out = dict(series)
    buckets = series["buckets"]
    width = series["interval"]
    coarsenings = int(series.get("coarsenings", 0))
    while width < interval:
        buckets = _coarsen_buckets(buckets)
        width *= 2.0
        coarsenings += 1
    if width != interval:
        raise ValueError(
            f"cannot align series interval {series['interval']!r} "
            f"to {interval!r} by pairwise coarsening"
        )
    out["buckets"] = buckets
    out["interval"] = width
    out["coarsenings"] = coarsenings
    return out


def merge_series(series_list: Any) -> Dict[str, Any]:
    """Fold serialised series into one aggregate, deterministically.

    Every source is first coarsened to the coarsest interval present
    (intervals must be power-of-two multiples of each other, which
    same-configured samplers guarantee); buckets then merge by index
    with snapshot semantics — counter deltas sum, gauge edge values and
    windowed integrals sum, histogram windows pool through the exact
    snapshot-merge estimator.  The result is deterministic for a fixed
    input order (float sums can differ in the last bit when the order
    changes), and merging a single series is the identity.
    """
    series_list = list(series_list)
    if not series_list:
        return {"interval": 0.0, "start": 0.0, "sim_time": 0.0,
                "sources": 0, "buckets": []}
    if len(series_list) == 1:
        return copy.deepcopy(series_list[0])
    target = max(s["interval"] for s in series_list)
    aligned = [_coarsened_to(s, target) for s in series_list]
    length = max(len(s["buckets"]) for s in aligned)
    buckets: List[Dict[str, Any]] = []
    for i in range(length):
        present = [s["buckets"][i] for s in aligned if i < len(s["buckets"])]
        counters: Dict[str, int] = {}
        for bucket in present:
            for name, delta in bucket["counters"].items():
                counters[name] = counters.get(name, 0) + delta
        counters = {name: counters[name] for name in sorted(counters)}
        gauges: Dict[str, Dict[str, float]] = {}
        gauge_names = sorted({n for b in present for n in b["gauges"]})
        for name in gauge_names:
            parts = [b["gauges"][name] for b in present if name in b["gauges"]]
            gauges[name] = {
                "value": sum(p["value"] for p in parts),
                "integral": sum(p["integral"] for p in parts),
            }
        histograms: Dict[str, Dict[str, float]] = {}
        hist_names = sorted({n for b in present for n in b["histograms"]})
        for name in hist_names:
            parts = [b["histograms"][name] for b in present
                     if name in b["histograms"]]
            histograms[name] = _merge_histograms(parts)
        buckets.append({
            "t": max(b["t"] for b in present),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        })
    return {
        "interval": target,
        "start": min(s["start"] for s in series_list),
        "sim_time": sum(s["sim_time"] for s in series_list),
        "sources": sum(int(s.get("sources", 1)) for s in series_list),
        "buckets": buckets,
    }

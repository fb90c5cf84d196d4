"""Unit tests for the trace recorder, metrics and RNG streams."""

import math
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceWindowError
from repro.sim.kernel import Simulator
from repro.sim.metrics import (
    Gauge,
    Histogram,
    _quantile_sorted,
    summarize_samples,
)
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def make(self):
        clock = {"t": 0.0}
        trace = TraceRecorder(clock=lambda: clock["t"])
        return trace, clock

    def test_record_and_query(self):
        trace, clock = self.make()
        trace.record("msg", "A", "B", "Um", "Hello")
        clock["t"] = 1.0
        trace.record("msg", "B", "C", "Abis", "World")
        assert trace.count() == 2
        assert trace.count("Hello") == 1
        assert trace.triples() == [("Hello", "A", "B"), ("World", "B", "C")]

    def test_filters(self):
        trace, clock = self.make()
        trace.record("msg", "A", "B", "Um", "M1")
        clock["t"] = 2.0
        trace.record("msg", "A", "C", "A", "M1")
        assert len(trace.messages(dst="B")) == 1
        assert len(trace.messages(interface="A")) == 1
        assert len(trace.messages(since=1.0)) == 1
        assert len(trace.messages(src="A")) == 2

    def test_quiet_names_suppressed(self):
        trace, _ = self.make()
        trace.record("msg", "A", "B", "Um", "TCH_Frame")
        trace.record("msg", "A", "B", "Um", "RTP")
        trace.record("msg", "A", "B", "Um", "PCM_Frame")
        trace.record("msg", "A", "B", "Um", "Real_Message")
        assert trace.count() == 1

    def test_disabled_recorder_drops_everything(self):
        trace, _ = self.make()
        trace.enabled = False
        trace.record("msg", "A", "B", "Um", "M1")
        assert trace.count() == 0

    def test_first_last_span(self):
        trace, clock = self.make()
        trace.record("msg", "A", "B", "Um", "Start")
        clock["t"] = 5.0
        trace.record("msg", "B", "A", "Um", "End")
        clock["t"] = 7.0
        trace.record("msg", "B", "A", "Um", "End")
        assert trace.first("Start").time == 0.0
        assert trace.last("End").time == 7.0
        assert trace.span("Start", "End") == 7.0
        assert trace.span("Start", "Missing") is None

    def test_contains_subsequence(self):
        trace, _ = self.make()
        for name in ("A1", "B1", "C1"):
            trace.record("msg", "x", "y", "i", name)
        assert trace.contains_subsequence(
            [("A1", "x", "y"), ("C1", "x", "y")]
        )
        assert not trace.contains_subsequence(
            [("C1", "x", "y"), ("A1", "x", "y")]
        )

    def test_note_sanitises_reserved_keys(self):
        trace, _ = self.make()
        trace.note("NODE", "EVENT", dst="10.0.0.1", detail=5)
        entry = trace.entries[0]
        assert entry.kind == "note"
        assert entry.info["dst_"] == "10.0.0.1"
        assert entry.info["detail"] == 5

    def test_clear(self):
        trace, _ = self.make()
        trace.record("msg", "A", "B", "Um", "M1")
        trace.clear()
        assert trace.entries == []


class TestHistogram:
    def test_stats(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == 2.5
        assert h.minimum == 1.0
        assert h.maximum == 4.0
        assert h.quantile(0.5) == 2.5
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 4.0

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.fraction_below(1.0) == 0.0
        assert h.stdev == 0.0

    def test_fraction_below(self):
        h = Histogram("h")
        for v in (1, 2, 3, 4, 5):
            h.observe(float(v))
        assert h.fraction_below(3.0) == 0.4

    def test_stdev(self):
        h = Histogram("h")
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            h.observe(v)
        assert h.stdev == pytest.approx(2.138, abs=1e-3)

    def test_single_sample_quantile(self):
        h = Histogram("h")
        h.observe(42.0)
        assert h.quantile(0.7) == 42.0


class ListHistogram:
    """The list-of-boxed-floats store :class:`Histogram` used before it
    was packed: the oracle its reads must match byte for byte."""

    def __init__(self):
        self.samples = []

    def observe(self, value):
        self.samples.append(value)

    def observe_many(self, values):
        self.samples.extend(values)

    @property
    def count(self):
        return len(self.samples)

    @property
    def mean(self):
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self):
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self):
        return max(self.samples) if self.samples else 0.0

    @property
    def stdev(self):
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def quantile(self, q):
        if not self.samples:
            return 0.0
        return _quantile_sorted(sorted(self.samples), q)

    def summary(self):
        return summarize_samples(self.samples[:])

    def window_summary(self, start):
        return summarize_samples(self.samples[start:])

    def fraction_below(self, threshold):
        if not self.samples:
            return 0.0
        return sum(1 for x in self.samples if x < threshold) / len(self.samples)


def _assert_same_read(read, packed, ref):
    """``read(packed)`` and ``read(ref)`` return equal, ``repr``-identical
    results, or raise the same error: huge magnitudes can overflow
    ``x ** 2``."""
    results = []
    for h in (packed, ref):
        try:
            results.append(read(h))
        except ArithmeticError as exc:
            results.append(type(exc).__name__)
    got, want = results
    assert repr(got) == repr(want)
    if "nan" not in repr(want):  # nan != nan; repr already matched
        assert got == want


# Finite floats, biased towards signed zero, subnormals and the extremes.
finite_st = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
    ]),
)
op_st = st.one_of(
    st.tuples(st.just("observe"), finite_st),
    st.tuples(st.just("observe_many"), st.lists(finite_st, max_size=8)),
    st.tuples(st.just("quantile"), st.floats(min_value=0.0, max_value=1.0)),
)


class TestPackedHistogram:
    @given(
        ops=st.lists(op_st, max_size=40),
        qs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
        thresholds=st.lists(finite_st, max_size=3),
        start=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_reads_match_list_store(self, ops, qs, thresholds, start):
        packed, ref = Histogram("h"), ListHistogram()
        for op, arg in ops:
            # Interleaved quantile reads build and invalidate the
            # sorted cache between observations.
            if op == "quantile":
                _assert_same_read(lambda h, q=arg: h.quantile(q), packed, ref)
            else:
                getattr(packed, op)(arg)
                getattr(ref, op)(arg)
        reads = [
            lambda h: h.summary(),
            lambda h: h.window_summary(start),
            lambda h: h.count,
            lambda h: h.mean,
            lambda h: h.minimum,
            lambda h: h.maximum,
            lambda h: h.stdev,
            *(lambda h, q=q: h.quantile(q) for q in qs),
            *(lambda h, x=x: h.fraction_below(x) for x in thresholds),
        ]
        for read in reads:
            _assert_same_read(read, packed, ref)

    def test_storage_is_packed(self):
        # 200,000 samples as boxed floats in a list cost ~6.4 MB (24 B
        # per float + 8 B per pointer); packed doubles cost 1.6 MB plus
        # the array's growth slack.
        h = Histogram("h")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for batch in range(4000):
                base = batch * 50
                h.observe_many([(base + i) * 1e-3 for i in range(50)])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert h.count == 200_000
        assert held < 2.5e6, f"histogram holds {held / 1e6:.2f} MB"

    def test_int_observation_is_stored_as_float(self):
        h = Histogram("h")
        h.observe(3)
        h.observe_many([1, 2])
        assert [type(x) for x in h.samples] == [float, float, float]
        assert h.samples == array("d", [3.0, 1.0, 2.0])
        summary = h.summary()
        assert repr(summary["min"]) == "1.0"
        assert repr(summary["max"]) == "3.0"
        assert repr(h.quantile(0.5)) == "2.0"

    def test_observe_after_reads(self):
        # No read may leave a buffer export of the live array behind:
        # a held memoryview would make the next append raise BufferError.
        h = Histogram("h")
        h.observe_many([2.0, 1.0])
        h.summary()
        h.window_summary(1)
        h.quantile(0.5)
        h.fraction_below(1.5)
        h.observe(0.5)
        h.observe_many([4.0])
        assert h.count == 4


class TestGauge:
    def test_time_weighted_integral(self):
        clock = {"t": 0.0}
        g = Gauge("g", clock=lambda: clock["t"])
        g.set(2.0)
        clock["t"] = 5.0
        g.set(0.0)
        clock["t"] = 10.0
        assert g.integral() == pytest.approx(10.0)
        assert g.time_average() == pytest.approx(1.0)

    def test_inc_dec_and_peak(self):
        clock = {"t": 0.0}
        g = Gauge("g", clock=lambda: clock["t"])
        g.inc()
        g.inc()
        assert g.peak == 2.0
        g.dec()
        assert g.value == 1.0
        assert g.peak == 2.0

    def test_metrics_registry_reuses_instances(self):
        sim = Simulator()
        assert sim.metrics.counter("x") is sim.metrics.counter("x")
        assert sim.metrics.histogram("y") is sim.metrics.histogram("y")
        assert sim.metrics.gauge("z") is sim.metrics.gauge("z")

    def test_counters_prefix_filter(self):
        sim = Simulator()
        sim.metrics.counter("a.one").inc()
        sim.metrics.counter("a.two").inc(3)
        sim.metrics.counter("b.other").inc()
        assert sim.metrics.counters("a.") == {"a.one": 1, "a.two": 3}


class TestRegistryDumps:
    def test_get_accessors_do_not_create(self):
        sim = Simulator()
        assert sim.metrics.get_counter("nope") is None
        assert sim.metrics.get_histogram("nope") is None
        assert sim.metrics.get_gauge("nope") is None
        g = sim.metrics.gauge("g")
        assert sim.metrics.get_gauge("g") is g
        assert sim.metrics.get_counter("g") is None  # namespaces are per-kind

    def test_gauges_dump_settles_to_clock(self):
        clock = {"t": 0.0}
        from repro.sim.metrics import MetricsRegistry

        metrics = MetricsRegistry(clock=lambda: clock["t"])
        metrics.gauge("ctx").set(2.0)
        clock["t"] = 4.0
        dump = metrics.gauges()
        assert dump == {"ctx": {"value": 2.0, "peak": 2.0,
                                "integral": 8.0, "time_average": 2.0}}

    def test_histograms_dump_summary_keys(self):
        sim = Simulator()
        h = sim.metrics.histogram("m2e")
        for x in (1.0, 2.0, 3.0, 4.0):
            h.observe(x)
        dump = sim.metrics.histograms()
        summary = dump["m2e"]
        assert summary["count"] == 4 and summary["mean"] == 2.5
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["p50"] == pytest.approx(2.5)
        assert set(summary) == {"count", "mean", "min", "max", "stdev",
                                "p50", "p95", "p99"}

    def test_dumps_sorted_and_prefix_filtered(self):
        sim = Simulator()
        sim.metrics.gauge("b.g").set(1.0)
        sim.metrics.gauge("a.g").set(1.0)
        sim.metrics.histogram("b.h").observe(1.0)
        sim.metrics.histogram("a.h").observe(1.0)
        assert list(sim.metrics.gauges()) == ["a.g", "b.g"]
        assert list(sim.metrics.histograms("a.")) == ["a.h"]
        assert list(sim.metrics.gauges("b.")) == ["b.g"]

    def test_snapshot_shape(self):
        sim = Simulator()
        sim.metrics.counter("c").inc()
        sim.metrics.gauge("g").set(1.0)
        sim.metrics.histogram("h").observe(2.0)
        sim.schedule(1.5, lambda: None)
        sim.run(until=1.5)
        snapshot = sim.metrics.snapshot()
        assert set(snapshot) == {"sim_time", "counters", "gauges",
                                 "histograms"}
        assert snapshot["sim_time"] == 1.5
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"]["g"]["integral"] == pytest.approx(1.5)
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_quantile_cache_reused_and_invalidated(self):
        h = Histogram("h")
        for x in (3.0, 1.0, 2.0):
            h.observe(x)
        assert h._sorted is None           # built lazily
        assert h.quantile(0.5) == 2.0
        cached = h._sorted
        assert cached == array("d", [1.0, 2.0, 3.0])
        assert cached.typecode == "d"      # packed, like the samples
        assert h.quantile(1.0) == 3.0
        assert h._sorted is cached         # reused across reads
        h.observe(0.0)
        assert h._sorted is None           # invalidated by observe()
        assert h.quantile(0.0) == 0.0


class TestRandomStreams:
    def test_streams_are_independent(self):
        streams = RandomStreams(seed=1)
        a1 = [streams.uniform("a", 0, 1) for _ in range(3)]
        streams2 = RandomStreams(seed=1)
        # Drawing from "b" first must not perturb "a".
        streams2.uniform("b", 0, 1)
        a2 = [streams2.uniform("a", 0, 1) for _ in range(3)]
        assert a1 == a2

    def test_deterministic_per_seed(self):
        assert RandomStreams(5).randint("x", 0, 100) == RandomStreams(5).randint(
            "x", 0, 100
        )

    def test_different_seeds_differ(self):
        draws1 = [RandomStreams(1).getrandbits("x", 64) for _ in range(1)]
        draws2 = [RandomStreams(2).getrandbits("x", 64) for _ in range(1)]
        assert draws1 != draws2

    def test_expovariate_positive(self):
        streams = RandomStreams(3)
        assert all(streams.expovariate("e", 2.0) > 0 for _ in range(10))


class TestTraceIndexAndLimits:
    def make(self):
        clock = {"t": 0.0}
        trace = TraceRecorder(clock=lambda: clock["t"])
        return trace, clock

    def fill(self, trace, clock, n, name="M"):
        for i in range(n):
            clock["t"] = float(i)
            trace.record("msg", "A", "B", "Um", name)

    def test_index_matches_linear_scan(self):
        trace, clock = self.make()
        for i in range(10):
            clock["t"] = float(i)
            trace.record("msg", "A", "B", "Um", f"M{i % 3}")
        for name in ("M0", "M1", "M2"):
            scan = [e for e in trace.entries if e.kind == "msg" and e.message == name]
            assert trace.messages(name=name) == scan
            assert trace.count(name) == len(scan)
            assert trace.first(name) is scan[0]
            assert trace.last(name) is scan[-1]

    def test_notes_not_in_message_index(self):
        trace, clock = self.make()
        trace.note("A", "milestone")
        trace.record("msg", "A", "B", "Um", "M")
        assert trace.count() == 1
        assert trace.first("milestone") is None

    def test_clear_resets_index(self):
        trace, clock = self.make()
        self.fill(trace, clock, 5)
        trace.clear()
        assert trace.count() == 0
        assert trace.first("M") is None
        assert trace.dropped == 0

    def test_limit_trims_oldest_half(self):
        trace, clock = self.make()
        trace.set_limit(10)
        self.fill(trace, clock, 11)
        # Exceeding the bound drops down to limit // 2 entries.
        assert len(trace.entries) == 5
        assert trace.dropped == 6
        assert trace.entries[0].time == 6.0
        # Point queries about an evicted name refuse to answer from
        # partial history instead of silently under-counting.
        with pytest.raises(TraceWindowError):
            trace.count("M")
        with pytest.raises(TraceWindowError):
            trace.first("M")
        with pytest.raises(TraceWindowError):
            trace.last("M")
        # The overall count and bulk scans still work.
        assert trace.count() == 5

    def test_window_guard_only_for_evicted_names(self):
        trace, clock = self.make()
        trace.set_limit(10)
        self.fill(trace, clock, 11)
        # A name never evicted answers normally after the trim.
        trace.record("msg", "A", "B", "Um", "Fresh")
        assert trace.count("Fresh") == 1
        assert trace.first("Fresh") is trace.entries[-1]
        # clear() starts a fresh window and lifts the guard.
        trace.clear()
        assert trace.count("M") == 0
        assert trace.first("M") is None

    def test_limit_applies_retroactively(self):
        trace, clock = self.make()
        self.fill(trace, clock, 20)
        trace.set_limit(8)
        assert len(trace.entries) == 4
        assert trace.dropped == 16

    def test_unbounded_by_default(self):
        trace, clock = self.make()
        self.fill(trace, clock, 100)
        assert trace.limit is None
        assert len(trace.entries) == 100
        assert trace.dropped == 0

    def test_limit_below_two_rejected(self):
        trace, _ = self.make()
        with pytest.raises(ValueError):
            trace.set_limit(1)

    def test_disable_reenable_keeps_index_consistent(self):
        trace, clock = self.make()
        self.fill(trace, clock, 3)
        trace.enabled = False
        self.fill(trace, clock, 3)
        trace.enabled = True
        assert trace.count("M") == 3

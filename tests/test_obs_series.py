"""Tests for the sim-time series sampler and cross-worker merging."""

import copy
import io

import pytest

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.obs.export import export_trace_jsonl
from repro.obs.series import SeriesSampler, merge_series
from repro.sim.kernel import Simulator


def bucket(t, counters=None, gauges=None, histograms=None):
    return {
        "t": t,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def series(buckets, interval=1.0, start=0.0, sim_time=None, sources=1):
    return {
        "interval": interval,
        "base_interval": interval,
        "start": start,
        "sim_time": (buckets[-1]["t"] if buckets else 0.0)
        if sim_time is None else sim_time,
        "sources": sources,
        "coarsenings": 0,
        "buckets": copy.deepcopy(buckets),
    }


def hist(samples):
    from repro.sim.metrics import summarize_samples

    return summarize_samples(list(samples))


class TestSampler:
    def test_counter_deltas_per_bucket(self):
        sim = Simulator()
        c = sim.metrics.counter("x")
        sampler = SeriesSampler(sim, interval=1.0).start()
        for t, n in ((0.25, 2), (1.5, 3), (3.5, 1)):
            sim.schedule(t, c.inc, n)
        sim.run(until=4.0)
        sampler.stop(flush=True)
        assert [b["t"] for b in sampler.buckets] == [1.0, 2.0, 3.0, 4.0]
        assert [b["counters"].get("x", 0) for b in sampler.buckets] == \
            [2, 3, 0, 1]
        # Zero deltas are omitted, not stored as 0.
        assert sampler.buckets[2]["counters"] == {}

    def test_gauge_edge_value_and_windowed_integral(self):
        sim = Simulator()
        g = sim.metrics.gauge("g")
        sampler = SeriesSampler(sim, interval=1.0).start()
        sim.schedule(0.0, g.set, 2.0)
        sim.schedule(1.5, g.set, 4.0)
        sim.run(until=2.0)
        sampler.stop(flush=True)
        b1, b2 = sampler.buckets
        assert b1["gauges"]["g"] == {"value": 2.0, "integral": 2.0}
        assert b2["gauges"]["g"]["value"] == 4.0
        # Window integral: 0.5 s at level 2 plus 0.5 s at level 4.
        assert b2["gauges"]["g"]["integral"] == pytest.approx(3.0)

    def test_histogram_windows_are_not_cumulative(self):
        sim = Simulator()
        h = sim.metrics.histogram("h")
        sampler = SeriesSampler(sim, interval=1.0).start()
        sim.schedule(0.2, h.observe, 1.0)
        sim.schedule(0.3, h.observe, 3.0)
        sim.schedule(1.2, h.observe, 10.0)
        sim.run(until=2.0)
        sampler.stop(flush=True)
        b1, b2 = sampler.buckets
        assert b1["histograms"]["h"]["count"] == 2
        assert b1["histograms"]["h"]["max"] == 3.0
        assert b2["histograms"]["h"]["count"] == 1
        assert b2["histograms"]["h"]["mean"] == 10.0

    def test_flush_closes_partial_bucket_only_once(self):
        sim = Simulator()
        c = sim.metrics.counter("x")
        sampler = SeriesSampler(sim, interval=1.0).start()
        sim.schedule(1.2, c.inc)
        sim.run(until=1.5)
        sampler.stop(flush=True)
        sampler.flush()  # idempotent: no sim time has passed since
        assert [b["t"] for b in sampler.buckets] == [1.0, 1.5]
        assert sampler.buckets[1]["counters"] == {"x": 1}

    def test_zero_event_run_yields_empty_buckets(self):
        sim = Simulator()
        sampler = SeriesSampler(sim, interval=1.0).start()
        sim.run(until=3.0)
        sampler.stop(flush=True)
        assert len(sampler.buckets) == 3
        for b in sampler.buckets:
            assert b["counters"] == {} and b["histograms"] == {}

    def test_retention_bound_coarsens_pairwise(self):
        sim = Simulator()
        c = sim.metrics.counter("x")
        sampler = SeriesSampler(sim, interval=1.0, max_points=4).start()
        for k in range(8):
            sim.schedule(k + 0.5, c.inc)
        sim.run(until=8.0)
        sampler.stop(flush=True)
        assert sampler.coarsenings == 1
        assert sampler.interval == 2.0
        assert sampler.base_interval == 1.0
        # Nothing is lost to coarsening: the deltas still sum to 8.
        assert sum(b["counters"].get("x", 0) for b in sampler.buckets) == 8
        assert [b["t"] for b in sampler.buckets] == [2.0, 4.0, 5.0, 7.0, 8.0]

    def test_constructor_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SeriesSampler(sim, interval=0.0)
        with pytest.raises(ValueError):
            SeriesSampler(sim, max_points=3)
        with pytest.raises(ValueError):
            SeriesSampler(sim, max_points=6 + 1)

    def test_armed_sampler_keeps_trace_byte_identical(self):
        def run(with_sampler):
            nw = build_vgprs_network()
            if with_sampler:
                SeriesSampler(nw.sim, interval=0.5).start()
            ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
            term = nw.add_terminal("TERM1", "+886222000001",
                                   answer_delay=0.6)
            nw.sim.run(until=0.5)
            scenarios.register_ms(nw, ms)
            scenarios.call_ms_to_terminal(nw, ms, term)
            scenarios.hangup_from_ms(nw, ms)
            nw.sim.run(until=nw.sim.now + 1.0)
            buf = io.StringIO()
            export_trace_jsonl(nw.sim, buf)
            return buf.getvalue()

        assert run(False) == run(True)


class TestMerge:
    def test_empty_input(self):
        merged = merge_series([])
        assert merged["sources"] == 0 and merged["buckets"] == []

    def test_single_source_is_identity(self):
        s = series([bucket(1.0, counters={"x": 2})])
        merged = merge_series([s])
        assert merged == s
        assert merged is not s
        assert merged["buckets"][0] is not s["buckets"][0]

    def test_buckets_merge_by_index(self):
        a = series([bucket(1.0, counters={"x": 1}),
                    bucket(2.0, counters={"x": 2})])
        b = series([bucket(1.0, counters={"x": 10, "y": 1})])
        merged = merge_series([a, b])
        assert [bk["counters"] for bk in merged["buckets"]] == [
            {"x": 11, "y": 1}, {"x": 2}]
        assert merged["sources"] == 2
        assert merged["sim_time"] == 3.0

    def test_gauges_sum_values_and_integrals(self):
        a = series([bucket(1.0, gauges={"g": {"value": 1.0,
                                              "integral": 0.5}})])
        b = series([bucket(1.0, gauges={"g": {"value": 2.0,
                                              "integral": 1.5}})])
        g = merge_series([a, b])["buckets"][0]["gauges"]["g"]
        assert g == {"value": 3.0, "integral": 2.0}

    def test_histograms_pool(self):
        a = series([bucket(1.0, histograms={"h": hist([1.0, 2.0])})])
        b = series([bucket(1.0, histograms={"h": hist([4.0])})])
        h = merge_series([a, b])["buckets"][0]["histograms"]["h"]
        assert h["count"] == 3
        assert h["min"] == 1.0 and h["max"] == 4.0

    def test_merge_is_order_independent(self):
        # Holds because every value here is exact in binary; float sums
        # in general depend on the input order, which callers fix.
        parts = [
            series([bucket(1.0, counters={"x": 1},
                           histograms={"h": hist([1.0, 5.0])})]),
            series([bucket(1.0, counters={"x": 2},
                           histograms={"h": hist([2.0])})]),
            series([bucket(1.0, counters={"y": 7})]),
        ]
        forward = merge_series(parts)
        assert merge_series(parts[::-1]) == forward
        assert merge_series([parts[1], parts[2], parts[0]]) == forward

    def test_mixed_intervals_align_by_coarsening(self):
        fine = series([bucket(1.0, counters={"x": 1}),
                       bucket(2.0, counters={"x": 2})], interval=1.0)
        coarse = series([bucket(2.0, counters={"x": 10})], interval=2.0)
        merged = merge_series([fine, coarse])
        assert merged["interval"] == 2.0
        assert merged["buckets"][0]["counters"] == {"x": 13}

    def test_non_power_of_two_intervals_rejected(self):
        a = series([bucket(1.0)], interval=1.0)
        b = series([bucket(3.0)], interval=3.0)
        with pytest.raises(ValueError):
            merge_series([a, b])

    def test_degenerate_worker_merges_as_noop(self):
        # A worker whose scenario produced no events still ships empty
        # buckets; merging them must not disturb the busy worker.
        busy = series([bucket(1.0, counters={"x": 4},
                              gauges={"g": {"value": 1.0, "integral": 1.0}},
                              histograms={"h": hist([2.0])})])
        idle = series([bucket(1.0)])
        merged = merge_series([busy, idle])
        assert merged["buckets"][0]["counters"] == {"x": 4}
        assert merged["buckets"][0]["histograms"]["h"]["count"] == 1
        assert merged["sources"] == 2

    def test_empty_histogram_windows_pool_to_zero(self):
        empty = hist([])
        a = series([bucket(1.0, histograms={"h": empty})])
        b = series([bucket(1.0, histograms={"h": empty})])
        h = merge_series([a, b])["buckets"][0]["histograms"]["h"]
        assert h["count"] == 0

    def test_live_samplers_merge_like_snapshots(self):
        def sampled(seed_offset):
            sim = Simulator()
            c = sim.metrics.counter("x")
            sampler = SeriesSampler(sim, interval=1.0).start()
            sim.schedule(0.5, c.inc, 1 + seed_offset)
            sim.schedule(1.5, c.inc, 2)
            sim.run(until=2.0)
            sampler.stop(flush=True)
            return sampler.to_dict()

        merged = merge_series([sampled(0), sampled(10)])
        assert [b["counters"]["x"] for b in merged["buckets"]] == [12, 4]

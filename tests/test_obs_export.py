"""Tests for trace/metrics exporters and snapshot merging."""

import io
import json
import math
import statistics

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.obs.export import (
    export_trace_jsonl,
    merge_snapshots,
    render_span_tree,
)
from repro.obs.prom import render_prometheus, sanitize_name


def run_call():
    nw = build_vgprs_network()
    ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
    term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.6)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    scenarios.call_ms_to_terminal(nw, ms, term)
    scenarios.hangup_from_ms(nw, ms)
    nw.sim.run(until=nw.sim.now + 1.0)
    return nw


def snap(sim_time, counters=None, gauges=None, histograms=None):
    return {
        "sim_time": sim_time,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def gauge(value=0.0, peak=0.0, integral=0.0, time_average=0.0):
    return {"value": value, "peak": peak, "integral": integral,
            "time_average": time_average}


def hist(samples):
    n = len(samples)
    return {
        "count": n,
        "mean": statistics.fmean(samples),
        "min": min(samples),
        "max": max(samples),
        "stdev": statistics.stdev(samples) if n > 1 else 0.0,
        "p50": statistics.fmean(samples),  # placeholder quantiles
        "p95": max(samples),
        "p99": max(samples),
    }


class TestTraceJsonl:
    def test_format_and_span_tagging(self):
        nw = run_call()
        buf = io.StringIO()
        lines = export_trace_jsonl(nw.sim, buf, run="r1")
        records = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert len(records) == lines

        header = records[0]
        assert header["type"] == "run" and header["run"] == "r1"
        assert header["n_spans"] == len(nw.sim.spans.spans)
        assert header["n_entries"] == len(nw.sim.trace.entries)

        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert len(spans) == header["n_spans"]
        assert len(events) == header["n_entries"]
        # Spans come before any event line.
        kinds = [r["type"] for r in records]
        assert kinds.index("event") > max(i for i, k in enumerate(kinds)
                                          if k == "span")
        # Every span id referenced by an event is declared.
        declared = {s["span"] for s in spans}
        referenced = {e["span"] for e in events if e["span"] is not None}
        assert referenced and referenced <= declared
        # Tagging matches the in-memory attachment.
        by_id = {s.span_id: s for s in nw.sim.spans.spans}
        for event in events:
            if event["span"] is not None:
                span = by_id[event["span"]]
                assert any(e.message == event["message"]
                           for e in span.entries)
        # seq is the recording order.
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_append_concatenates_runs(self, tmp_path):
        nw = run_call()
        path = str(tmp_path / "t.jsonl")
        export_trace_jsonl(nw.sim, path, run="a")
        export_trace_jsonl(nw.sim, path, run="b", append=True)
        with open(path) as fh:
            headers = [json.loads(l) for l in fh if '"type": "run"' in l]
        assert [h["run"] for h in headers] == ["a", "b"]

    def test_export_is_deterministic(self):
        def export():
            buf = io.StringIO()
            export_trace_jsonl(run_call().sim, buf)
            return buf.getvalue()

        assert export() == export()


class TestSpanTree:
    def test_render_indents_children(self):
        nw = run_call()
        text = render_span_tree(nw.sim)
        assert "[registration" in text and "[call" in text
        assert "\n  [setup" in text or "\n  [release" in text  # indented child
        assert "Um_Setup" in text  # flow steps appear as leaves

    def test_entry_cap(self):
        nw = run_call()
        text = render_span_tree(nw.sim, max_entries_per_span=1)
        assert "more" in text


class TestSnapshots:
    def test_counters_sum(self):
        merged = merge_snapshots([
            snap(1.0, counters={"x": 2, "y": 1}),
            snap(1.0, counters={"x": 3}),
        ])
        assert merged["counters"] == {"x": 5, "y": 1}
        assert merged["sim_time"] == 2.0 and merged["sources"] == 2

    def test_gauge_time_average_weights_by_duration(self):
        merged = merge_snapshots([
            snap(5.0, gauges={"g": gauge(value=1, peak=4, integral=10.0,
                                         time_average=2.0)}),
            snap(1.0, gauges={"g": gauge(value=2, peak=3, integral=3.0,
                                         time_average=3.0)}),
        ])
        g = merged["gauges"]["g"]
        assert g["value"] == 3 and g["peak"] == 4
        assert g["integral"] == 13.0
        assert g["time_average"] == 13.0 / 6.0

    def test_histogram_pooled_moments_are_exact(self):
        a, b = [1.0, 2.0, 3.0], [4.0, 6.0]
        merged = merge_snapshots([
            snap(1.0, histograms={"h": hist(a)}),
            snap(1.0, histograms={"h": hist(b)}),
        ])
        h = merged["histograms"]["h"]
        pooled = a + b
        assert h["count"] == 5
        assert h["mean"] == statistics.fmean(pooled)
        assert h["min"] == 1.0 and h["max"] == 6.0
        assert math.isclose(h["stdev"], statistics.stdev(pooled))
        # Quantiles are count-weighted estimates of per-source quantiles.
        assert math.isclose(h["p95"], (3.0 * 3 + 6.0 * 2) / 5)

    def test_empty_histogram_sources(self):
        empty = {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                 "stdev": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        merged = merge_snapshots([
            snap(1.0, histograms={"h": empty}),
            snap(1.0, histograms={"h": empty}),
        ])
        assert merged["histograms"]["h"]["count"] == 0

    def test_merge_is_order_independent(self):
        # Holds because every value here is exact in binary; in general
        # the merge is deterministic only for a fixed input order (gauge
        # integrals 0.1, 0.2, 0.3 sum to 0.6000000000000001 forward and
        # to 0.6 reversed).
        parts = [
            snap(2.0, counters={"x": 1},
                 gauges={"g": gauge(1, 1, 2.0, 1.0)},
                 histograms={"h": hist([1.0, 2.0])}),
            snap(3.0, counters={"x": 4},
                 gauges={"g": gauge(0, 5, 6.0, 2.0)},
                 histograms={"h": hist([5.0])}),
        ]
        assert merge_snapshots(parts) == merge_snapshots(parts[::-1])


class TestPrometheus:
    def test_sanitize_name(self):
        assert sanitize_name("msgs.tx.VMSC") == "repro_msgs_tx_VMSC"
        assert sanitize_name("1bad") == "repro__1bad"
        assert sanitize_name("ok", prefix="x_") == "x_ok"

    def test_render_covers_all_metric_kinds(self):
        snapshot = snap(
            12.5,
            counters={"calls.ok": 3},
            gauges={"SGSN.contexts": gauge(1, 2, 10.0, 0.8)},
            histograms={"m2e": hist([0.08, 0.09])},
        )
        text = render_prometheus(snapshot)
        assert ("# HELP repro_calls_ok Simulation counter calls.ok.\n"
                "# TYPE repro_calls_ok counter\nrepro_calls_ok 3") in text
        assert "repro_SGSN_contexts 1" in text
        assert "repro_SGSN_contexts_time_avg 0.8" in text
        assert "repro_SGSN_contexts_peak 2" in text
        assert 'repro_m2e{quantile="0.5"}' in text
        assert "# TYPE repro_m2e_sum counter" in text
        assert "# TYPE repro_m2e_count counter" in text
        assert "repro_m2e_count 2" in text
        assert "repro_sim_time 12.5" in text
        assert text.endswith("\n")

    def test_every_series_has_help_and_type(self):
        snapshot = snap(
            1.0,
            counters={"c": 1},
            gauges={"g": gauge(1, 2, 1.0, 1.0)},
            histograms={"h": hist([0.5])},
        )
        text = render_prometheus(snapshot)
        helped = set()
        typed = set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                typed.add(line.split()[2])
        emitted = {
            line.split("{")[0].split()[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        assert emitted == helped == typed

    def test_render_accepts_live_registry(self):
        nw = run_call()
        from_registry = render_prometheus(nw.sim.metrics)
        from_snapshot = render_prometheus(nw.sim.metrics.snapshot())
        assert from_registry == from_snapshot
        assert "repro_sim_time" in from_registry

    def test_merged_snapshot_renders(self):
        nw = run_call()
        merged = merge_snapshots([nw.sim.metrics.snapshot(),
                                  nw.sim.metrics.snapshot()])
        text = render_prometheus(merged)
        assert "repro_sim_time" in text

    def test_exposition_round_trips_under_strict_line_grammar(self):
        import re

        nw = run_call()
        snapshot = nw.sim.metrics.snapshot()
        text = render_prometheus(snapshot)
        help_re = re.compile(r"^# HELP (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) \S.*$")
        type_re = re.compile(
            r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
            r"(?P<kind>counter|gauge|summary|histogram|untyped)$"
        )
        sample_re = re.compile(
            r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
            r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*"'
            r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*")*\})?'
            r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|inf|nan))$"
        )
        samples = {}
        pending_help = pending_type = None
        for line in text.splitlines():
            if line.startswith("# HELP "):
                m = help_re.match(line)
                assert m, f"bad HELP line: {line!r}"
                pending_help = m.group("name")
            elif line.startswith("# TYPE "):
                m = type_re.match(line)
                assert m, f"bad TYPE line: {line!r}"
                # HELP must immediately precede TYPE for the same series.
                assert m.group("name") == pending_help, line
                pending_type = m.group("name")
            else:
                m = sample_re.match(line)
                assert m, f"bad sample line: {line!r}"
                # Samples follow the header block of their family.
                assert m.group("name").startswith(pending_type), line
                samples[line.split(" ")[0]] = float(m.group("value"))
        # Round trip: counter values and histogram counts survive.
        for name, value in snapshot["counters"].items():
            assert samples[sanitize_name(name)] == value
        for name, summary in snapshot["histograms"].items():
            assert samples[sanitize_name(name) + "_count"] == summary["count"]
        assert samples["repro_sim_time"] == snapshot["sim_time"]

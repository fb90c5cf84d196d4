"""Tests for hop recording, latency waterfalls and the timeline export."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.obs.export import export_trace_jsonl
from repro.obs.hops import (
    FIGURE3_LINK_ORDER,
    HopRecorder,
    render_waterfall,
    waterfall_rows,
)
from repro.obs.timeline import export_runs_timeline
from repro.sim.kernel import Simulator


def run_call(arm_hops=True):
    nw = build_vgprs_network()
    if arm_hops:
        nw.sim.hops = HopRecorder(nw.sim)
    ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
    term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.6)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    scenarios.call_ms_to_terminal(nw, ms, term)
    scenarios.hangup_from_ms(nw, ms)
    nw.sim.run(until=nw.sim.now + 1.0)
    return nw


def fake_packet(name):
    return SimpleNamespace(flow_name=lambda: name)


class TestHopRecorder:
    def test_records_signalling_segments(self):
        nw = run_call()
        hops = nw.sim.hops
        assert hops.segments
        for seg in hops.segments:
            assert seg.end >= seg.start
            assert seg.duration == seg.end - seg.start
        # The Figure-3 stack shows up as interfaces.
        assert "Um" in hops.by_interface()

    def test_media_frames_are_skipped(self):
        nw = run_call()
        quiet = nw.sim.trace.quiet_names
        assert quiet  # the trace recorder does quieten media frames
        assert not any(s.message in quiet for s in nw.sim.hops.segments)

    def test_per_link_histograms_registered(self):
        nw = run_call()
        names = [h.name for h in nw.sim.metrics.histogram_items()]
        hop_names = [n for n in names if n.startswith("hop.")]
        assert hop_names
        # hop.<interface>.<message>, interface from the link layer.
        assert any(n.startswith("hop.Um.") for n in hop_names)

    def test_armed_recorder_keeps_trace_byte_identical(self):
        def trace(arm):
            buf = io.StringIO()
            export_trace_jsonl(run_call(arm).sim, buf)
            return buf.getvalue()

        assert trace(False) == trace(True)

    def test_max_segments_drops_oldest_half(self):
        sim = Simulator()
        rec = HopRecorder(sim, max_segments=10)
        a, b = SimpleNamespace(name="a"), SimpleNamespace(name="b")
        for i in range(11):
            rec.on_transmit(a, b, "Um", fake_packet(f"Sig{i}"), 0.01)
        assert len(rec.segments) == 5
        assert rec.dropped == 6
        assert rec.segments[0].message == "Sig6"

    def test_max_segments_validation(self):
        with pytest.raises(ValueError):
            HopRecorder(Simulator(), max_segments=1)

    def test_index_keys_match_trace_identity(self):
        nw = run_call()
        index = nw.sim.hops.index()
        seg = nw.sim.hops.segments[0]
        assert index[(seg.message, seg.src, seg.dst, seg.end)].start == \
            seg.start


class TestWaterfall:
    def test_rows_in_figure3_order_with_shares(self):
        nw = run_call()
        span = next(s for s in nw.sim.spans.spans
                    if s.name == "registration")
        rows = waterfall_rows(span, nw.sim.hops)
        assert rows
        order = [r["interface"] for r in rows]
        ranks = [FIGURE3_LINK_ORDER.index(i) if i in FIGURE3_LINK_ORDER
                 else len(FIGURE3_LINK_ORDER) for i in order]
        assert ranks == sorted(ranks)
        for row in rows:
            assert row["hops"] >= 1
            assert 0.0 <= row["share"] <= 1.0
        # Registration crosses the air interface (Figure 4).
        assert "Um" in order

    def test_render_contains_bars_and_totals(self):
        nw = run_call()
        span = next(s for s in nw.sim.spans.spans
                    if s.name == "registration")
        text = render_waterfall(span, nw.sim.hops)
        assert text.startswith("registration")
        assert "#" in text and "hops)" in text
        assert "Um" in text

    def test_span_without_hops_renders_placeholder(self):
        sim = Simulator()
        rec = HopRecorder(sim)
        span = SimpleNamespace(name="empty", span_id=1, start=0.0, end=1.0,
                               entries=[])
        assert "no link hops" in render_waterfall(span, rec)


class TestTimelineExport:
    def test_document_shape_and_phases(self):
        nw = run_call()
        doc = export_runs_timeline([("main", nw.sim)])
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["link_order"] == list(FIGURE3_LINK_ORDER)
        events = doc["traceEvents"]
        assert events
        assert {e["ph"] for e in events} <= {"M", "X", "b", "e"}
        for e in events:
            if e["ph"] in ("b", "e", "X"):
                assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
                assert e["cat"] == "hop"
                assert set(e["args"]) == {"src", "dst", "interface"}

    def test_async_span_events_balance(self):
        nw = run_call()
        events = export_runs_timeline([("main", nw.sim)])["traceEvents"]
        begins = [e["id"] for e in events if e["ph"] == "b"]
        ends = [e["id"] for e in events if e["ph"] == "e"]
        assert begins and sorted(begins) == sorted(ends)
        assert len(begins) == len(nw.sim.spans.spans)

    def test_export_is_deterministic(self):
        def dump():
            nw = run_call()
            return json.dumps(export_runs_timeline([("main", nw.sim)]),
                              sort_keys=True)

        assert dump() == dump()

    def test_write_round_trips_as_json(self, tmp_path):
        nw = run_call()
        path = str(tmp_path / "timeline.json")
        doc = export_runs_timeline([("main", nw.sim)], path=path)
        with open(path) as fh:
            assert json.load(fh) == doc

    def test_multi_run_namespaces_pids_and_labels(self):
        a, b = run_call(), run_call()
        doc = export_runs_timeline([("one", a.sim), ("two", b.sim)])
        events = doc["traceEvents"]
        pids_one = {e["pid"] for e in events if e["pid"] in (1, 2)}
        pids_two = {e["pid"] for e in events if e["pid"] in (3, 4)}
        assert pids_one and pids_two
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert "one: procedures" in names and "two: links" in names

    def test_single_run_has_no_label_prefix(self):
        nw = run_call()
        doc = export_runs_timeline([("only", nw.sim)])
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert "procedures" in names

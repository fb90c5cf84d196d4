"""Unit and integration tests for correlated procedure spans."""

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.obs.spans import NULL_SPAN, SpanTracker
from repro.sim.trace import TraceRecorder


class TestSpanTracker:
    def make(self):
        clock = {"t": 0.0}
        tracker = SpanTracker(clock=lambda: clock["t"])
        trace = TraceRecorder(clock=lambda: clock["t"])
        trace.sinks.append(tracker.on_entry)
        return tracker, trace, clock

    def test_open_close_lifecycle(self):
        tracker, _, clock = self.make()
        span = tracker.open("call", keys={"imsi": 123}, direction="mo")
        assert span.open
        assert span.keys == {"imsi": "123"}  # values normalised to str
        assert span.attrs == {"direction": "mo"}
        clock["t"] = 2.0
        span.close(status="ok")
        assert not span.open
        assert span.start == 0.0 and span.end == 2.0
        assert span.status == "ok"

    def test_close_is_idempotent(self):
        tracker, _, _ = self.make()
        span = tracker.open("call", keys={"imsi": 1})
        span.close(status="rejected")
        span.close(status="ok")  # defensive close keeps the first status
        assert span.status == "rejected"

    def test_none_keys_dropped(self):
        tracker, _, _ = self.make()
        span = tracker.open("call", keys={"imsi": 1, "ti": None})
        assert span.keys == {"imsi": "1"}

    def test_entry_attaches_by_key(self):
        tracker, trace, _ = self.make()
        span = tracker.open("call", keys={"imsi": 1})
        trace.record("msg", "A", "B", "Um", "M1", imsi="1")
        trace.record("msg", "A", "B", "Um", "M2", imsi="2")  # other call
        trace.record("msg", "A", "B", "Um", "M3")            # no keys
        assert [e.message for e in span.entries] == ["M1"]

    def test_innermost_open_span_wins(self):
        tracker, trace, _ = self.make()
        outer = tracker.open("call", keys={"imsi": 1})
        inner = tracker.open("setup", keys={"imsi": 1})
        trace.record("msg", "A", "B", "Um", "M", imsi="1")
        assert inner.entries and not outer.entries
        inner.close()
        trace.record("msg", "A", "B", "Um", "M2", imsi="1")
        assert [e.message for e in outer.entries] == ["M2"]

    def test_auto_parenting_via_shared_key(self):
        tracker, _, _ = self.make()
        parent = tracker.open("call", keys={"call_ref": 7})
        child = tracker.open("call", keys={"call_ref": 7})
        orphan = tracker.open("call", keys={"call_ref": 8})
        assert child.parent_id == parent.span_id
        assert orphan.parent_id is None

    def test_explicit_parent_overrides(self):
        tracker, _, _ = self.make()
        a = tracker.open("call", keys={"imsi": 1})
        b = tracker.open("release", keys={"imsi": 2}, parent=a)
        assert b.parent_id == a.span_id

    def test_bind_adds_key_after_open(self):
        tracker, trace, _ = self.make()
        span = tracker.open("call", keys={"imsi": 1})
        span.bind("call_ref", 1001)
        trace.record("msg", "GK", "T", "ip", "RAS_ACF", call_ref=1001)
        assert [e.message for e in span.entries] == ["RAS_ACF"]
        assert tracker.find_open("call_ref", 1001) is span

    def test_learned_invoke_id_correlates_response(self):
        tracker, trace, _ = self.make()
        span = tracker.open("registration", keys={"imsi": 1})
        # Request carries both the span key and the transaction id...
        trace.record("msg", "VLR", "HLR", "D", "MAP_Req", imsi="1", invoke_id=5)
        # ...the ack carries only the transaction id.
        trace.record("msg", "HLR", "VLR", "D", "MAP_Ack", invoke_id=5)
        assert [e.message for e in span.entries] == ["MAP_Req", "MAP_Ack"]

    def test_learned_ids_scoped_to_node_pair(self):
        tracker, trace, _ = self.make()
        span = tracker.open("registration", keys={"imsi": 1})
        trace.record("msg", "VLR", "HLR", "D", "MAP_Req", imsi="1", invoke_id=5)
        # Same invoke id on a different node pair: different sequencer,
        # different transaction — must not attach.
        trace.record("msg", "VMSC", "VLR", "B", "MAP_Other", invoke_id=5)
        assert [e.message for e in span.entries] == ["MAP_Req"]

    def test_learned_mapping_expires_with_span(self):
        tracker, trace, _ = self.make()
        span = tracker.open("registration", keys={"imsi": 1})
        trace.record("msg", "VLR", "HLR", "D", "MAP_Req", imsi="1", invoke_id=5)
        span.close()
        trace.record("msg", "HLR", "VLR", "D", "MAP_Ack", invoke_id=5)
        assert [e.message for e in span.entries] == ["MAP_Req"]

    def test_find_open_filters_by_name(self):
        tracker, _, _ = self.make()
        call = tracker.open("call", keys={"imsi": 1})
        tracker.open("setup", keys={"imsi": 1})
        assert tracker.find_open("imsi", 1, name="call") is call
        assert tracker.find_open("imsi", 99) is None

    def test_disabled_tracker_returns_null_span(self):
        tracker, trace, _ = self.make()
        tracker.enabled = False
        span = tracker.open("call", keys={"imsi": 1})
        assert span is NULL_SPAN
        assert span.bind("x", 1) is span and span.close() is span
        trace.record("msg", "A", "B", "Um", "M", imsi="1")
        assert tracker.spans == []

    def test_trim_drops_oldest_closed_spans(self):
        tracker, _, _ = self.make()
        tracker.max_spans = 10
        keep_open = tracker.open("call", keys={"imsi": "keep"})
        for i in range(11):
            tracker.open("call", keys={"imsi": i}).close()
        assert len(tracker.spans) <= 10
        assert tracker.dropped > 0
        assert keep_open in tracker.spans  # open spans survive trimming

    def test_open_count_matches_open_spans(self):
        tracker, _, _ = self.make()

        def check():
            assert tracker.open_count == len(tracker.open_spans())

        outer = tracker.open("call", keys={"imsi": 1})
        check()
        inner = tracker.open("setup", keys={"imsi": 1})
        inner.bind("call_ref", 7)
        check()
        inner.close()
        inner.close()  # a double close counts once
        check()
        tracker.enabled = False
        assert tracker.open("call", keys={"imsi": 2}) is NULL_SPAN
        NULL_SPAN.close()
        check()
        tracker.enabled = True
        tracker.open("release", keys={"imsi": 1})
        assert tracker.open_count == 2
        tracker.clear()
        check()
        outer.close()  # opened before clear(): detached, not counted
        assert not outer.open
        check()

    def test_queries(self):
        tracker, _, _ = self.make()
        a = tracker.open("call", keys={"imsi": 1})
        b = tracker.open("setup", keys={"imsi": 1})
        assert tracker.open_spans() == [a, b]
        assert tracker.by_name("setup") == [b]
        assert tracker.children(a) == [b]
        assert tracker.roots() == [a]
        tracker.clear()
        assert tracker.spans == [] and tracker.open_spans() == []


class TestCallSpans:
    """End-to-end span trees over the real network."""

    def build(self, answer_delay=0.4):
        nw = build_vgprs_network()
        ms = nw.add_ms("MS1", "466920000000001", "+886935000001",
                       answer_delay=answer_delay)
        term = nw.add_terminal("TERM1", "+886222000001",
                               answer_delay=answer_delay)
        nw.sim.run(until=0.5)
        return nw, ms, term

    def test_registration_span_covers_figure4(self):
        nw, ms, _ = self.build()
        scenarios.register_ms(nw, ms)
        (reg,) = nw.sim.spans.by_name("registration")
        assert reg.status == "ok" and reg.parent_id is None
        names = {e.message for e in reg.entries}
        # Figure 4 steps, including MAP acks correlated via invoke_id.
        for step in ("Um_Location_Update_Request", "MAP_Update_Location",
                     "MAP_Insert_Subs_Data_ack", "RAS_RRQ", "RAS_RCF",
                     "Um_Location_Update_Accept"):
            assert step in names, step

    def test_mo_call_renders_as_one_tree(self):
        nw, ms, term = self.build()
        scenarios.register_ms(nw, ms)
        scenarios.call_ms_to_terminal(nw, ms, term)
        scenarios.hangup_from_ms(nw, ms)
        nw.sim.run(until=nw.sim.now + 1.0)
        spans = nw.sim.spans
        ms_call = next(s for s in spans.by_name("call")
                       if s.attrs.get("direction") == "mo")
        assert ms_call.status == "ok"
        assert "call_ref" in ms_call.keys  # bound by the VMSC
        child_names = {s.name for s in spans.children(ms_call)}
        assert {"setup", "release"} <= child_names
        # The called terminal's span nests under the MS call via call_ref.
        term_call = next(s for s in spans.by_name("call")
                         if s.attrs.get("node") == "TERM1")
        assert term_call.parent_id == ms_call.span_id
        setup = next(s for s in spans.children(ms_call) if s.name == "setup")
        assert setup.attrs["setup_delay"] > 0
        assert not spans.open_spans()

    def test_mt_call_roots_at_calling_terminal(self):
        nw, ms, term = self.build()
        scenarios.register_ms(nw, ms)
        scenarios.call_terminal_to_ms(nw, term, ms)
        scenarios.hangup_from_ms(nw, ms)
        nw.sim.run(until=nw.sim.now + 1.0)
        spans = nw.sim.spans
        term_call = next(s for s in spans.by_name("call")
                         if s.attrs.get("node") == "TERM1")
        assert term_call.parent_id is None
        (mt_leg,) = spans.by_name("mt-leg")
        ms_call = next(s for s in spans.by_name("call")
                       if s.attrs.get("direction") == "mt")
        # terminal -> VMSC leg -> MS, one tree across three nodes.
        assert ms_call.parent_id == mt_leg.span_id
        assert mt_leg.status == "ok" and ms_call.status == "ok"

    def test_spans_do_not_perturb_traces(self):
        def triples(enabled):
            nw = build_vgprs_network()
            nw.sim.spans.enabled = enabled
            ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
            term = nw.add_terminal("TERM1", "+886222000001",
                                   answer_delay=0.4)
            nw.sim.run(until=0.5)
            scenarios.register_ms(nw, ms)
            scenarios.call_ms_to_terminal(nw, ms, term)
            scenarios.hangup_from_ms(nw, ms)
            nw.sim.run(until=nw.sim.now + 1.0)
            return nw.sim.trace.triples()

        assert triples(True) == triples(False)

"""Integration tests for MO calls, MT calls and release (§4/§5,
Figures 5-6)."""

from repro.core import scenarios
from repro.core.flows import (
    NodeNames,
    match_flow,
    origination_flow,
    release_flow,
    termination_flow,
)
from repro.core.network import build_vgprs_network
from repro.gprs.pdp import NSAPI_VOICE

from tests.conftest import DEFAULT_IMSI, DEFAULT_MSISDN, TERM_ALIAS

NAMES = NodeNames()


class TestOriginationFlow:
    def test_matches_figure5(self, registered):
        since = registered.sim.now
        scenarios.call_ms_to_terminal(
            registered, registered.mss["MS1"], registered.terminals["TERM1"]
        )
        matched = match_flow(registered.sim.trace, origination_flow(NAMES), since=since)
        assert len(matched) == len(origination_flow())

    def test_authorisation_precedes_admission(self, registered):
        since = registered.sim.now
        scenarios.call_ms_to_terminal(
            registered, registered.mss["MS1"], registered.terminals["TERM1"]
        )
        trace = registered.sim.trace
        sifoc = trace.first("MAP_Send_Info_For_Outgoing_Call")
        arq = trace.first("RAS_ARQ")
        assert sifoc.time < arq.time

    def test_voice_pdp_activated_after_connect(self, in_call):
        entry = in_call.vmsc.ms_table.get(in_call.mss["MS1"].imsi)
        assert entry.voice_ready
        ctx = in_call.sgsn.pdp_contexts[(entry.imsi, NSAPI_VOICE)]
        # Step 2.9 creates a *real-time* context.
        assert ctx.qos.delay_class == 1

    def test_call_states(self, in_call):
        ms = in_call.mss["MS1"]
        term = in_call.terminals["TERM1"]
        assert ms.state == "in-call"
        call = in_call.vmsc.call_for(ms.imsi)
        assert call is not None and call.state == "in-call"
        assert any(c.state == "in-call" for c in term.calls.values())

    def test_gk_admitted_both_endpoints(self, in_call):
        call = in_call.vmsc.call_for(in_call.mss["MS1"].imsi)
        record = in_call.gk.active_calls.get(call.call_ref)
        assert record is not None
        assert len(record.endpoints) == 2

    def test_international_call_barred_by_profile(self):
        nw = build_vgprs_network(seed=11)
        ms = nw.add_ms("MS1", DEFAULT_IMSI, DEFAULT_MSISDN,
                       international_allowed=False)
        nw.add_terminal("TERM1", TERM_ALIAS)
        scenarios.register_ms(nw, ms)
        from repro.identities import E164Number

        ms.place_call(E164Number.parse("+14155550100"))
        nw.sim.run(until=nw.sim.now + 10)
        assert ms.state == "idle"
        assert nw.sim.metrics.counters("VMSC.calls_barred") == {
            "VMSC.calls_barred": 1
        }

    def test_local_call_allowed_despite_barring(self):
        nw = build_vgprs_network(seed=12)
        ms = nw.add_ms("MS1", DEFAULT_IMSI, DEFAULT_MSISDN,
                       international_allowed=False)
        term = nw.add_terminal("TERM1", TERM_ALIAS, answer_delay=0.2)
        scenarios.register_ms(nw, ms)
        outcome = scenarios.call_ms_to_terminal(nw, ms, term)
        assert outcome.connected_at is not None

    def test_call_to_unregistered_alias_rejected(self, registered):
        from repro.identities import E164Number

        ms = registered.mss["MS1"]
        ms.place_call(E164Number.parse("+886299999999"))
        registered.sim.run(until=registered.sim.now + 10)
        assert ms.state == "idle"
        assert registered.vmsc.call_for(ms.imsi) is None
        counters = registered.sim.metrics.counters("VMSC.admission_rejects")
        assert counters == {"VMSC.admission_rejects": 1}

    def test_gk_call_cap_produces_arj(self):
        nw = build_vgprs_network(seed=13, gk_max_calls=0)
        ms = nw.add_ms("MS1", DEFAULT_IMSI, DEFAULT_MSISDN)
        term = nw.add_terminal("TERM1", TERM_ALIAS)
        scenarios.register_ms(nw, ms)
        ms.place_call(term.alias)
        nw.sim.run(until=nw.sim.now + 10)
        assert ms.state == "idle"
        assert nw.gk.active_calls == {}


class TestTerminationFlow:
    def test_matches_figure6(self, registered):
        since = registered.sim.now
        scenarios.call_terminal_to_ms(
            registered, registered.terminals["TERM1"], registered.mss["MS1"]
        )
        matched = match_flow(
            registered.sim.trace, termination_flow(NAMES), since=since
        )
        assert len(matched) == len(termination_flow())

    def test_paging_before_setup(self, registered):
        since = registered.sim.now
        scenarios.call_terminal_to_ms(
            registered, registered.terminals["TERM1"], registered.mss["MS1"]
        )
        trace = registered.sim.trace
        page = trace.messages(name="A_Paging", since=since)[0]
        setups = trace.messages(name="A_Setup", since=since)
        assert setups and all(s.time > page.time for s in setups)

    def test_ms_busy_rejects_second_call(self, in_call):
        term2 = in_call.add_terminal("TERM2", "+886222000002")
        in_call.sim.run(until=in_call.sim.now + 0.5)
        ref = term2.place_call(in_call.mss["MS1"].msisdn)
        in_call.sim.run(until=in_call.sim.now + 10)
        assert ref not in term2.calls  # released (busy)
        # The original call is untouched.
        assert in_call.mss["MS1"].state == "in-call"

    def test_page_timeout_releases_caller(self):
        nw = build_vgprs_network(seed=14)
        ms = nw.add_ms("MS1", DEFAULT_IMSI, DEFAULT_MSISDN)
        term = nw.add_terminal("TERM1", TERM_ALIAS)
        scenarios.register_ms(nw, ms)
        # Detach the MS from the radio without telling the network.
        ms.state = "off"
        ref = term.place_call(ms.msisdn)
        nw.sim.run(until=nw.sim.now + 20)
        assert ref not in term.calls
        assert nw.sim.metrics.counters("VMSC.page_timeouts") == {
            "VMSC.page_timeouts": 1
        }

    def test_unregistered_ms_unreachable(self, vgprs):
        term = vgprs.terminals["TERM1"]
        ref = term.place_call(vgprs.mss["MS1"].msisdn)  # never registered
        vgprs.sim.run(until=vgprs.sim.now + 10)
        assert ref not in term.calls


class TestRelease:
    def test_matches_figure5_release(self, in_call):
        since = in_call.sim.now
        scenarios.hangup_from_ms(in_call, in_call.mss["MS1"])
        in_call.sim.run(until=in_call.sim.now + 2)  # drain in-flight H.323
        matched = match_flow(in_call.sim.trace, release_flow(NAMES), since=since)
        assert len(matched) == len(release_flow())

    def test_voice_pdp_deactivated(self, in_call):
        ms = in_call.mss["MS1"]
        scenarios.hangup_from_ms(in_call, ms)
        entry = in_call.vmsc.ms_table.get(ms.imsi)
        assert not entry.voice_ready
        assert entry.signalling_ready  # the signalling context survives
        assert (ms.imsi, NSAPI_VOICE) not in in_call.sgsn.pdp_contexts

    def test_gk_records_cdr(self, in_call):
        scenarios.hangup_from_ms(in_call, in_call.mss["MS1"])
        in_call.sim.run(until=in_call.sim.now + 2)
        assert len(in_call.gk.call_records) == 1
        cdr = in_call.gk.call_records[0]
        assert cdr.complete
        assert cdr.reported_duration_ms > 0

    def test_radio_channel_freed(self, in_call):
        bsc = in_call.bscs[0]
        assert bsc.tch_in_use == 1
        scenarios.hangup_from_ms(in_call, in_call.mss["MS1"])
        in_call.sim.run(until=in_call.sim.now + 2)
        assert bsc.tch_in_use == 0

    def test_remote_release_clears_ms(self, in_call):
        term = in_call.terminals["TERM1"]
        ms = in_call.mss["MS1"]
        ref = next(iter(term.calls))
        term.hangup(ref)
        assert in_call.sim.run_until_true(lambda: ms.state == "idle", timeout=10)
        assert in_call.vmsc.call_for(ms.imsi) is None
        entry = in_call.vmsc.ms_table.get(ms.imsi)
        assert not entry.voice_ready

    def test_sequential_calls_reuse_signalling_context(self, registered):
        ms = registered.mss["MS1"]
        term = registered.terminals["TERM1"]
        for _ in range(3):
            scenarios.call_ms_to_terminal(registered, ms, term)
            scenarios.hangup_from_ms(registered, ms)
            registered.sim.run(until=registered.sim.now + 1)
        # Signalling context was never reactivated: exactly one signalling
        # activation (registration) plus three voice activations.
        activations = registered.sim.metrics.counters("SGSN.pdp_activations")
        assert activations == {"SGSN.pdp_activations": 4}
        assert len(registered.gk.call_records) == 3


class TestVoicePath:
    def test_two_way_voice_counts(self, in_call):
        ms = in_call.mss["MS1"]
        term = in_call.terminals["TERM1"]
        ref = next(iter(term.calls))
        ms.start_talking(duration=1.0)
        term.start_talking(ref, duration=1.0)
        in_call.sim.run(until=in_call.sim.now + 2.0)
        assert term.frames_received == 50
        assert ms.frames_received == 50

    def test_transcoding_counted_both_directions(self, in_call):
        ms = in_call.mss["MS1"]
        term = in_call.terminals["TERM1"]
        ref = next(iter(term.calls))
        ms.start_talking(duration=0.5)
        term.start_talking(ref, duration=0.5)
        in_call.sim.run(until=in_call.sim.now + 1.0)
        counters = in_call.sim.metrics.counters("VMSC.frames_transcoded")
        assert counters["VMSC.frames_transcoded_up"] == 25
        assert counters["VMSC.frames_transcoded_down"] == 25

    def test_mouth_to_ear_delay_is_bounded_and_consistent(self, in_call):
        ms = in_call.mss["MS1"]
        term = in_call.terminals["TERM1"]
        ref = next(iter(term.calls))
        ms.start_talking(duration=1.0)
        term.start_talking(ref, duration=1.0)
        in_call.sim.run(until=in_call.sim.now + 2.0)
        m2e = in_call.sim.metrics.get_histogram("MS1.mouth_to_ear")
        # Fixed-latency links + vocoder: delay constant, well under 150 ms.
        assert 0.02 < m2e.mean < 0.15
        assert m2e.maximum - m2e.minimum < 1e-9

    def test_circuit_path_has_no_jitter(self, in_call):
        ms = in_call.mss["MS1"]
        term = in_call.terminals["TERM1"]
        ref = next(iter(term.calls))
        term.start_talking(ref, duration=1.0)
        in_call.sim.run(until=in_call.sim.now + 2.0)
        jitter = in_call.sim.metrics.get_histogram("MS1.jitter")
        assert jitter.maximum < 1e-9

    def test_gen_timestamps_preserved_across_transcoding(self, in_call):
        """The vocoder must carry the talker's generation time through so
        end-to-end measurements stay truthful."""
        ms = in_call.mss["MS1"]
        ms.start_talking(duration=0.2)
        in_call.sim.run(until=in_call.sim.now + 1.0)
        term = in_call.terminals["TERM1"]
        m2e = in_call.sim.metrics.get_histogram("TERM1.mouth_to_ear")
        assert m2e.count == term.frames_received
        assert m2e.minimum > 0

"""Integration tests for the 3G TR 23.923 baseline and the Section-6
comparisons (experiments E8/E9 foundations)."""

import pytest

from repro.core import scenarios
from repro.core.baseline_3gtr import build_3gtr_network
from repro.core.network import LatencyProfile, build_vgprs_network

IMSI1 = "466920000000001"
MSISDN1 = "+886935000001"
TERM1 = "+886222000001"


@pytest.fixture
def tgtr():
    nw = build_3gtr_network(seed=41)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1, answer_delay=0.5)
    term = nw.add_terminal("TERM1", TERM1, answer_delay=0.5)
    nw.sim.run(until=0.5)
    ms.power_on()
    assert nw.sim.run_until_true(lambda: ms.registered, timeout=30)
    nw.sim.run(until=nw.sim.now + 1.0)  # let the PDP deactivation land
    return nw, ms, term


class TestRegistration3gtr:
    def test_pdp_deactivated_after_registration(self, tgtr):
        """3G TR fig. 7 step 6: 'the PDP context is deactivated'."""
        nw, ms, _ = tgtr
        assert ms.registered
        assert not ms.pdp_active
        assert nw.sgsn.context_count() == 0

    def test_gk_keeps_static_address(self, tgtr):
        nw, ms, _ = tgtr
        reg = nw.gk.resolve(ms.msisdn)
        assert reg is not None and reg.signal_address == ms.static_ip

    def test_ms_is_h323_capable(self, tgtr):
        _, ms, _ = tgtr
        assert hasattr(ms, "_send_h323")  # the modified handset

    def test_handlerless_tunnelled_message_reaches_on_unhandled(self, tgtr):
        """The handset unwraps H.323 from its GPRS frames and dispatches
        it through its handler table; a message it has no handler for is
        counted and noted instead of silently dropped."""
        from repro.gprs.gb import GbUnitdata
        from repro.gprs.pdp import NSAPI_SIGNALLING
        from repro.net.interfaces import Interface
        from repro.packets.ip import IPv4, PORT_H225_RAS, UDP
        from repro.packets.ras import RasUrq

        nw, ms, _ = tgtr
        frame = GbUnitdata(imsi=ms.imsi, nsapi=NSAPI_SIGNALLING)
        frame.payload = (
            IPv4(src=nw.gk.ip, dst=ms.static_ip)
            / UDP(sport=PORT_H225_RAS, dport=PORT_H225_RAS)
            / RasUrq(seq=1, alias=ms.msisdn)
        )
        ms.receive(frame, nw.btss[0], Interface.UM)
        assert nw.sim.metrics.counters("unhandled.MS1") == {"unhandled.MS1": 1}
        assert any(
            e.kind == "note" and e.message == "UNHANDLED RAS_URQ"
            for e in nw.sim.trace.entries
        )


class TestCalls3gtr:
    def test_mo_call_activates_context_per_call(self, tgtr):
        nw, ms, term = tgtr
        activations_before = nw.sim.metrics.counters("SGSN.pdp_activations")
        ms.place_call(term.alias)
        assert nw.sim.run_until_true(lambda: ms.state == "in-call", timeout=30)
        after = nw.sim.metrics.counters("SGSN.pdp_activations")
        assert after["SGSN.pdp_activations"] == (
            activations_before["SGSN.pdp_activations"] + 1
        )
        ms.hangup()
        nw.sim.run(until=nw.sim.now + 2)
        assert nw.sgsn.context_count() == 0

    def test_mt_call_uses_network_requested_activation(self, tgtr):
        nw, ms, term = tgtr
        ref = term.place_call(ms.msisdn)
        assert nw.sim.run_until_true(
            lambda: ref in term.calls and term.calls[ref].state == "in-call",
            timeout=30,
        )
        assert nw.sim.metrics.counters("MS1.network_requested_pdp") == {
            "MS1.network_requested_pdp": 1
        }
        assert nw.sim.metrics.counters("GGSN.pdu_notifications")

    def test_voice_rides_the_packet_channel(self, tgtr):
        nw, ms, term = tgtr
        ms.place_call(term.alias)
        nw.sim.run_until_true(lambda: ms.state == "in-call", timeout=30)
        ms.start_talking(duration=0.5)
        nw.sim.run(until=nw.sim.now + 1.5)
        assert term.frames_received == 25
        # The shared channel queued at least the voice frames.
        pch = nw.sim.metrics.get_histogram("BTS1.pch_delay_up")
        assert pch is not None and pch.count > 25

    def test_busy_ms_rejects_second_call(self, tgtr):
        nw, ms, term = tgtr
        ms.place_call(term.alias)
        nw.sim.run_until_true(lambda: ms.state == "in-call", timeout=30)
        term2 = nw.add_terminal("TERM2", "+886222000002")
        nw.sim.run(until=nw.sim.now + 0.5)
        ref = term2.place_call(ms.msisdn)
        nw.sim.run(until=nw.sim.now + 10)
        assert ref not in term2.calls
        assert ms.state == "in-call"


class TestSection6Comparisons:
    """The quantitative versions of the paper's qualitative claims."""

    @staticmethod
    def _setup_transport_delay(nw, place_call):
        """Time from the caller handing Q.931 Setup to the network until
        the called side's endpoint receives it — the component the paper
        attributes to PDP-context handling (call procedures on the radio
        are common to both architectures and excluded)."""
        t0 = nw.sim.now
        place_call()
        trace = nw.sim.trace
        nw.sim.run_until_true(
            lambda: trace.first("Q931_Call_Proceeding") is not None
            and trace.first("Q931_Call_Proceeding").time >= t0,
            timeout=30,
        )
        setups = trace.messages(name="Q931_Setup", since=t0)
        return setups[-1].time - setups[0].time

    def _vgprs_mt_setup_delay(self, latencies):
        nw = build_vgprs_network(seed=42, latencies=latencies)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1, answer_delay=5.0)
        term = nw.add_terminal("TERM1", TERM1)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        nw.sim.run(until=nw.sim.now + 6.0)  # idle: paper keeps context up
        nw.sim.trace.clear()
        return self._setup_transport_delay(nw, lambda: term.place_call(ms.msisdn))

    def _tgtr_mt_setup_delay(self, latencies):
        nw = build_3gtr_network(seed=42, latencies=latencies)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1, answer_delay=5.0)
        term = nw.add_terminal("TERM1", TERM1)
        nw.sim.run(until=0.5)
        ms.power_on()
        nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        nw.sim.run(until=nw.sim.now + 6.0)  # idle: context torn down
        nw.sim.trace.clear()
        return self._setup_transport_delay(nw, lambda: term.place_call(ms.msisdn))

    def test_mt_setup_path_faster_in_vgprs(self):
        """Section 6: 'the call path can be quickly established because
        the PDP context is already activated' — vs. 3G TR, where the
        Setup waits for PDU notification, GPRS paging and activation."""
        lat = LatencyProfile()
        vgprs = self._vgprs_mt_setup_delay(lat)
        tgtr = self._tgtr_mt_setup_delay(lat)
        assert vgprs < tgtr
        assert tgtr > 3 * vgprs  # not marginal: activation dominates

    def test_setup_gap_grows_with_core_latency(self):
        lat1 = LatencyProfile()
        lat4 = LatencyProfile().scaled_core(4.0)
        gap1 = self._tgtr_mt_setup_delay(lat1) - self._vgprs_mt_setup_delay(lat1)
        gap4 = self._tgtr_mt_setup_delay(lat4) - self._vgprs_mt_setup_delay(lat4)
        assert gap4 > gap1

    def test_idle_context_residency_tradeoff(self):
        """Section 6's other side: vGPRS holds contexts for idle MSs,
        3G TR does not — residency vs. setup latency."""
        nw_v = build_vgprs_network(seed=43)
        ms = nw_v.add_ms("MS1", IMSI1, MSISDN1)
        scenarios.register_ms(nw_v, ms)
        nw_v.sim.run(until=nw_v.sim.now + 10)
        nw_t = build_3gtr_network(seed=43)
        ms_t = nw_t.add_ms("MS1", IMSI1, MSISDN1)
        ms_t.power_on()
        nw_t.sim.run_until_true(lambda: ms_t.registered, timeout=30)
        nw_t.sim.run(until=nw_t.sim.now + 10)
        assert nw_v.sgsn.context_count() == 1   # idle but held
        assert nw_t.sgsn.context_count() == 0   # idle and released
        assert nw_v.sgsn.context_residency() > nw_t.sgsn.context_residency()

    def test_packet_radio_jitter_exceeds_circuit_jitter(self):
        """Section 6 'real-time communication': the circuit air interface
        gives jitter-free voice; the shared packet channel does not once
        loaded."""
        # vGPRS: circuit TCH.
        nw_v = build_vgprs_network(seed=44)
        ms_v = nw_v.add_ms("MS1", IMSI1, MSISDN1)
        term_v = nw_v.add_terminal("TERM1", TERM1, answer_delay=0.2)
        nw_v.sim.run(until=0.5)
        scenarios.register_ms(nw_v, ms_v)
        scenarios.call_ms_to_terminal(nw_v, ms_v, term_v)
        ref = next(iter(term_v.calls))
        term_v.start_talking(ref, duration=2.0)
        nw_v.sim.run(until=nw_v.sim.now + 3)
        jitter_v = nw_v.sim.metrics.get_histogram("MS1.jitter")

        # 3G TR: shared packet channel with two competing talkers.
        nw_t = build_3gtr_network(seed=44, packet_channel_bps=30_000.0)
        ms_a = nw_t.add_ms("MS-A", IMSI1, MSISDN1, answer_delay=0.2)
        ms_b = nw_t.add_ms("MS-B", "466920000000002", "+886935000002",
                           answer_delay=0.2)
        term_a = nw_t.add_terminal("TERM-A", TERM1, answer_delay=0.2)
        term_b = nw_t.add_terminal("TERM-B", "+886222000002", answer_delay=0.2)
        nw_t.sim.run(until=0.5)
        for handset in (ms_a, ms_b):
            handset.power_on()
        nw_t.sim.run_until_true(
            lambda: ms_a.registered and ms_b.registered, timeout=30
        )
        nw_t.sim.run(until=nw_t.sim.now + 1)
        ms_a.place_call(term_a.alias)
        nw_t.sim.run_until_true(lambda: ms_a.state == "in-call", timeout=30)
        ms_b.place_call(term_b.alias)
        nw_t.sim.run_until_true(lambda: ms_b.state == "in-call", timeout=30)
        ms_a.start_talking(duration=2.0)
        ms_b.start_talking(duration=2.0)
        nw_t.sim.run(until=nw_t.sim.now + 3)
        jitter_t = nw_t.sim.metrics.get_histogram("TERM-A.jitter")
        assert jitter_v.maximum < 1e-9
        assert jitter_t.maximum > jitter_v.maximum

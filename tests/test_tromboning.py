"""Integration tests for tromboning (Figures 7-8, experiment E6)."""

import pytest

from repro.identities import E164Number, IMSI
from repro.core.baseline_gsm import build_classic_roaming_network
from repro.core.network import LatencyProfile
from repro.core.tromboning import build_vgprs_roaming_network
from repro.gsm.subscriber import SubscriberRecord
from repro.net.interfaces import Interface

ROAMER_IMSI = "234150000000001"
ROAMER_MSISDN = "+447700900123"


@pytest.fixture
def classic():
    nw = build_classic_roaming_network(seed=21)
    x = nw.add_roamer("MS-X", ROAMER_IMSI, ROAMER_MSISDN, answer_delay=0.5)
    y = nw.add_phone("PHONE-Y", "+85221234567")
    x.power_on()
    assert nw.sim.run_until_true(lambda: x.registered, timeout=30)
    return nw, x, y


@pytest.fixture
def vgprs_roaming():
    nw = build_vgprs_roaming_network(seed=22)
    x = nw.add_roamer("MS-X", ROAMER_IMSI, ROAMER_MSISDN, answer_delay=0.5)
    nw.sim.run(until=1.0)
    x.power_on()
    assert nw.sim.run_until_true(lambda: x.registered, timeout=30)
    return nw, x, nw.phone_y


class TestClassicGsmTromboning:
    def test_roamer_um_link_follows_latency_profile(self):
        nw = build_classic_roaming_network(latencies=LatencyProfile(um=0.02))
        x = nw.add_roamer("MS-X", ROAMER_IMSI, ROAMER_MSISDN)
        assert x.link_to(nw.bts_hk, Interface.UM).latency == 0.02

    def test_roamer_registers_through_international_ss7(self, classic):
        nw, x, _ = classic
        assert nw.hlr_uk.subscriber(x.imsi).vlr_name == nw.vlr_hk.name

    def test_call_uses_exactly_two_international_trunks(self, classic):
        """Figure 7: 'the call setup results in two international calls'."""
        nw, x, y = classic
        since = nw.sim.now
        y.place_call(x.msisdn)
        assert nw.sim.run_until_true(
            lambda: y.state == "in-call" and x.state == "in-call", timeout=30
        )
        assert nw.ledger.international_count(since=since) == 2
        assert nw.ledger.total_count(since=since) == 3  # + local leg

    def test_call_path_hairpins_through_home_gmsc(self, classic):
        nw, x, y = classic
        y.place_call(x.msisdn)
        nw.sim.run_until_true(lambda: x.state == "in-call", timeout=30)
        hops = [(r.from_switch, r.to_switch) for r in nw.ledger.records]
        assert ("EX-HK", "GMSC-UK") in hops
        assert ("GMSC-UK", "EX-HK") in hops

    def test_voice_pays_double_international_latency(self, classic):
        nw, x, y = classic
        y.place_call(x.msisdn)
        nw.sim.run_until_true(
            lambda: x.state == "in-call" and y.state == "in-call", timeout=30
        )
        y.start_talking(duration=0.5)
        nw.sim.run(until=nw.sim.now + 1.0)
        m2e = nw.sim.metrics.get_histogram("MS-X.mouth_to_ear")
        # Two 70 ms international legs dominate the path.
        assert m2e.mean > 2 * 0.070

    def test_release_frees_all_trunks(self, classic):
        nw, x, y = classic
        y.place_call(x.msisdn)
        nw.sim.run_until_true(lambda: x.state == "in-call", timeout=30)
        x.hangup()
        assert nw.sim.run_until_true(
            lambda: x.state == "idle" and y.state == "idle", timeout=30
        )
        nw.sim.run(until=nw.sim.now + 1)
        assert all(r.released_at is not None for r in nw.ledger.records)


class TestVgprsTromboningElimination:
    def test_roamer_known_to_local_gatekeeper(self, vgprs_roaming):
        nw, x, _ = vgprs_roaming
        assert nw.vgprs.gk.resolve(x.msisdn) is not None

    def test_call_is_local_zero_international_trunks(self, vgprs_roaming):
        """Figure 8: the call from y to x is a local phone call."""
        nw, x, y = vgprs_roaming
        since = nw.sim.now
        y.place_call(x.msisdn)
        assert nw.sim.run_until_true(
            lambda: y.state == "in-call" and x.state == "in-call", timeout=30
        )
        assert nw.ledger.international_count(since=since) == 0
        # The only circuit is the local leg to the H.323 gateway.
        local = [r for r in nw.ledger.records if r.seized_at >= since]
        assert [r.to_switch for r in local] == ["GW-HK"]

    def test_voice_latency_beats_tromboned_path(self, vgprs_roaming):
        nw, x, y = vgprs_roaming
        y.place_call(x.msisdn)
        nw.sim.run_until_true(
            lambda: x.state == "in-call" and y.state == "in-call", timeout=30
        )
        y.start_talking(duration=0.5)
        nw.sim.run(until=nw.sim.now + 1.0)
        m2e = nw.sim.metrics.get_histogram("MS-X.mouth_to_ear")
        assert m2e.count > 0
        assert m2e.mean < 0.140  # no international leg in the path

    def test_release_cleans_up(self, vgprs_roaming):
        nw, x, y = vgprs_roaming
        y.place_call(x.msisdn)
        nw.sim.run_until_true(lambda: x.state == "in-call", timeout=30)
        x.hangup()
        assert nw.sim.run_until_true(
            lambda: x.state == "idle" and y.state == "idle", timeout=30
        )

    def test_unregistered_roamer_falls_back_to_pstn(self):
        """Figure 8: 'if x is not found in the GK, the GK will instruct y
        to connect to the international telephone network.'"""
        nw = build_vgprs_roaming_network(seed=23)
        nw.hlr_uk.add_subscriber(
            SubscriberRecord(
                imsi=IMSI("234150000000002"),
                msisdn=E164Number.parse("+447700900124"),
            )
        )
        nw.sim.run(until=1.0)
        since = nw.sim.now
        nw.phone_y.place_call(E164Number.parse("+447700900124"))
        nw.sim.run(until=nw.sim.now + 10)
        # Gateway admission missed, exchange fell back internationally.
        assert nw.sim.metrics.counters("GW-HK.gk_misses") == {"GW-HK.gk_misses": 1}
        assert nw.ledger.international_count(since=since) == 1

    def test_ms_calls_pstn_phone_through_gateway(self, vgprs_roaming):
        """Paper §4: 'the called party can also be a traditional telephone
        set in the PSTN, which is connected indirectly ... through the
        H.323 network' — the gatekeeper's gateway routing."""
        nw, x, y = vgprs_roaming
        x.place_call(y.number)
        assert nw.sim.run_until_true(
            lambda: x.state == "in-call" and y.state == "in-call", timeout=30
        )
        x.start_talking(duration=0.5)
        y.start_talking(duration=0.5)
        nw.sim.run(until=nw.sim.now + 1.5)
        assert y.frames_received == 25
        assert x.frames_received == 25
        x.hangup()
        assert nw.sim.run_until_true(
            lambda: x.state == "idle" and y.state == "idle", timeout=30
        )

    def test_gateway_fallback_never_hairpins(self, vgprs_roaming):
        """An unknown alias queried BY the gateway itself must reject, not
        resolve back to the gateway (that would loop Figure 8's fallback)."""
        nw, _, _ = vgprs_roaming
        from repro.identities import E164Number

        unknown = E164Number.parse("+447700909999")
        assert nw.vgprs.gk.resolve_or_gateway(unknown, nw.gateway.ip) is None
        resolved = nw.vgprs.gk.resolve_or_gateway(unknown, None)
        assert resolved is not None and resolved.endpoint_type == "gateway"

    def test_gsm_ms_needs_no_h323_capability(self, vgprs_roaming):
        """The roamer is a plain MobileStation — the core §2 claim."""
        from repro.gsm.ms import MobileStation

        nw, x, _ = vgprs_roaming
        assert type(x) is MobileStation

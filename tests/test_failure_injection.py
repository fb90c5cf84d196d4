"""Failure-injection tests: core elements break mid-procedure and the
system must degrade gracefully (no crashes, no stuck states, counters
tell the story).  Faults are injected through the declarative
:mod:`repro.faults` plans, so every scenario here is expressible on the
command line as ``--faults "..."`` too."""

import pytest

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.faults import apply_faults

IMSI1 = "466920000000001"
MSISDN1 = "+886935000001"
TERM1 = "+886222000001"


class TestGatekeeperUnreachable:
    def make(self):
        nw = build_vgprs_network(seed=61)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        # Sever the gatekeeper from the cloud before anything registers.
        apply_faults(nw, "at 0 link GK--IPNET down")
        return nw, ms

    def test_gsm_registration_still_completes(self):
        nw, ms = self.make()
        ms.power_on()
        assert nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        assert nw.sim.metrics.counters("VMSC.gk_registration_timeouts") == {
            "VMSC.gk_registration_timeouts": 1
        }

    def test_ms_table_marks_voip_unavailable(self):
        nw, ms = self.make()
        ms.power_on()
        nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        entry = nw.vmsc.ms_table.get(ms.imsi)
        assert entry is not None
        assert not entry.gk_registered

    def test_call_attempt_fails_cleanly(self):
        nw, ms = self.make()
        term_alias = TERM1
        ms.power_on()
        nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        from repro.identities import E164Number

        ms.place_call(E164Number.parse(term_alias))
        nw.sim.run(until=nw.sim.now + 10)
        assert ms.state == "idle"
        assert nw.sim.metrics.counters("VMSC.calls_without_voip") == {
            "VMSC.calls_without_voip": 1
        }
        assert nw.sim.metrics.counters("unhandled") == {}


class TestGgsnExhaustion:
    def test_signalling_pdp_reject_degrades_to_gsm_only(self):
        nw = build_vgprs_network(seed=62)
        # Replace the address pool with an empty one.
        nw.ggsn._max_dynamic = 0
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        ms.power_on()
        assert nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        assert nw.sim.metrics.counters("VMSC.voip_unavailable") == {
            "VMSC.voip_unavailable": 1
        }
        entry = nw.vmsc.ms_table.get(ms.imsi)
        assert not entry.signalling_ready

    def test_voice_pdp_reject_releases_the_call(self):
        nw = build_vgprs_network(seed=63)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1, answer_delay=0.3)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        # Voice context (the second one) will be refused.
        nw.sgsn.max_contexts = nw.sgsn.context_count()
        ms.place_call(term.alias)
        nw.sim.run(until=nw.sim.now + 10)
        assert ms.state == "idle"
        assert nw.vmsc.calls == {}
        assert nw.sim.metrics.counters("VMSC.pdp_rejects") == {
            "VMSC.pdp_rejects": 1
        }
        # The far end was released too.
        assert term.calls == {}


class TestLinkFailuresMidCall:
    def test_gb_down_during_call_drops_voice_not_state(self):
        nw = build_vgprs_network(seed=64)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1, answer_delay=0.3)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        scenarios.call_ms_to_terminal(nw, ms, term)
        t = nw.sim.now
        apply_faults(nw, f"at {t} link VMSC--SGSN down for 1.5")
        ms.start_talking(duration=0.5)
        nw.sim.run(until=t + 1.0)
        assert term.frames_received == 0  # media lost
        drops = nw.sim.metrics.counters("link.Gb.dropped_down")
        assert drops.get("link.Gb.dropped_down", 0) > 0
        # Radio-side release still works once the plan restores the link
        # (the A/B interfaces were intact throughout).
        nw.sim.run(until=t + 1.6)
        assert nw.sim.metrics.counters("fault.link_up") == {
            "fault.link_up": 1
        }
        ms.hangup()
        assert nw.sim.run_until_true(lambda: ms.state == "idle", timeout=10)

    def test_radio_link_loss_during_mt_page(self):
        nw = build_vgprs_network(seed=65)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        # MS vanishes from coverage.
        apply_faults(nw, f"at {nw.sim.now} link MS1--BTS1 down")
        ref = term.place_call(ms.msisdn)
        nw.sim.run(until=nw.sim.now + 20)
        # Page timer expired, the caller was released.
        assert nw.sim.metrics.counters("VMSC.page_timeouts") == {
            "VMSC.page_timeouts": 1
        }
        assert ref not in term.calls
        assert nw.vmsc.calls == {}


class TestRecovery:
    def test_reregistration_restores_voip_after_gk_returns(self):
        nw = build_vgprs_network(seed=66)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1, answer_delay=0.3)
        apply_faults(nw, "at 0 link GK--IPNET down for 15")
        nw.sim.run(until=0.5)
        ms.power_on()
        nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        assert not nw.vmsc.ms_table.get(ms.imsi).gk_registered
        # The gatekeeper comes back at t=15; the VMSC's backed-off
        # re-registration loop re-homes the MS without waiting for a
        # fresh location update.
        nw.sim.run(until=15.5)
        term.register()
        assert nw.sim.run_until_true(
            lambda: nw.vmsc.ms_table.get(ms.imsi).gk_registered,
            timeout=60,
        )
        assert nw.sim.metrics.counters("VMSC.gk_recoveries") == {
            "VMSC.gk_recoveries": 1
        }
        mttr = nw.sim.metrics.get_histogram("fault.mttr.gk_registration")
        assert mttr is not None and mttr.count == 1
        outcome = scenarios.call_ms_to_terminal(nw, ms, term)
        assert outcome.connected_at is not None


class TestGkOutageRecoveryMatrix:
    """GK outage starting at three phases of service × outage that heals
    or persists.  Every cell must leave the system unwedged (MS idle, no
    stuck VMSC call state, no unhandled messages); a healed outage must
    additionally re-home the MS automatically."""

    def build(self, seed):
        nw = build_vgprs_network(seed=seed)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1, answer_delay=0.3)
        nw.sim.run(until=0.5)
        return nw, ms, term

    def assert_clean(self, nw, ms):
        assert ms.state == "idle"
        assert nw.vmsc.calls == {}
        assert nw.sim.metrics.counters("unhandled") == {}

    def place_failing_call(self, nw, ms):
        """A call attempt during the outage: admission times out and the
        call is released cleanly (no PSTN trunk here, so no fallback)."""
        before = nw.sim.metrics.counters("VMSC.calls_without_voip").get(
            "VMSC.calls_without_voip", 0
        )
        ms.place_call(TERM1)
        assert nw.sim.run_until_true(lambda: ms.state == "idle", timeout=20)
        nw.sim.run(until=nw.sim.now + 6.0)  # let any admission guard fire
        after = nw.sim.metrics.counters("VMSC.calls_without_voip").get(
            "VMSC.calls_without_voip", 0
        )
        assert after == before + 1

    @pytest.mark.parametrize("recovers", [True, False])
    def test_outage_before_registration(self, recovers):
        nw, ms, term = self.build(seed=81 if recovers else 82)
        plan = "at 0 link GK--IPNET down"
        if recovers:
            plan += " for 20"
        apply_faults(nw, plan)
        ms.power_on()
        assert nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        assert nw.sim.metrics.counters("VMSC.gk_registration_timeouts") == {
            "VMSC.gk_registration_timeouts": 1
        }
        if recovers:
            assert nw.sim.run_until_true(
                lambda: nw.vmsc.ms_table.get(ms.imsi).gk_registered,
                timeout=60,
            )
            assert nw.sim.metrics.counters("VMSC.gk_recoveries") == {
                "VMSC.gk_recoveries": 1
            }
            term.register()
            nw.sim.run(until=nw.sim.now + 1.0)
            outcome = scenarios.call_ms_to_terminal(nw, ms, term)
            assert outcome.connected_at is not None
            scenarios.hangup_from_ms(nw, ms)
        else:
            # Retries back off then give up; the MS stays GSM-only and
            # call attempts keep failing cleanly.
            nw.sim.run(until=300.0)
            assert nw.sim.metrics.counters("VMSC.gk_rereg.giveups") == {
                "VMSC.gk_rereg.giveups": 1
            }
            assert not nw.vmsc.ms_table.get(ms.imsi).gk_registered
            self.place_failing_call(nw, ms)
        self.assert_clean(nw, ms)

    @pytest.mark.parametrize("recovers", [True, False])
    def test_outage_mid_setup(self, recovers):
        nw, ms, term = self.build(seed=83 if recovers else 84)
        scenarios.register_ms(nw, ms)
        t = nw.sim.now
        plan = f"at {t} link GK--IPNET down"
        if recovers:
            plan += " for 12"
        apply_faults(nw, plan)
        nw.sim.run(until=t + 0.1)
        # The ARQ for this call is lost; the admission guard detects the
        # outage and releases the call cleanly.
        self.place_failing_call(nw, ms)
        assert nw.sim.metrics.counters("VMSC.admission_timeouts") == {
            "VMSC.admission_timeouts": 1
        }
        if recovers:
            assert nw.sim.run_until_true(
                lambda: nw.vmsc.ms_table.get(ms.imsi).gk_registered,
                timeout=60,
            )
            outcome = scenarios.call_ms_to_terminal(nw, ms, term)
            assert outcome.connected_at is not None
            scenarios.hangup_from_ms(nw, ms)
        else:
            nw.sim.run(until=nw.sim.now + 10.0)
            assert not nw.vmsc.ms_table.get(ms.imsi).gk_registered
            self.place_failing_call(nw, ms)
        self.assert_clean(nw, ms)

    @pytest.mark.parametrize("recovers", [True, False])
    def test_outage_mid_call(self, recovers):
        nw, ms, term = self.build(seed=85 if recovers else 86)
        scenarios.register_ms(nw, ms)
        scenarios.call_ms_to_terminal(nw, ms, term)
        t = nw.sim.now
        plan = f"at {t} link GK--IPNET down"
        if recovers:
            plan += " for 8"
        apply_faults(nw, plan)
        # The established call does not traverse the gatekeeper: media
        # keeps flowing and release works (the DRQ to the GK is
        # fire-and-forget).
        ms.start_talking(duration=0.5)
        nw.sim.run(until=t + 1.0)
        assert term.frames_received > 0
        scenarios.hangup_from_ms(nw, ms)
        if recovers:
            nw.sim.run(until=t + 9.0)
            outcome = scenarios.call_ms_to_terminal(nw, ms, term)
            assert outcome.connected_at is not None
            scenarios.hangup_from_ms(nw, ms)
        else:
            # The next call attempt discovers the outage via the
            # admission guard and fails cleanly.
            self.place_failing_call(nw, ms)
            assert nw.sim.metrics.counters("VMSC.admission_timeouts") == {
                "VMSC.admission_timeouts": 1
            }
        self.assert_clean(nw, ms)


class TestRadioCongestion:
    def test_mo_caller_rejected_when_cell_full(self):
        nw = build_vgprs_network(seed=67, tch_capacity=0)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        from repro.identities import E164Number

        ms.place_call(E164Number.parse(TERM1))
        assert nw.sim.run_until_true(lambda: ms.state == "idle", timeout=10)
        assert nw.sim.metrics.counters("MS1.calls_rejected") == {
            "MS1.calls_rejected": 1
        }
        assert nw.sim.metrics.counters("VMSC.assignment_failures") == {
            "VMSC.assignment_failures": 1
        }

    def test_caller_can_retry_after_congestion_clears(self):
        nw = build_vgprs_network(seed=68, tch_capacity=0)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1, answer_delay=0.3)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        from repro.identities import E164Number

        ms.place_call(E164Number.parse(TERM1))
        nw.sim.run_until_true(lambda: ms.state == "idle", timeout=10)
        nw.bscs[0].tch_capacity = 8
        outcome = scenarios.call_ms_to_terminal(nw, ms, term)
        assert outcome.connected_at is not None

    def test_mt_page_access_congestion_releases_caller(self):
        nw = build_vgprs_network(seed=69, tch_capacity=0)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        ref = term.place_call(ms.msisdn)
        nw.sim.run(until=nw.sim.now + 15)
        # The VMSC failed the assignment after the page and released the
        # caller cleanly.
        assert ref not in term.calls
        assert nw.vmsc.calls == {}
        assert nw.sim.metrics.counters("VMSC.assignment_failures")

    def test_paged_ms_returns_to_idle_after_congestion(self):
        nw = build_vgprs_network(seed=70, tch_capacity=0)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        term.place_call(ms.msisdn)
        nw.sim.run(until=nw.sim.now + 15)
        assert ms.state == "idle"


class TestReviewRegressions:
    """Regression tests for review findings."""

    def test_call_refs_unique_across_endpoints(self):
        """Two terminals whose aliases share the last digits must not
        collide at the gatekeeper."""
        from repro.core.network import build_vgprs_network

        nw = build_vgprs_network(seed=75)
        t1 = nw.add_terminal("TA", "+886222000001", answer_delay=0.2)
        t2 = nw.add_terminal("TB", "+886333000001", answer_delay=0.2)
        t3 = nw.add_terminal("TC", "+886444000009", answer_delay=0.2)
        t4 = nw.add_terminal("TD", "+886555000009", answer_delay=0.2)
        nw.sim.run(until=0.5)
        r1 = t1.place_call(t3.alias)
        r2 = t2.place_call(t4.alias)
        assert r1 != r2
        assert nw.sim.run_until_true(
            lambda: r1 in t1.calls and t1.calls[r1].state == "in-call"
            and r2 in t2.calls and t2.calls[r2].state == "in-call",
            timeout=10,
        )
        # Two distinct admission records, not one merged record.
        assert len(nw.gk.active_calls) == 2

    def test_vlr_rejects_overlapping_procedures(self):
        """A second security procedure for the same IMSI is refused
        instead of hijacking the pending challenge."""
        from repro.identities import IMSI
        from repro.core.network import build_vgprs_network
        from repro.packets.map import (
            ERR_SYSTEM_FAILURE,
            MapProcessAccessRequest,
            MapProcessAccessRequestAck,
        )
        from repro.net.node import Node, handles

        nw = build_vgprs_network(seed=76)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        scenarios.register_ms(nw, ms)

        # Open a procedure directly, then fire a colliding request.
        from repro.gsm.vlr import _Procedure

        nw.vlr._procedures[ms.imsi] = _Procedure(
            kind="access", imsi=ms.imsi, msc_name="VMSC", invoke_id=999
        )
        got = []

        class Probe(Node):
            @handles(MapProcessAccessRequestAck)
            def on_ack(self, msg, src, interface):
                got.append(msg)

        probe = nw.net.add(Probe(nw.sim, "PROBE"))
        nw.net.connect(probe, nw.vlr, "B", 0.001)
        probe.send(nw.vlr, MapProcessAccessRequest(
            invoke_id=5, imsi=ms.imsi, access_type=1,
        ))
        nw.sim.run(until=nw.sim.now + 1)
        assert got and got[0].error == ERR_SYSTEM_FAILURE
        assert nw.sim.metrics.counters("VLR.procedure_collisions") == {
            "VLR.procedure_collisions": 1
        }

    def test_paged_queue_is_bounded(self):
        from repro.core.baseline_3gtr import build_3gtr_network

        nw = build_3gtr_network(seed=77)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1)
        nw.sim.run(until=0.5)
        ms.power_on()
        nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        # MS vanishes; flood its (active-context-free) static address.
        nw.sim.run(until=nw.sim.now + 6.0)  # fall to STANDBY
        ms.link_to(nw.btss[0]).up = False
        from repro.packets.base import Raw

        for _ in range(200):
            term.send_ip(ms.static_ip, Raw(data=b"x"), dport=1720)
        nw.sim.run(until=nw.sim.now + 10)
        # Buffering is bounded at both buffering points: the GGSN's
        # notification buffer and the SGSN's paging queue.
        state = nw.ggsn._addresses[ms.static_ip]
        assert len(state.buffered) <= 64
        assert nw.sim.metrics.counters("GGSN.notify_buffer_drops")
        mm = nw.sgsn.mm_contexts[ms.imsi]
        assert len(mm.paged_queue) <= 64

"""Tests for the idle-deactivation vGPRS variant (the §6 ablation)."""

import pytest

from repro.core import scenarios
from repro.core.network import build_vgprs_network

IMSI1 = "466920000000001"
MSISDN1 = "+886935000001"
TERM1 = "+886222000001"
IDLE_S = 2.0


@pytest.fixture
def idle_variant():
    nw = build_vgprs_network(seed=51, idle_deactivate_after=IDLE_S)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1, answer_delay=0.4)
    term = nw.add_terminal("TERM1", TERM1, answer_delay=0.4)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    return nw, ms, term


class TestIdleDeactivation:
    def test_context_dropped_after_idle_timeout(self, idle_variant):
        nw, ms, _ = idle_variant
        entry = nw.vmsc.ms_table.get(ms.imsi)
        assert entry.signalling_ready
        nw.sim.run(until=nw.sim.now + IDLE_S + 1.0)
        assert not entry.signalling_ready
        assert nw.sgsn.context_count() == 0
        assert nw.sim.metrics.counters("VMSC.idle_deactivations") == {
            "VMSC.idle_deactivations": 1
        }

    def test_gk_registration_survives_deactivation(self, idle_variant):
        nw, ms, _ = idle_variant
        nw.sim.run(until=nw.sim.now + IDLE_S + 1.0)
        assert nw.gk.resolve(ms.msisdn) is not None

    def test_mo_call_reactivates_and_connects(self, idle_variant):
        nw, ms, term = idle_variant
        nw.sim.run(until=nw.sim.now + IDLE_S + 1.0)
        outcome = scenarios.call_ms_to_terminal(nw, ms, term)
        assert outcome.connected_at is not None
        entry = nw.vmsc.ms_table.get(ms.imsi)
        assert entry.signalling_ready

    def test_reactivation_reuses_the_same_address(self, idle_variant):
        """The gatekeeper still maps the alias to the old address, so the
        GGSN must re-issue it (the static-addressing requirement)."""
        nw, ms, term = idle_variant
        entry = nw.vmsc.ms_table.get(ms.imsi)
        ip_before = entry.ip
        nw.sim.run(until=nw.sim.now + IDLE_S + 1.0)
        scenarios.call_ms_to_terminal(nw, ms, term)
        assert entry.ip == ip_before

    def test_mt_call_via_network_requested_activation(self, idle_variant):
        nw, ms, term = idle_variant
        nw.sim.run(until=nw.sim.now + IDLE_S + 1.0)
        outcome = scenarios.call_terminal_to_ms(nw, term, ms)
        assert outcome.connected_at is not None
        assert nw.sim.metrics.counters("VMSC.network_requested_pdp") == {
            "VMSC.network_requested_pdp": 1
        }
        assert nw.sim.metrics.counters("GGSN.pdu_notifications")

    def test_active_call_not_torn_down_by_idle_timer(self, idle_variant):
        nw, ms, term = idle_variant
        scenarios.call_ms_to_terminal(nw, ms, term)
        # Stay in the call far longer than the idle timeout.
        nw.sim.run(until=nw.sim.now + 2 * IDLE_S)
        entry = nw.vmsc.ms_table.get(ms.imsi)
        assert ms.state == "in-call"
        assert entry.signalling_ready and entry.voice_ready

    def test_timer_rearms_after_each_call(self, idle_variant):
        nw, ms, term = idle_variant
        for _ in range(2):
            nw.sim.run(until=nw.sim.now + IDLE_S + 1.0)
            scenarios.call_ms_to_terminal(nw, ms, term)
            scenarios.hangup_from_ms(nw, ms)
            nw.sim.run(until=nw.sim.now + 1.0)
        nw.sim.run(until=nw.sim.now + IDLE_S + 1.0)
        assert nw.sim.metrics.counters("VMSC.idle_deactivations") == {
            "VMSC.idle_deactivations": 3
        }

    def test_default_vgprs_never_deactivates(self):
        nw = build_vgprs_network(seed=52)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        scenarios.register_ms(nw, ms)
        nw.sim.run(until=nw.sim.now + 30.0)
        assert nw.vmsc.ms_table.get(ms.imsi).signalling_ready
        assert nw.sim.metrics.counters("VMSC.idle_deactivations") == {}

    def test_setup_delay_penalty_exists(self, idle_variant):
        """The paper's prediction: 'may significantly increase the call
        setup time'."""
        nw, ms, term = idle_variant
        # Warm call (context up).
        warm = scenarios.call_ms_to_terminal(nw, ms, term)
        scenarios.hangup_from_ms(nw, ms)
        # Cold call (context dropped by the idle timer).
        nw.sim.run(until=nw.sim.now + IDLE_S + 1.0)
        entry = nw.vmsc.ms_table.get(ms.imsi)
        assert not entry.signalling_ready
        cold = scenarios.call_ms_to_terminal(nw, ms, term)
        assert cold.setup_delay > warm.setup_delay

"""Tests for the IMSI-detach (power-off) lifecycle — the mirror image of
Figure 4's registration."""

import pytest

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.errors import ProtocolError

IMSI1 = "466920000000001"
MSISDN1 = "+886935000001"
TERM1 = "+886222000001"


@pytest.fixture
def attached():
    nw = build_vgprs_network(seed=71)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1, answer_delay=0.4)
    term = nw.add_terminal("TERM1", TERM1, answer_delay=0.4)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    return nw, ms, term


class TestDetach:
    def test_detach_indication_reaches_vlr(self, attached):
        nw, ms, _ = attached
        ms.power_off()
        nw.sim.run(until=nw.sim.now + 2.0)
        assert not nw.vlr.visitor(ms.imsi).attached
        assert nw.sim.trace.first("IMSI_Detach_Indication") is not None
        assert nw.sim.trace.first("MAP_Detach_IMSI") is not None

    def test_gatekeeper_unregistered(self, attached):
        nw, ms, _ = attached
        ms.power_off()
        nw.sim.run(until=nw.sim.now + 2.0)
        assert nw.gk.resolve(ms.msisdn) is None
        assert nw.sim.trace.first("RAS_URQ") is not None

    def test_pdp_contexts_and_attach_released(self, attached):
        nw, ms, _ = attached
        ms.power_off()
        nw.sim.run(until=nw.sim.now + 2.0)
        assert nw.sgsn.context_count() == 0
        assert ms.imsi not in nw.sgsn.mm_contexts
        entry = nw.vmsc.ms_table.get(ms.imsi)
        assert not entry.gprs_attached
        assert not entry.signalling_ready

    def test_power_off_leaves_no_unhandled_message(self, attached):
        """The gatekeeper's RAS_UCF answer to the power-off's URQ reaches
        a VMSC handler, so no unhandled-message counter exists."""
        nw, ms, _ = attached
        ms.power_off()
        nw.sim.run(until=nw.sim.now + 2.0)
        assert nw.sim.trace.first("RAS_UCF") is not None
        counters = nw.sim.metrics.counters()
        assert [name for name in counters if "unhandled" in name] == []

    def test_mt_call_to_detached_ms_rejected(self, attached):
        nw, ms, term = attached
        ms.power_off()
        nw.sim.run(until=nw.sim.now + 2.0)
        ref = term.place_call(ms.msisdn)
        nw.sim.run(until=nw.sim.now + 10.0)
        assert ref not in term.calls  # ARJ: alias unknown at the GK

    def test_power_cycle_restores_full_service(self, attached):
        nw, ms, term = attached
        ms.power_off()
        nw.sim.run(until=nw.sim.now + 2.0)
        ms.power_on()
        assert nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        outcome = scenarios.call_terminal_to_ms(nw, term, ms)
        assert outcome.connected_at is not None

    def test_power_off_during_call_rejected(self, attached):
        nw, ms, term = attached
        scenarios.call_ms_to_terminal(nw, ms, term)
        with pytest.raises(ProtocolError):
            ms.power_off()

    def test_power_off_when_already_off_is_silent(self):
        nw = build_vgprs_network(seed=72)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        ms.power_off()  # never powered on; nothing transmitted
        nw.sim.run(until=1.0)
        assert nw.sim.trace.first("IMSI_Detach_Indication") is None

    def test_detach_is_unacknowledged(self, attached):
        """The MS is off; the network must not try to answer."""
        nw, ms, _ = attached
        ms.power_off()
        nw.sim.run(until=nw.sim.now + 3.0)
        downlink = nw.sim.trace.messages(dst="MS1",
                                         since=nw.sim.now - 2.9)
        assert downlink == []
        assert nw.sim.metrics.counters("unhandled") == {}

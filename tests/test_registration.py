"""Integration tests for vGPRS registration (paper §3, Figure 4)."""

from repro.core import scenarios
from repro.core.flows import NodeNames, match_flow, registration_flow
from repro.core.network import build_vgprs_network
from repro.gprs.pdp import NSAPI_SIGNALLING
from repro.gsm.security import derive_ki

from tests.conftest import DEFAULT_IMSI, DEFAULT_MSISDN


class TestRegistrationFlow:
    def test_matches_figure4(self, vgprs):
        ms = vgprs.mss["MS1"]
        scenarios.register_ms(vgprs, ms)
        matched = match_flow(vgprs.sim.trace, registration_flow(NodeNames()))
        assert len(matched) == len(registration_flow())

    def test_step_order_is_monotone_within_chain(self, vgprs):
        ms = vgprs.mss["MS1"]
        scenarios.register_ms(vgprs, ms)
        matched = match_flow(vgprs.sim.trace, registration_flow(NodeNames()))
        # The default-chained steps must be strictly time ordered.
        times = [matched[s.step].time for s in registration_flow()]
        assert times == sorted(times)

    def test_ms_state_after_registration(self, registered):
        ms = registered.mss["MS1"]
        assert ms.registered
        assert ms.state == "idle"
        assert ms.tmsi is not None


class TestMsTablePopulation:
    def test_entry_created_with_contexts(self, registered):
        entry = registered.vmsc.ms_table.get(registered.mss["MS1"].imsi)
        assert entry is not None
        assert entry.gprs_attached
        assert entry.gk_registered
        assert entry.signalling_ready
        assert not entry.voice_ready
        assert entry.msisdn is not None

    def test_ip_address_assigned(self, registered):
        entry = registered.vmsc.ms_table.get(registered.mss["MS1"].imsi)
        assert entry.ip is not None
        # The GGSN owns the mapping and agrees.
        assert registered.ggsn.address_of(entry.imsi) == entry.ip

    def test_indexed_by_msisdn_and_ip(self, registered):
        table = registered.vmsc.ms_table
        entry = table.get(registered.mss["MS1"].imsi)
        assert table.by_msisdn(entry.msisdn) is entry
        assert table.by_ip(entry.ip) is entry

    def test_signalling_context_is_low_priority(self, registered):
        entry = registered.vmsc.ms_table.get(registered.mss["MS1"].imsi)
        # Paper step 1.3: "the QoS profile can be set to low priority".
        assert entry.pdp_state(NSAPI_SIGNALLING).qos.delay_class == 4


class TestGatekeeperSide:
    def test_alias_registered_at_gk(self, registered):
        ms = registered.mss["MS1"]
        reg = registered.gk.resolve(ms.msisdn)
        assert reg is not None
        entry = registered.vmsc.ms_table.get(ms.imsi)
        assert reg.signal_address == entry.ip

    def test_gk_never_learns_imsi(self, registered):
        """Section 6: the IMSI stays confidential to the GPRS operator."""
        ms = registered.mss["MS1"]
        reg = registered.gk.resolve(ms.msisdn)
        text = repr(reg) + repr(registered.gk.registrations)
        assert ms.imsi.digits not in text


class TestTunnelledDispatch:
    def test_handlerless_tunnelled_message_reaches_on_unhandled(self, registered):
        """H.323 arriving through an MS's PDP context is unwrapped and
        dispatched through the VMSC's handler table, so a message the
        VMSC has no handler for is counted and noted like any other."""
        from repro.gprs.gb import GbUnitdata
        from repro.net.interfaces import Interface
        from repro.packets.ip import IPv4, PORT_H225_RAS, UDP
        from repro.packets.ras import RasUrq

        nw = registered
        ms = nw.mss["MS1"]
        entry = nw.vmsc.ms_table.get(ms.imsi)
        frame = GbUnitdata(imsi=ms.imsi, nsapi=NSAPI_SIGNALLING)
        frame.payload = (
            IPv4(src=nw.gk.ip, dst=entry.ip)
            / UDP(sport=PORT_H225_RAS, dport=PORT_H225_RAS)
            / RasUrq(seq=1, alias=ms.msisdn)
        )
        def unhandled():
            return nw.sim.metrics.counters("unhandled.VMSC").get("unhandled.VMSC", 0)

        before = unhandled()
        nw.vmsc.receive(frame, nw.sgsn, Interface.GB)
        assert unhandled() == before + 1
        assert any(
            e.kind == "note" and e.message == "UNHANDLED RAS_URQ"
            for e in nw.sim.trace.entries
        )


class TestGprsSide:
    def test_sgsn_holds_mm_and_pdp_context(self, registered):
        imsi = registered.mss["MS1"].imsi
        assert imsi in registered.sgsn.mm_contexts
        assert (imsi, NSAPI_SIGNALLING) in registered.sgsn.pdp_contexts

    def test_sgsn_access_node_is_vmsc(self, registered):
        imsi = registered.mss["MS1"].imsi
        ctx = registered.sgsn.pdp_contexts[(imsi, NSAPI_SIGNALLING)]
        assert ctx.access_node == registered.vmsc.name

    def test_ggsn_context_matches(self, registered):
        imsi = registered.mss["MS1"].imsi
        ctx = registered.ggsn.pdp_contexts[(imsi, NSAPI_SIGNALLING)]
        assert ctx.sgsn_name == registered.sgsn.name


class TestVariants:
    def test_movement_registration_with_tmsi(self):
        """End of §3: location update due to MS movement uses the TMSI."""
        nw = build_vgprs_network(seed=3, num_bts=2)
        ms = nw.add_ms("MS1", DEFAULT_IMSI, DEFAULT_MSISDN,
                       use_tmsi_for_updates=True)
        nw.add_coverage(ms, nw.btss[1])
        scenarios.register_ms(nw, ms)
        first_tmsi = ms.tmsi
        since = nw.sim.now
        ms.move_to(nw.btss[1].name, lai="LAI-886-2")
        assert nw.sim.run_until_true(lambda: ms.state == "idle", timeout=30)
        # The update request on the new cell used the TMSI, not the IMSI.
        updates = nw.sim.trace.messages(
            name="Um_Location_Update_Request", since=since
        )
        assert updates and updates[0].info.get("imsi") in (None, "None")
        assert first_tmsi is not None

    def test_reregistration_is_idempotent(self, registered):
        ms = registered.mss["MS1"]
        entry = registered.vmsc.ms_table.get(ms.imsi)
        ip_before = entry.ip
        ms.move_to(registered.btss[0].name, lai="LAI-886-1")
        assert registered.sim.run_until_true(lambda: ms.state == "idle", timeout=30)
        assert registered.vmsc.ms_table.get(ms.imsi).ip == ip_before

    def test_unknown_imsi_rejected(self):
        nw = build_vgprs_network(seed=4)
        # MS whose IMSI was never provisioned in the HLR: craft manually.
        from repro.gsm.ms import MobileStation
        from repro.identities import IMSI, E164Number
        from repro.net.interfaces import Interface

        ms = MobileStation(
            nw.sim, "GHOST", imsi=IMSI("466920000009999"),
            msisdn=E164Number.parse("+886935009999"),
            ki=derive_ki("466920000009999"), serving_bts=nw.btss[0].name,
        )
        nw.net.add(ms)
        nw.net.connect(ms, nw.btss[0], Interface.UM, 0.01)
        ms.power_on()
        nw.sim.run(until=10.0)
        assert not ms.registered
        assert nw.sim.metrics.counters("VMSC.lu_failures") == {"VMSC.lu_failures": 1}

    def test_wrong_ki_fails_authentication(self):
        nw = build_vgprs_network(seed=5)
        ms = nw.add_ms("MS1", DEFAULT_IMSI, DEFAULT_MSISDN)
        ms.ki = b"\x00" * 16  # does not match the HLR's key
        ms.power_on()
        nw.sim.run(until=10.0)
        assert not ms.registered
        assert nw.sim.metrics.counters("VLR.auth_failures") == {
            "VLR.auth_failures": 1
        }

    def test_two_ms_register_independently(self):
        nw = build_vgprs_network(seed=6)
        ms1 = nw.add_ms("MS1", DEFAULT_IMSI, DEFAULT_MSISDN)
        ms2 = nw.add_ms("MS2", "466920000000002", "+886935000002")
        ms1.power_on()
        ms2.power_on()
        assert nw.sim.run_until_true(
            lambda: ms1.registered and ms2.registered, timeout=30
        )
        e1 = nw.vmsc.ms_table.get(ms1.imsi)
        e2 = nw.vmsc.ms_table.get(ms2.imsi)
        assert e1.ip != e2.ip
        assert e1.tmsi != e2.tmsi

    def test_registration_latency_scales_with_core_latency(self):
        def latency(factor):
            from repro.core.network import LatencyProfile

            nw = build_vgprs_network(
                seed=7, latencies=LatencyProfile().scaled_core(factor)
            )
            ms = nw.add_ms("MS1", DEFAULT_IMSI, DEFAULT_MSISDN)
            return scenarios.register_ms(nw, ms)

        assert latency(10.0) > latency(1.0)

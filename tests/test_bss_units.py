"""Direct unit tests for the BSS (BTS/BSC): renaming, routing, paging
broadcast, TCH accounting and the shared packet channel."""

import pytest

from repro.identities import IMSI
from repro.gprs.gb import GbUnitdata
from repro.gsm.bsc import Bsc
from repro.gsm.bts import Bts
from repro.net.interfaces import Interface
from repro.net.node import Network, Node
from repro.packets.bssap import (
    AAssignmentRequest,
    AClearCommand,
    APaging,
    UmLocationUpdateRequest,
    UmSetup,
)
from repro.sim.kernel import Simulator

IMSI1 = IMSI("466920000000001")
IMSI2 = IMSI("466920000000002")


class Sink(Node):
    """Accepts anything; remembers what arrived."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.got = []

    def receive(self, packet, src, interface):
        self.got.append((packet, interface))

    def names(self):
        return [type(p).__name__ for p, _ in self.got]


@pytest.fixture
def bss():
    """MS-sink <-> BTS <-> BSC <-> MSC-sink, plus a second BTS + MS."""
    sim = Simulator()
    net = Network(sim)
    bsc = net.add(Bsc(sim, "BSC", tch_capacity=1))
    bts1 = net.add(Bts(sim, "BTS1"))
    bts2 = net.add(Bts(sim, "BTS2"))
    msc = net.add(Sink(sim, "MSC"))
    ms1 = net.add(Sink(sim, "MS1"))
    ms2 = net.add(Sink(sim, "MS2"))
    net.connect(bts1, bsc, Interface.ABIS, 0.001)
    net.connect(bts2, bsc, Interface.ABIS, 0.001)
    net.connect(bsc, msc, Interface.A, 0.001)
    net.connect(ms1, bts1, Interface.UM, 0.001)
    net.connect(ms2, bts2, Interface.UM, 0.001)
    return sim, bsc, bts1, bts2, msc, ms1, ms2


class TestRenamingChain:
    def test_uplink_lu_renamed_per_hop(self, bss):
        sim, bsc, bts1, _, msc, ms1, _ = bss
        ms1.send(bts1, UmLocationUpdateRequest(imsi=IMSI1, lai="L1"))
        sim.run()
        assert msc.names() == ["ALocationUpdate"]

    def test_downlink_setup_renamed_and_routed(self, bss):
        sim, bsc, bts1, _, msc, ms1, _ = bss
        # Teach the chain where IMSI1 lives.
        ms1.send(bts1, UmLocationUpdateRequest(imsi=IMSI1, lai="L1"))
        sim.run()
        from repro.packets.bssap import ASetup

        msc.send(bsc, ASetup(ti=5, imsi=IMSI1))
        sim.run()
        assert "UmSetup" in ms1.names()

    def test_downlink_unroutable_counted(self, bss):
        sim, bsc, _, _, msc, _, _ = bss
        from repro.packets.bssap import ASetup

        msc.send(bsc, ASetup(ti=5, imsi=IMSI1))  # nothing learned yet
        sim.run()
        assert sim.metrics.counters("BSC.downlink_unroutable") == {
            "BSC.downlink_unroutable": 1
        }

    def test_uplink_setup_rename_at_both_hops(self, bss):
        sim, bsc, bts1, _, msc, ms1, _ = bss
        ms1.send(bts1, UmSetup(ti=1, imsi=IMSI1))
        sim.run()
        assert msc.names() == ["ASetup"]


class TestPagingBroadcast:
    def test_page_reaches_every_cell(self, bss):
        sim, bsc, _, _, msc, ms1, ms2 = bss
        msc.send(bsc, APaging(imsi=IMSI1, lai="L1"))
        sim.run()
        assert ms1.names() == ["UmPaging"]
        assert ms2.names() == ["UmPaging"]

    def test_page_copies_are_independent(self, bss):
        sim, bsc, _, _, msc, ms1, ms2 = bss
        msc.send(bsc, APaging(imsi=IMSI1, lai="L1"))
        sim.run()
        page1 = ms1.got[0][0]
        page2 = ms2.got[0][0]
        assert page1 is not page2
        assert page1.imsi == page2.imsi == IMSI1


class TestTchAccounting:
    def test_assignment_consumes_pool(self, bss):
        sim, bsc, bts1, _, msc, ms1, _ = bss
        ms1.send(bts1, UmLocationUpdateRequest(imsi=IMSI1, lai="L1"))
        sim.run()
        msc.send(bsc, AAssignmentRequest(imsi=IMSI1))
        sim.run()
        assert bsc.tch_in_use == 1
        assert "UmAssignmentCommand" in ms1.names()

    def test_blocking_and_failure_message(self, bss):
        sim, bsc, bts1, bts2, msc, ms1, ms2 = bss
        ms1.send(bts1, UmLocationUpdateRequest(imsi=IMSI1, lai="L1"))
        ms2.send(bts2, UmLocationUpdateRequest(imsi=IMSI2, lai="L1"))
        sim.run()
        msc.send(bsc, AAssignmentRequest(imsi=IMSI1))
        msc.send(bsc, AAssignmentRequest(imsi=IMSI2))  # pool size is 1
        sim.run()
        assert bsc.tch_in_use == 1
        assert "AAssignmentFailure" in msc.names()

    def test_clear_returns_channel(self, bss):
        sim, bsc, bts1, _, msc, ms1, _ = bss
        ms1.send(bts1, UmLocationUpdateRequest(imsi=IMSI1, lai="L1"))
        sim.run()
        msc.send(bsc, AAssignmentRequest(imsi=IMSI1))
        sim.run()
        msc.send(bsc, AClearCommand(imsi=IMSI1))
        sim.run()
        assert bsc.tch_in_use == 0
        assert "AClearComplete" in msc.names()

    def test_clear_for_non_holder_is_harmless(self, bss):
        sim, bsc, _, _, msc, _, _ = bss
        msc.send(bsc, AClearCommand(imsi=IMSI1))
        sim.run()
        assert bsc.tch_in_use == 0


class TestPacketChannel:
    def test_queueing_delay_accumulates(self):
        sim = Simulator()
        net = Network(sim)
        bts = net.add(Bts(sim, "BTS", packet_channel_bps=800.0))  # 100 B/s
        bsc = net.add(Sink(sim, "BSC"))
        ms = net.add(Sink(sim, "MS"))
        net.connect(bts, bsc, Interface.ABIS, 0.0)
        net.connect(ms, bts, Interface.UM, 0.0)
        frame = GbUnitdata(imsi=IMSI1, nsapi=5)
        size = len(frame.build())
        # Two back-to-back frames: the second waits for the first.
        ms.send(bts, frame.copy())
        ms.send(bts, frame.copy())
        sim.run()
        assert len(bsc.got) == 2
        hist = sim.metrics.get_histogram("BTS.pch_delay_up")
        assert hist.count == 2
        service = size * 8 / 800.0
        assert hist.samples[0] == pytest.approx(service)
        assert hist.samples[1] == pytest.approx(2 * service)

    def test_disabled_channel_forwards_immediately(self):
        sim = Simulator()
        net = Network(sim)
        bts = net.add(Bts(sim, "BTS", packet_channel_bps=None))
        bsc = net.add(Sink(sim, "BSC"))
        ms = net.add(Sink(sim, "MS"))
        net.connect(bts, bsc, Interface.ABIS, 0.0)
        net.connect(ms, bts, Interface.UM, 0.0)
        ms.send(bts, GbUnitdata(imsi=IMSI1, nsapi=5))
        sim.run()
        assert len(bsc.got) == 1
        assert sim.metrics.get_histogram("BTS.pch_delay_up") is None

    def test_circuit_voice_bypasses_packet_channel(self):
        from repro.packets.bssap import TchFrame

        sim = Simulator()
        net = Network(sim)
        bts = net.add(Bts(sim, "BTS", packet_channel_bps=8.0))  # 1 B/s!
        bsc = net.add(Sink(sim, "BSC"))
        ms = net.add(Sink(sim, "MS"))
        net.connect(bts, bsc, Interface.ABIS, 0.0)
        net.connect(ms, bts, Interface.UM, 0.0)
        ms.send(bts, TchFrame(ti=1, imsi=IMSI1, seq=1, gen_time_us=0))
        sim.run()
        # Delivered instantly despite the saturated packet channel.
        assert len(bsc.got) == 1
        assert sim.now == 0.0

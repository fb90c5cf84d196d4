"""Inter-system handoff scenario — Figure 9.

A vGPRS network whose VMSC neighbours a classic GSM MSC.  A call is
established through the VMSC (Figure 9a); the MS then moves into the
MSC's cell.  The standard GSM inter-system handoff runs over the MAP E
interface, an inter-MSC circuit trunk is set up, and afterwards the VMSC
remains the **anchor** in the call path (Figure 9b) — voice now flows
MS -> BTS2 -> BSC2 -> MSC -> (E trunk) -> VMSC -> GPRS -> H.323 network.

"Inter-system handoff between two VMSCs follows the same procedure"
(paper §7): pass ``target="vmsc"`` to build the two-VMSC variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.network import LatencyProfile, VgprsNetwork, build_vgprs_network
from repro.core.topology import bss, wire
from repro.core.vmsc import Vmsc
from repro.gsm.bsc import Bsc
from repro.gsm.bts import Bts
from repro.gsm.ms import MobileStation
from repro.gsm.msc import GsmMsc
from repro.gsm.msc_base import MscBase
from repro.net.interfaces import Interface

SERVING_CELL = "cell-1"
TARGET_CELL = "cell-2"


def _neighbour(
    vgprs: VgprsNetwork, msc: MscBase, suffix: str, cell: str
) -> Tuple[Bsc, Bts]:
    """Wire a neighbouring system serving *cell*: *msc* with its own
    BSC and BTS, joined to the anchor VMSC over the MAP E interface
    (signalling + trunk)."""
    sim, net = vgprs.sim, vgprs.net
    net.add(msc)
    bsc = Bsc(sim, f"BSC{suffix}")
    (bts,), abis = bss(net, bsc, [f"BTS{suffix}"])
    wire(net, vgprs.latencies, [
        (bsc, msc, Interface.A, "a"),
        *abis,
        (vgprs.vmsc, msc, Interface.E, "ss7"),
    ], vgprs.wire_fidelity)
    vgprs.vmsc.neighbor_cells[cell] = msc.name
    msc.cells[cell] = bsc.name
    return bsc, bts


@dataclass
class HandoffNetwork:
    """The Figure 9 topology: vGPRS PLMN + neighbouring target system."""

    vgprs: VgprsNetwork
    target_msc: MscBase
    target_bsc: Bsc
    target_bts: Bts
    ms: Optional[MobileStation] = None

    @property
    def sim(self):
        return self.vgprs.sim

    def add_ms(self, name: str, imsi: str, msisdn: str,
               answer_delay: float = 1.0) -> MobileStation:
        """An MS with radio visibility of both systems' cells."""
        ms = self.vgprs.add_ms(name, imsi, msisdn, answer_delay=answer_delay)
        self.vgprs.add_coverage(ms, self.target_bts)
        ms.cells = {
            SERVING_CELL: self.vgprs.btss[0].name,
            TARGET_CELL: self.target_bts.name,
        }
        self.ms = ms
        return ms

    def add_system(self, cell: str, name: str) -> GsmMsc:
        """Add a third (or Nth) classic-MSC system serving *cell*, wired
        to the anchor over the E interface — for chained subsequent
        handoffs."""
        nodes = self.vgprs.net.nodes
        msc = GsmMsc(self.sim, name, cic_start=550000 + len(nodes))
        _, bts = _neighbour(self.vgprs, msc, f"-{name}", cell)
        if self.ms is not None:
            self.vgprs.add_coverage(self.ms, bts)
            self.ms.cells[cell] = bts.name
        return msc

    def trigger_handback(self) -> None:
        """The serving system reports the anchor's own cell: subsequent
        handoff back (the E trunk is then released)."""
        assert self.ms is not None
        conn = self.target_msc.conn(self.ms.imsi)
        self.target_bsc.report_handover_required(
            self.ms.imsi, conn.ti or 0, SERVING_CELL
        )

    def trigger_handoff(self) -> None:
        """Radio measurements demand the target cell (scenario driver)."""
        assert self.ms is not None, "add_ms first"
        conn = self.vgprs.vmsc.conn(self.ms.imsi)
        self.vgprs.bscs[0].report_handover_required(
            self.ms.imsi, conn.ti or 0, TARGET_CELL
        )

    def handoff_complete(self) -> bool:
        assert self.ms is not None
        conn = self.vgprs.vmsc.conn(self.ms.imsi)
        return conn.via_msc == self.target_msc.name

    def voice_path(self) -> List[str]:
        """The current voice path, Figure 9 style: radio leg up to the
        anchor VMSC, then the packet leg toward the H.323 network."""
        assert self.ms is not None
        conn = self.vgprs.vmsc.conn(self.ms.imsi)
        packet_leg = [
            self.vgprs.vmsc.name,
            self.vgprs.sgsn.name,
            self.vgprs.ggsn.name,
            self.vgprs.cloud.name,
        ]
        if conn.via_msc is None:
            radio_leg = [self.ms.name, self.vgprs.btss[0].name, conn.bsc]
        else:
            radio_leg = [
                self.ms.name,
                self.target_bts.name,
                self.target_bsc.name,
                self.target_msc.name,
            ]
        return radio_leg + packet_leg


def build_handoff_network(
    seed: int = 0,
    latencies: LatencyProfile = LatencyProfile(),
    target: str = "msc",
) -> HandoffNetwork:
    """Wire Figure 9.  ``target`` selects a classic GSM ``"msc"`` or a
    second ``"vmsc"`` as the neighbouring system."""
    vgprs = build_vgprs_network(seed=seed, latencies=latencies)
    if target == "vmsc":
        target_msc: MscBase = Vmsc(vgprs.sim, "VMSC2", gk_ip=vgprs.gk.ip)
    else:
        target_msc = GsmMsc(vgprs.sim, "MSC2")
    target_bsc, target_bts = _neighbour(vgprs, target_msc, "2", TARGET_CELL)
    return HandoffNetwork(
        vgprs=vgprs,
        target_msc=target_msc,
        target_bsc=target_bsc,
        target_bts=target_bts,
    )

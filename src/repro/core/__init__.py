"""vGPRS core: the VMSC softswitch and the comparison networks.

* :class:`~repro.core.vmsc.Vmsc` — the paper's contribution (§2-§5);
* :class:`~repro.core.ms_table.MsTable` — the VMSC's MM + PDP context
  store;
* :mod:`~repro.core.topology` — the latency profile, the one link
  wiring path and the sub-assemblies every network builder shares;
* :mod:`~repro.core.network` — the vGPRS topology builder;
* :mod:`~repro.core.baseline_gsm` — classic GSM network (Figure 7);
* :mod:`~repro.core.baseline_3gtr` — the 3G TR 23.923 approach (§6);
* :mod:`~repro.core.flows` — golden message flows transcribed from
  Figures 4-6;
* :mod:`~repro.core.scenarios` — high-level drivers used by examples,
  tests and benchmarks.
"""

from repro.core.ms_table import MsTable, MsTableEntry
from repro.core.vmsc import Vmsc
from repro.core.network import LatencyProfile, VgprsNetwork, build_vgprs_network

__all__ = [
    "MsTable",
    "MsTableEntry",
    "Vmsc",
    "LatencyProfile",
    "VgprsNetwork",
    "build_vgprs_network",
]

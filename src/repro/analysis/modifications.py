"""Experiment E10: the Section-6 "modifications to the existing
networks" comparison, derived from the implementation itself.

Rather than restating the paper's table, each row is *checked against
the code*: e.g. "standard MSs suffice in vGPRS" is verified by
inspecting that :class:`~repro.gsm.ms.MobileStation` carries no H.323
machinery, and "the gatekeeper is standard" by verifying the
:class:`~repro.h323.gatekeeper.Gatekeeper` handler table contains no MAP
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.baseline_3gtr import H323MobileStation
from repro.core.vmsc import Vmsc
from repro.gprs.ggsn import Ggsn
from repro.gprs.sgsn import Sgsn
from repro.gsm.ms import MobileStation
from repro.gsm.msc import GsmMsc
from repro.gsm.msc_base import MscBase
from repro.h323.gatekeeper import Gatekeeper
from repro.packets.map import MapMessage


@dataclass
class ModificationRow:
    component: str
    vgprs: str
    tgtr: str
    check: str
    verified: bool


def _handles_any(node_cls: type, message_base: type) -> bool:
    """Does *node_cls* register a handler for any subclass of
    *message_base*?"""
    return any(
        issubclass(ptype, message_base) for ptype in node_cls._handlers()
    )


def _has_h323_stack(ms_cls: type) -> bool:
    """An MS 'is an H.323 terminal' iff it crafts RAS/Q.931 itself."""
    return any(
        callable(getattr(ms_cls, name, None))
        for name in ("_send_h323", "_send_arq", "_send_rrq")
    )


def modification_matrix() -> List[ModificationRow]:
    """The Section-6 comparison, each row verified against the code."""
    rows = [
        ModificationRow(
            component="Mobile station",
            vgprs="standard GSM/GPRS MS",
            tgtr="must be an H.323 terminal with vocoder",
            check="MobileStation has no H.323 stack; H323MobileStation does",
            verified=(
                not _has_h323_stack(MobileStation)
                and _has_h323_stack(H323MobileStation)
            ),
        ),
        ModificationRow(
            component="Gatekeeper",
            vgprs="standard H.323 gatekeeper",
            tgtr="needs GSM MAP toward the HLR (knows IMSIs)",
            check="Gatekeeper handles no MAP operation",
            verified=not _handles_any(Gatekeeper, MapMessage),
        ),
        ModificationRow(
            component="MSC",
            vgprs="replaced by VMSC (router-based softswitch)",
            tgtr="bypassed (no role in VoIP calls)",
            check="Vmsc presents the full MSC radio interface",
            verified=issubclass(Vmsc, MscBase) and issubclass(GsmMsc, MscBase),
        ),
        ModificationRow(
            component="VMSC GSM interfaces",
            vgprs="identical to a standard MSC (A/B/C/E)",
            tgtr="n/a",
            check="every A/B/E handler of GsmMsc is inherited by Vmsc "
                  "from the shared MscBase",
            verified=_shared_radio_interface(),
        ),
        ModificationRow(
            component="SGSN / GGSN",
            vgprs="unmodified",
            tgtr="unmodified",
            check="both networks instantiate the same Sgsn/Ggsn classes",
            verified=_same_gprs_classes(),
        ),
        ModificationRow(
            component="VMSC H.323 side",
            vgprs="speaks standard RAS/Q.931 (terminal behaviour)",
            tgtr="n/a",
            check="Vmsc emits only standard RAS message classes",
            verified=_vmsc_uses_standard_ras(),
        ),
    ]
    return rows


def _shared_radio_interface() -> bool:
    """All radio-side (A/B interface) handlers of the classic MSC resolve
    to MscBase methods in the VMSC too."""
    base_handlers = MscBase._handlers()
    vmsc_handlers = Vmsc._handlers()
    for ptype, attr in base_handlers.items():
        if vmsc_handlers.get(ptype) is None:
            return False
    return True


def _same_gprs_classes() -> bool:
    """The built vGPRS and 3G TR networks hold the stock SGSN and GGSN."""
    from repro.core.baseline_3gtr import build_3gtr_network
    from repro.core.network import build_vgprs_network

    vgprs, tgtr = build_vgprs_network(), build_3gtr_network()
    return all(
        type(nw.sgsn) is Sgsn and type(nw.ggsn) is Ggsn for nw in (vgprs, tgtr)
    )


def _vmsc_uses_standard_ras() -> bool:
    """The VMSC builds its RAS with the client every H.323 endpoint
    uses, and that client emits the standard RAS message classes."""
    import inspect

    from repro.core import vmsc as vmsc_module
    from repro.h323.endpoint import RasClient

    src = inspect.getsource(vmsc_module)
    ras = inspect.getsource(RasClient)
    return "RasClient()" in src and all(
        f"{name}(" in ras for name in ("RasRrq", "RasArq", "RasDrq")
    )

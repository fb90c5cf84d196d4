"""Helpers for BTS/BSC message relaying.

The BTS and BSC mostly *rename* messages between interfaces (``Um_Setup``
becomes ``Abis_Setup`` becomes ``A_Setup``) or relay DTAP transparently.
:func:`rename_packet` rebuilds a message as its sibling class on the next
interface, copying every field the target class shares; :func:`find_imsi`
extracts the subscriber identity used for downlink routing.
"""

from __future__ import annotations

from typing import Optional, Type

from repro.identities import IMSI
from repro.packets.base import Packet


def rename_packet(packet: Packet, target: Type[Packet]) -> Packet:
    """Rebuild *packet* as *target*, copying the fields both classes
    declare (the interface-sibling classes share field tuples by
    construction) and carrying the payload chain unchanged."""
    values = packet._values
    plan = target._plan
    if type(packet)._plan is plan and all(
        values[name] is not None for name in plan.defaulted
    ):
        # Siblings sharing a plan code the same fields the same way: the
        # values carry over as they are, and a received slice only needs
        # the target's wire id.  Its correlation items carry over too
        # when both classes describe themselves with the same info().
        state = packet.__dict__
        wire = state.get("_wire")
        clone = target._trusted(
            values,
            None if wire is None else target._wire_prefix + wire[2:],
            state.get("_corr") if target.info is type(packet).info else None,
        )
    else:
        target_names = {f.name for f in target.fields}
        clone = target(**{
            name: value
            for name, value in values.items()
            if name in target_names and value is not None
        })
    clone.payload = packet.payload
    return clone


def find_imsi(packet: Packet) -> Optional[IMSI]:
    """The IMSI carried by any layer of *packet*, if present."""
    for layer in packet.layers():
        imsi = layer.get_field("imsi")
        if isinstance(imsi, IMSI):
            return imsi
    return None


def subscriber_keys(packet: Packet) -> list:
    """Routing keys for *packet*: ``("imsi", IMSI)`` and/or
    ``("tmsi", int)`` — TMSI-only messages (movement registration, the
    end-of-§3 variant) stay routable without disclosing the IMSI."""
    keys = []
    for layer in packet.layers():
        imsi = layer.get_field("imsi")
        if isinstance(imsi, IMSI):
            keys.append(("imsi", imsi))
        tmsi = layer.get_field("tmsi")
        if isinstance(tmsi, int):
            keys.append(("tmsi", tmsi))
    return keys

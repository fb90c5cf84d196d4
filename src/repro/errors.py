"""Exception hierarchy for the vGPRS reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly (e.g. scheduling in
    the past, running a stopped simulator)."""


class TraceWindowError(SimulationError):
    """A trace query asked about a message name whose entries were
    evicted by the recorder's retention window (:meth:`TraceRecorder.
    set_limit`), or a query or exporter ran on a simulator that retains
    no history (``Simulator.retain_history`` off) — the answer would be
    silently wrong, not merely empty."""


class PacketError(ReproError):
    """A packet could not be built or parsed."""


class FieldError(PacketError):
    """A packet field received a value it cannot encode."""


class AddressError(ReproError):
    """An identity (IMSI, MSISDN, IP address, ...) is malformed."""


class FaultPlanError(ReproError):
    """A fault plan could not be parsed, or references a link/node the
    target topology does not have."""


class TopologyError(ReproError):
    """The network topology is inconsistent (unknown node, duplicate link,
    message sent on an unconnected interface)."""


class ProtocolError(ReproError):
    """A protocol state machine received a message it cannot handle in its
    current state."""


class RegistrationError(ProtocolError):
    """A registration (GSM location update, GPRS attach, RAS RRQ) failed."""


class CallSetupError(ProtocolError):
    """A call could not be established."""


class AdmissionError(CallSetupError):
    """The H.323 gatekeeper rejected an admission request (ARJ)."""


class PagingError(CallSetupError):
    """The mobile station did not answer a page."""


class AuthenticationError(ProtocolError):
    """GSM authentication (SRES mismatch) or ciphering setup failed."""


class PdpContextError(ProtocolError):
    """A GPRS PDP context could not be activated, found or deactivated."""


class HandoffError(ProtocolError):
    """An inter-system handoff failed."""


class RoutingError(ReproError):
    """No route exists for a destination (E.164 number or IP address)."""


class SubscriberError(ReproError):
    """A subscriber record is missing or inconsistent (HLR/VLR lookup
    failure, unknown IMSI/MSISDN)."""

"""H.323 substrate: gatekeeper, endpoint core, terminals, PSTN gateway, codecs.

Figure 2(b)'s "H.323 network": a standard gatekeeper (address
translation, admission, disengage/charging), H.323 terminal endpoints,
and the H.323-PSTN gateway through which Figure 8's local telephone
company reaches registered roamers.

Every endpoint is built on one core, :mod:`repro.h323.endpoint`: a RAS
client (RRQ/ARQ/DRQ/URQ from one sequencer per node), one call leg
(ARQ -> Setup -> Proceeding/Alerting -> Connect -> Release Complete ->
DRQ, one :class:`H323Call` record) and one RTP talker parameterised by a
:class:`CodecSpec`.  :class:`H323Terminal` (G.711), :class:`H323PstnGateway`
(the leg bridged to ISUP) and the 3G TR handset
(:class:`repro.core.baseline_3gtr.H323MobileStation`, GSM-FR over the
packet radio) compose it; the VMSC shares its :class:`RasClient`.
"""

from repro.h323.codec import CodecSpec, G711_ULAW, G729, GSM_FR, Vocoder
from repro.h323.endpoint import H323Call, H323Endpoint, RasClient
from repro.h323.gatekeeper import CallRecord, Gatekeeper, Registration
from repro.h323.terminal import H323Terminal
from repro.h323.gateway import H323PstnGateway

__all__ = [
    "CodecSpec",
    "GSM_FR",
    "G711_ULAW",
    "G729",
    "Vocoder",
    "Gatekeeper",
    "Registration",
    "CallRecord",
    "H323Call",
    "H323Endpoint",
    "RasClient",
    "H323Terminal",
    "H323PstnGateway",
]
